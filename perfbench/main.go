// Command perfbench is the repository benchmark: one workload per run,
// chosen by --workload, with inputs derived from --seed, a timed phase of
// --seconds, output checks against computations made in this package,
// and a last stdout line holding one JSON object for machines:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run interleaves untraced and traced rounds and reports per-layer
// metrics, timed from outside around the calls into each layer's public
// functions, plus the tracing overhead. Spans are kept in memory and
// written to <build dir>/perfbench-spans/ at exit.
//
// Every workload prints every metric that BENCHMARK.json names: each
// end-to-end metric, measured and never 0, and each per-layer metric, a
// layer the workload does not exercise reading 0.
//
// Run it through run.sh, from the repository root, which builds it from
// the checkout's sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// manifestPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const manifestPath = "BENCHMARK.json"

// manifest holds the metric families BENCHMARK.json declares.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest() (manifest, error) {
	var m manifest
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %v", manifestPath, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return m, fmt.Errorf("%s names no end-to-end or no per-layer metric", manifestPath)
	}
	return m, nil
}

// complete holds a workload's metrics to the manifest. Every end-to-end
// metric must be there in its unit and be non-zero. In a traced run, a
// per-layer metric the workload did not report is a layer it does not
// exercise and reads 0. A metric the manifest does not name, or one in
// another unit, is an error of the benchmark.
func (r *result) complete(m manifest, traced bool) error {
	if err := holdTo("end-to-end", r.e2e, m.EndToEnd); err != nil {
		return err
	}
	for _, mm := range m.EndToEnd {
		v, ok := r.e2e[mm.Name]
		if !ok {
			return fmt.Errorf("end-to-end metric %s not measured", mm.Name)
		}
		if v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("end-to-end metric %s reads %v", mm.Name, v.Value)
		}
	}
	if err := holdTo("per-layer", r.layer, m.PerLayer); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	var idle []string
	for _, mm := range m.PerLayer {
		if _, ok := r.layer[mm.Name]; !ok {
			r.layer[mm.Name] = metric{0, mm.Unit}
			idle = append(idle, mm.Name)
		}
	}
	if len(idle) > 0 {
		r.note("%d per-layer metrics read 0: their layer is not exercised by this workload", len(idle))
	}
	return nil
}

// holdTo checks that every metric in got is declared in want, in the
// declared unit.
func holdTo(family string, got map[string]metric, want []manifestMetric) error {
	units := map[string]string{}
	for _, mm := range want {
		units[mm.Name] = mm.Unit
	}
	for name, v := range got {
		u, ok := units[name]
		if !ok {
			return fmt.Errorf("%s metric %s is not in %s", family, name, manifestPath)
		}
		if u != v.Unit {
			return fmt.Errorf("%s metric %s in %s, %s says %s", family, name, v.Unit, manifestPath, u)
		}
	}
	return nil
}

// config is what every workload receives from the command line.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back. e2e and layer hold the two
// metric families; only the family selected by --trace is printed in the
// JSON line, both are printed as text.
type result struct {
	attempted    int64
	failed       int64
	failedChecks int
	problems     []string
	e2e          map[string]metric
	layer        map[string]metric
	notes        []string
	spans        *tracer
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *result) endToEnd(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *result) perLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// check records a failed output check; the run then reports
// correct=false. The first few failures are kept for printing.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.failedChecks++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*result, error){
	"trace-campaign": traceCampaign,
	"overlay-assoc":  overlayAssoc,
	"overlay-flood":  overlayFlood,
	"servent-rules":  serventRules,
}

func main() {
	workload := flag.String("workload", "", "workload name: trace-campaign, overlay-assoc, overlay-flood or servent-rules")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	man, err := readManifest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	fmt.Printf("env workload=%s seed=%d go=%s GOMAXPROCS=%d NumCPU=%d trace=%d seconds=%g\n",
		*workload, cfg.seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *traceFlag, cfg.seconds)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := res.complete(man, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println("note", n)
	}
	printMetrics("end-to-end", res.e2e)
	printMetrics("per-layer", res.layer)
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if res.failedChecks > len(res.problems) {
		fmt.Printf("CHECK FAILED: %d more\n", res.failedChecks-len(res.problems))
	}
	fmt.Printf("ops workload=%s attempted=%d failed=%d\n", *workload, res.attempted, res.failed)
	if res.spans != nil {
		path, err := res.spans.write(*workload, cfg.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans %d written to %s\n", len(res.spans.spans), path)
	}

	out := res.e2e
	if cfg.trace {
		out = res.layer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failedChecks == 0, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printMetrics(family string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-44s %16.6g %s\n", family, n, ms[n].Value, ms[n].Unit)
	}
}

// buildDir is where the benchmark leaves files: the directory run.sh
// builds into.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// setups times a workload's set-up, repeated so that setup_s is a median.
// A shared host's speed moves in phases of a few seconds, longer than a
// set-up, so the repeats are spread over the run: before the timed phase
// (the last of these is the state the run measures) and between timed
// rounds, where each is built, timed and released at once.
type setups[T any] struct {
	build   func() (T, error)
	release func(T)
	times   []float64
	between int // set-ups to run between rounds
	done    int // of those, run so far
}

func (s *setups[T]) timed() (T, error) {
	t0 := time.Now()
	st, err := s.build()
	if err == nil {
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return st, err
}

// before runs n set-ups and returns the state of the last; earlier states
// are released before the next set-up starts.
func (s *setups[T]) before(n int) (T, error) {
	var state T
	for i := 0; i < n; i++ {
		if i > 0 {
			s.release(state)
			runtime.GC()
		}
		st, err := s.timed()
		if err != nil {
			return state, err
		}
		state = st
	}
	return state, nil
}

// due reports whether the timed phase, share of the way through, has
// passed the mark of the next set-up between rounds; the marks divide
// the phase evenly.
func (s *setups[T]) due(share float64) bool {
	return s.done < s.between && share >= float64(s.done+1)/float64(s.between+1)
}

// again runs one set-up between rounds and releases it. Call it inside a
// pause, and once more for each set-up still due when the phase ends, so
// that every run makes the same number of set-ups.
func (s *setups[T]) again() error {
	s.done++
	runtime.GC()
	st, err := s.timed()
	if err == nil {
		s.release(st)
	}
	return err
}

func (s *setups[T]) median() float64 { return median(s.times) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// liveHeap forces collections and returns the live heap in bytes. The
// second collection frees what the first left in sync.Pool victim caches.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runtimeSample reads the process counters the runtime.* per-layer
// metrics are differences of.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{get(0), get(1), get(2)}
}

// reportRuntime adds runtime.alloc_bytes_per_op and
// runtime.gc_cpu_fraction for the interval between two samples, less
// what the workload's pauses spent in it; ops are the operations
// ops_per_s counts, traced and untraced.
func reportRuntime(r *result, a, b runtimeSample, skip pauses, ops int64) {
	if ops > 0 {
		r.perLayer("runtime.alloc_bytes_per_op", "B", (b.allocBytes-a.allocBytes-skip.rt.allocBytes)/float64(ops))
	}
	if cpu := b.totalCPU - a.totalCPU - skip.rt.totalCPU; cpu > 0 {
		r.perLayer("runtime.gc_cpu_fraction", "ratio", (b.gcCPU-a.gcCPU-skip.rt.gcCPU)/cpu)
	}
}

// pauses collects what a workload does between timed rounds (output
// checks, heap samples, set-ups): its wall time, left out of the elapsed
// time, its runtime counters, left out of the runtime.* metrics, and its
// increments of the named obsv counters, in skip.
type pauses struct {
	d        time.Duration
	rt       runtimeSample
	counters []string
	skip     []int64
}

func (p *pauses) do(f func()) {
	t0, r0, c0 := time.Now(), sampleRuntime(), readCounters(p.counters)
	f()
	r1, c1 := sampleRuntime(), readCounters(p.counters)
	p.d += time.Since(t0)
	p.rt.allocBytes += r1.allocBytes - r0.allocBytes
	p.rt.gcCPU += r1.gcCPU - r0.gcCPU
	p.rt.totalCPU += r1.totalCPU - r0.totalCPU
	if p.skip == nil {
		p.skip = make([]int64, len(p.counters))
	}
	for i := range c1 {
		p.skip[i] += c1[i] - c0[i]
	}
}

// exclude takes the pauses' increments out of counter readings c, read
// after the pauses of the names in p.counters.
func (p *pauses) exclude(c []int64) {
	for i := range p.skip {
		c[i] -= p.skip[i]
	}
}

// roundRates collects the operation rate of each timed round of one
// kind (traced or untraced). The benchmark reports the median round
// rate: a stall of a shared host slows a few rounds, not the median.
type roundRates struct {
	d     time.Duration
	rates []float64
}

func (r *roundRates) add(ops int64, d time.Duration) {
	r.d += d
	if ops > 0 && d > 0 {
		r.rates = append(r.rates, float64(ops)/d.Seconds())
	}
}

func (r *roundRates) median() float64 { return median(r.rates) }

// overhead reports how much slower traced rounds ran than untraced ones,
// as a percentage of the untraced rate.
func overhead(r *result, untracedRate, tracedRate float64) {
	if untracedRate > 0 && tracedRate > 0 {
		r.perLayer("trace.overhead_pct", "%", 100*(untracedRate/tracedRate-1))
	}
}

func spansPath(workload string, seed uint64) string {
	return filepath.Join(buildDir(), "perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
