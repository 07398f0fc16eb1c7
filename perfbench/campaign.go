package main

import (
	"fmt"
	"runtime"
	"time"

	"arq/internal/core"
	"arq/internal/sim"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

// trace-campaign: the paper's own evaluation. Set-up generates the
// synthetic vantage trace; the timed phase steps every §V policy over the
// same blocks through sim.Run, in whole rounds of all seven policies.
const (
	campaignBlocks = 100 // blocks of tracegen.PaperProfile().BlockSize pairs
	campaignPrune  = 10  // the paper's support-pruning threshold
	// set-ups before the timed phase and between its rounds
	campaignSetups, campaignSetupsBetween = 3, 4
)

type policySpec struct {
	name string
	make func() core.Policy
}

func campaignPolicies() []policySpec {
	return []policySpec{
		{"static", func() core.Policy { return &core.Static{Prune: campaignPrune} }},
		{"sliding", func() core.Policy { return &core.Sliding{Prune: campaignPrune} }},
		{"wide", func() core.Policy { return &core.Wide{Prune: campaignPrune, Width: core.DefaultWideWidth} }},
		{"lazy", func() core.Policy { return &core.Lazy{Prune: campaignPrune, Interval: 10} }},
		{"adaptive-n10", func() core.Policy { return &core.Adaptive{Prune: campaignPrune, Window: 10, Init: 0.7} }},
		{"adaptive-n50", func() core.Policy { return &core.Adaptive{Prune: campaignPrune, Window: 50, Init: 0.7} }},
		{"incremental", func() core.Policy { return &core.Incremental{} }},
	}
}

// timedPolicy records a span around every Step of the policy it wraps.
type timedPolicy struct {
	core.Policy
	tr     *tracer
	span   string
	parent int32
}

func (p timedPolicy) Step(b trace.Block) core.StepResult {
	id := p.tr.begin(p.span, p.parent)
	r := p.Policy.Step(b)
	p.tr.end(id)
	return r
}

func generateTrace(seed uint64) ([]trace.Pair, int, error) {
	cfg := tracegen.PaperProfile()
	cfg.Seed = seed
	cfg.TotalBlocks = campaignBlocks
	g := tracegen.New(cfg)
	pairs := make([]trace.Pair, 0, campaignBlocks*cfg.BlockSize)
	for {
		b, ok := g.Next()
		if !ok {
			break
		}
		pairs = append(pairs, b...)
	}
	if len(pairs) != campaignBlocks*cfg.BlockSize {
		return nil, 0, fmt.Errorf("tracegen served %d pairs, want %d", len(pairs), campaignBlocks*cfg.BlockSize)
	}
	return pairs, cfg.BlockSize, nil
}

// runCampaignRound steps every policy over the whole trace and returns
// the results and the policies in their final state. With tr non-nil
// each policy's Step calls are recorded as spans.
func runCampaignRound(pairs []trace.Pair, blockSize int, tr *tracer) ([]*sim.Result, []core.Policy) {
	specs := campaignPolicies()
	out := make([]*sim.Result, len(specs))
	policies := make([]core.Policy, len(specs))
	for i, s := range specs {
		p := s.make()
		policies[i] = p
		var run int32 = -1
		if tr != nil {
			run = tr.begin("sim.run/"+s.name, -1)
			p = timedPolicy{Policy: p, tr: tr, span: "core.step/" + s.name, parent: run}
		}
		out[i] = sim.Run(s.name, p, trace.NewSliceSource(pairs, blockSize), 0)
		if tr != nil {
			tr.end(run)
		}
	}
	return out, policies
}

// policiesHeap returns the live heap the policies hold, from two samples,
// with and without them. Each policy is the rule plane of one vantage
// node, so the figure divided by their number is
// runtime.heap_bytes_per_node.
func policiesHeap(policies *[]core.Policy) float64 {
	held := liveHeap()
	runtime.KeepAlive(*policies)
	*policies = nil
	return held - liveHeap()
}

func traceCampaign(cfg config) (*result, error) {
	res := newResult()
	var genTimes []float64
	type corpus struct {
		pairs     []trace.Pair
		blockSize int
	}
	su := &setups[corpus]{build: func() (corpus, error) {
		t0 := time.Now()
		pairs, bs, err := generateTrace(cfg.seed)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		return corpus{pairs, bs}, err
	}, release: func(corpus) {}, between: campaignSetupsBetween}
	c, err := su.before(campaignSetups)
	if err != nil {
		return nil, err
	}
	res.note("trace-campaign: %d blocks x %d pairs, prune %d, %d policies per round",
		campaignBlocks, c.blockSize, campaignPrune, len(campaignPolicies()))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		res.spans = tr
	}
	minRounds := 1
	if cfg.trace {
		minRounds = 2
	}
	var first []*sim.Result
	var plain, traced roundRates
	var pause pauses
	var setupErr error
	var pairs int64 // tested, over all rounds
	var heaps []float64
	setupAgain := func() { pause.do(func() { setupErr = su.again() }) }
	rt0 := sampleRuntime()
	start := time.Now()
	rounds := 0
	for rounds < minRounds || (time.Since(start)-pause.d).Seconds() < cfg.seconds {
		var rtr *tracer
		if cfg.trace && rounds%2 == 1 {
			rtr = tr
		}
		t0 := time.Now()
		results, policies := runCampaignRound(c.pairs, c.blockSize, rtr)
		d := time.Since(t0)
		var tested int64
		for _, r := range results {
			tested += int64(r.Trials * c.blockSize)
			res.attempted += int64(r.Blocks)
		}
		pairs += tested
		if rtr != nil {
			traced.add(tested, d)
		} else {
			plain.add(tested, d)
		}
		if cfg.trace {
			// Every round's policies are sampled: their maps' layout, and
			// so their heap, differs from one instance to the next by a
			// few percent, which the median over rounds leaves out.
			n := float64(len(policies))
			pause.do(func() { heaps = append(heaps, policiesHeap(&policies)/n) })
		}
		if first == nil {
			first = results
		} else {
			for i, r := range results {
				f := first[i]
				res.check(r.Trials == f.Trials && r.Regens == f.Regens &&
					r.MeanCoverage() == f.MeanCoverage() && r.MeanSuccess() == f.MeanSuccess(),
					"%s: round %d differs from round 0 on the same blocks", r.Name, rounds)
			}
		}
		rounds++
		if su.due((time.Since(start) - pause.d).Seconds() / cfg.seconds) {
			setupAgain()
		}
	}
	elapsed := time.Since(start) - pause.d
	for su.done < su.between && setupErr == nil {
		setupAgain()
	}
	if setupErr != nil {
		return nil, setupErr
	}
	rt1 := sampleRuntime()
	res.endToEnd("setup_s", "s", su.median())
	res.perLayer("tracegen.gen_s", "s", median(genTimes))
	res.endToEnd("ops_per_s", "1/s", plain.median())
	if len(heaps) > 0 {
		res.perLayer("runtime.heap_bytes_per_node", "B", median(heaps))
	}
	res.note("trace-campaign: %d rounds in %.2fs", rounds, elapsed.Seconds())
	reportRuntime(res, rt0, rt1, pause, pairs)

	for _, r := range first {
		res.perLayer("core."+r.Name+".regens", "count", float64(r.Regens))
		res.perLayer("core."+r.Name+".coverage", "ratio", r.MeanCoverage())
		res.perLayer("core."+r.Name+".success", "ratio", r.MeanSuccess())
	}
	if tr != nil {
		for _, s := range campaignPolicies() {
			dur, _, n := tr.total("core.step/" + s.name)
			if n > 0 {
				res.perLayer("core."+s.name+".step_ms_per_block", "ms", dur.Seconds()*1e3/float64(n))
			}
		}
		overhead(res, plain.median(), traced.median())
	}

	checkCampaign(res, first, c.pairs, c.blockSize)
	return res, nil
}

// checkCampaign recomputes per-block coverage and success for Static and
// Sliding from the raw pairs with plain maps and compares them with
// sim.Run's series value for value.
func checkCampaign(res *result, results []*sim.Result, pairs []trace.Pair, blockSize int) {
	var blocks [][]trace.Pair
	for off := 0; off < len(pairs); off += blockSize {
		blocks = append(blocks, pairs[off:off+blockSize])
	}
	want := map[string][2][]float64{}
	static := naiveRules(blocks[0])
	var cov, suc []float64
	for _, b := range blocks[1:] {
		c, s := naiveTest(static, b)
		cov, suc = append(cov, c), append(suc, s)
	}
	want["static"] = [2][]float64{cov, suc}
	cov, suc = nil, nil
	for i := 1; i < len(blocks); i++ {
		c, s := naiveTest(naiveRules(blocks[i-1]), blocks[i])
		cov, suc = append(cov, c), append(suc, s)
	}
	want["sliding"] = [2][]float64{cov, suc}

	for _, r := range results {
		w, ok := want[r.Name]
		if !ok {
			continue
		}
		res.check(equalSeries(r.Coverage.Values, w[0]), "%s: coverage series differs from the naive recomputation", r.Name)
		res.check(equalSeries(r.Success.Values, w[1]), "%s: success series differs from the naive recomputation", r.Name)
	}
	for _, r := range results {
		res.check(r.Trials == len(blocks)-1, "%s: %d tested blocks, want %d", r.Name, r.Trials, len(blocks)-1)
	}
}

type hostPair struct{ src, replier trace.HostID }

// naiveRuleSet is a support-pruned rule table: the pairs seen at least
// campaignPrune times in one block, and the sources they cover.
type naiveRuleSet struct {
	rules   map[hostPair]bool
	sources map[trace.HostID]bool
}

func naiveRules(block []trace.Pair) naiveRuleSet {
	count := map[hostPair]int{}
	for _, p := range block {
		count[hostPair{p.Source, p.Replier}]++
	}
	rs := naiveRuleSet{rules: map[hostPair]bool{}, sources: map[trace.HostID]bool{}}
	for k, n := range count {
		if n >= campaignPrune {
			rs.rules[k] = true
			rs.sources[k.src] = true
		}
	}
	return rs
}

// naiveTest is RULESET-TEST of paper §III-B.2: N counts distinct query
// GUIDs, n those whose source is a rule antecedent, s those of the n with
// a reply through one of the source's consequents. α = n/N, ρ = s/n.
func naiveTest(rs naiveRuleSet, block []trace.Pair) (alpha, rho float64) {
	type query struct {
		src                 trace.HostID
		covered, successful bool
	}
	queries := map[trace.GUID]*query{}
	var order []trace.GUID
	for _, p := range block {
		q := queries[p.GUID]
		if q == nil {
			q = &query{src: p.Source, covered: rs.sources[p.Source]}
			queries[p.GUID] = q
			order = append(order, p.GUID)
		}
		if q.covered && rs.rules[hostPair{q.src, p.Replier}] {
			q.successful = true
		}
	}
	var n, s int
	for _, g := range order {
		if queries[g].covered {
			n++
		}
		if queries[g].successful {
			s++
		}
	}
	if len(order) > 0 {
		alpha = float64(n) / float64(len(order))
	}
	if n > 0 {
		rho = float64(s) / float64(n)
	}
	return alpha, rho
}

func equalSeries(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
