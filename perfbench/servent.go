package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"arq/internal/scenario"
	"arq/internal/transport"
	"arq/internal/vantage"
	"arq/internal/wire"
)

// servent-rules: vantage servents in this process over loopback TCP,
// each with the rule server on, linked and stocked by scenario.ClusterPlan.
// One closed-loop searcher keeps one Search outstanding at a time,
// cycling through a pool of (origin, topic) jobs drawn from the seed.
const (
	serventN    = 8
	serventTTL  = 7
	serventWarm = 2000 // warm-up searches that fill the rule tables
	serventPool = 4096
	// set-ups before the timed phase and between its rounds
	serventSetups, serventSetupsBetween = 5, 10
	// serventWait bounds one Search. A search that gets no hit within
	// it timed out; it is left out of attempted and failed (see README)
	// and enters the latency percentiles at this bound.
	serventWait = 250 * time.Millisecond
	// serventHeapAt is the number of timed searches after which the heap
	// is sampled and transport.msgs_per_search read: Servent.seen never
	// evicts, so retained heap grows with every search, and the rule
	// servers keep learning; a sample at a fixed count keeps both
	// comparable.
	serventHeapAt = 20000
	// serventWindow is the number of consecutive searches one p50 and one
	// p99 are taken over; vantage.search_p50_us and vantage.search_p99_us
	// are the medians over windows, so a host stall in one window does not
	// make the run's figure.
	serventWindow = 2000
)

type serventNet struct {
	plan   scenario.ClusterPlan
	svs    []*vantage.Servent
	byID   map[wire.GUID]int
	listen float64 // listen, share and connect
	warm   float64
}

func (n *serventNet) close() {
	for _, s := range n.svs {
		s.Close()
	}
}

// serventID is the servent identifier a servent puts in its query hits:
// the first 16 bytes of its listen address.
func serventID(addr string) wire.GUID {
	var g wire.GUID
	copy(g[:], addr)
	return g
}

type searchJob struct{ origin, topic int }

func drawSearches(plan scenario.ClusterPlan, seed int64, n int) []searchJob {
	r := rand.New(rand.NewSource(seed))
	jobs := make([]searchJob, n)
	for i := range jobs {
		jobs[i].origin = i % plan.N
		jobs[i].topic = plan.PickTopic(r, jobs[i].origin)
	}
	return jobs
}

func startServents(seed uint64) (*serventNet, error) {
	net := &serventNet{plan: scenario.ClusterPlan{N: serventN, Seed: int64(seed)}, byID: map[wire.GUID]int{}}
	t0 := time.Now()
	for i := 0; i < serventN; i++ {
		rules := vantage.DefaultRuleConfig()
		s, err := vantage.Listen("127.0.0.1:0", vantage.Options{Rules: &rules, Net: &transport.Options{NodeID: i}})
		if err != nil {
			net.close()
			return nil, err
		}
		net.svs = append(net.svs, s)
		net.byID[serventID(s.Addr())] = i
		for _, f := range net.plan.Library(i) {
			s.Share(f.Name, f.Size)
		}
	}
	degree := make([]int, serventN)
	for i := 0; i < serventN; i++ {
		for _, q := range net.plan.Neighbours(i) {
			if err := net.svs[i].ConnectTo(net.svs[q].Addr()); err != nil {
				net.close()
				return nil, fmt.Errorf("servent %d dialing %d: %w", i, q, err)
			}
			degree[i]++
			degree[q]++
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ready := true
		for i, s := range net.svs {
			if s.NumConns() < degree[i] {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			net.close()
			return nil, errors.New("servents did not register every connection within 10s")
		}
	}
	t1 := time.Now()
	for _, j := range drawSearches(net.plan, int64(seed)*7919+1, serventWarm) {
		_, _ = net.svs[j.origin].Search(net.plan.SearchString(j.topic), serventTTL, serventWait)
	}
	net.listen = t1.Sub(t0).Seconds()
	net.warm = time.Since(t1).Seconds()
	return net, nil
}

func serventRules(cfg config) (*result, error) {
	res := newResult()
	var listens, warms []float64
	su := &setups[*serventNet]{build: func() (*serventNet, error) {
		n, err := startServents(cfg.seed)
		if err == nil {
			listens = append(listens, n.listen)
			warms = append(warms, n.warm)
		}
		return n, err
	}, release: func(n *serventNet) { n.close() }, between: serventSetupsBetween}
	net, err := su.before(serventSetups)
	if err != nil {
		return nil, err
	}
	defer net.close()
	jobs := drawSearches(net.plan, int64(cfg.seed)*7919+2, serventPool)
	res.note("servent-rules: %d servents, TTL %d, %d warm-up searches, wait bound %v, pool of %d searches",
		serventN, serventTTL, serventWarm, serventWait, serventPool)
	check := newHitChecker(net, jobs)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		res.spans = tr
	}
	counters := []string{"transport.msgs_in", "transport.bytes_in", "transport.queue_sheds",
		"transport.write_errors", "vantage.dup_queries_dropped", "vantage.rule_routed",
		"vantage.rule_flood", "vantage.rule_stale_flood", "vantage.hits_dropped",
		"vantage.queries_relayed", "vantage.hits_routed", "core.publish.count"}
	// A set-up between rounds runs its own servents' warm-up, which the
	// counters also see; pause takes it out of them.
	pause := pauses{counters: counters}
	c0 := readCounters(counters)
	rt0 := sampleRuntime()
	// Each search is checked as it returns and only a window of latencies
	// is kept, so the heap sample holds the servents' state and not the
	// benchmark's. The traced run keeps a few hits to time the codec on.
	var hits []*wire.QueryHit
	window := make([]float64, 0, serventWindow) // µs, the current window's searches
	var p50s, p99s []float64
	var plain, traced roundRates
	var answered, timeouts int64
	heap, heapMsgs := -1.0, 0.0
	minRounds := 1
	if cfg.trace {
		minRounds = 2
	}
	next := 0
	start := time.Now()
	for rounds := 0; rounds < minRounds || (time.Since(start)-pause.d).Seconds() < cfg.seconds; rounds++ {
		on := cfg.trace && rounds%2 == 1
		var busy time.Duration // time in answered searches
		var done int64
		for i := 0; i < serventN; i++ {
			j := next % len(jobs)
			next++
			job := jobs[j]
			var span int32
			if on {
				span = tr.begin("vantage.search", -1)
			}
			t0 := time.Now()
			hit, err := net.svs[job.origin].Search(net.plan.SearchString(job.topic), serventTTL, serventWait)
			d := time.Since(t0)
			if on {
				tr.end(span)
			}
			if err != nil {
				timeouts++
				window = append(window, float64(serventWait.Microseconds()))
			} else {
				busy += d
				done++
				window = append(window, float64(d.Nanoseconds())/1e3)
				check.hit(res, j, hit)
				if cfg.trace && len(hits) < 1024 {
					hits = append(hits, hit)
				}
			}
			if len(window) == serventWindow {
				p50s = append(p50s, percentile(window, 50))
				p99s = append(p99s, percentile(window, 99))
				window = window[:0]
			}
		}
		answered += done
		if on {
			traced.add(done, busy)
		} else {
			plain.add(done, busy)
		}
		if heap < 0 && next >= serventHeapAt {
			pause.do(func() {
				heap = liveHeap()
				c := readCounters(counters)
				pause.exclude(c)
				heapMsgs = float64(c[0]-c0[0]) / float64(next)
			})
		}
		if su.due((time.Since(start) - pause.d).Seconds() / cfg.seconds) {
			pause.do(func() { err = su.again() })
		}
	}
	elapsed := time.Since(start) - pause.d
	for su.done < su.between && err == nil {
		pause.do(func() { err = su.again() })
	}
	if err != nil {
		return nil, err
	}
	rt1 := sampleRuntime()
	c1 := readCounters(counters)
	pause.exclude(c1)
	res.endToEnd("setup_s", "s", su.median())
	res.perLayer("vantage.setup_s", "s", median(listens))
	res.perLayer("vantage.warmup_s", "s", median(warms))
	searches := int64(next)
	if heap < 0 {
		heap = liveHeap()
		heapMsgs = float64(c1[0]-c0[0]) / float64(searches)
		res.note("servent-rules: only %d searches, heap and messages sampled at the end instead of after %d", next, serventHeapAt)
	}
	if len(p50s) == 0 {
		p50s = append(p50s, percentile(window, 50))
		p99s = append(p99s, percentile(window, 99))
	}
	res.attempted = answered
	res.note("servent-rules: %d searches in %.2fs, %d answered, %d timed out (left out of attempted)",
		searches, elapsed.Seconds(), answered, timeouts)

	d := func(i int) int64 { return c1[i] - c0[i] }
	// Answered searches per second of time spent in them: a timed-out
	// search costs a whole wait bound and would otherwise swamp the rate.
	res.endToEnd("ops_per_s", "1/s", plain.median())
	res.perLayer("transport.msgs_per_search", "msg", heapMsgs)
	res.perLayer("runtime.heap_bytes_per_node", "B", heap/serventN)
	res.perLayer("vantage.search_p50_us", "us", median(p50s))
	res.perLayer("vantage.search_p99_us", "us", median(p99s))

	res.perLayer("transport.bytes_per_search", "B", float64(d(1))/float64(searches))
	res.perLayer("transport.queue_sheds", "count", float64(d(2)))
	res.perLayer("transport.write_errors", "count", float64(d(3)))
	res.perLayer("vantage.dup_drops_per_search", "msg", float64(d(4))/float64(searches))
	if all := d(5) + d(6) + d(7); all > 0 {
		res.perLayer("vantage.rule_routed_share", "ratio", float64(d(5))/float64(all))
	}
	res.perLayer("vantage.hits_dropped", "count", float64(d(8)))
	res.perLayer("vantage.search_timeouts", "count", float64(timeouts))
	res.perLayer("core.publishes_per_query", "count", float64(d(11))/float64(searches))
	rules := 0
	for _, s := range net.svs {
		rules += s.RuleCount()
	}
	res.perLayer("vantage.rules_per_servent", "count", float64(rules)/serventN)
	reportRuntime(res, rt0, rt1, pause, searches)
	if cfg.trace {
		overhead(res, plain.median(), traced.median())
		queryFrames, hitFrames := d(9)+d(4), d(10)+d(8)
		timeCodec(res, tr, net.plan, jobs, hits, float64(queryFrames)/float64(queryFrames+hitFrames))
	}
	return res, nil
}

// hitChecker verifies every answered search: the hit comes from a
// servent that owns the topic under the placement rule (topic t lives on
// servents t mod N and t+1 mod N, as shard 0 and shard 1), and names
// exactly that servent's file for the topic. The expected file names are
// made before the timed phase, so a check allocates nothing.
type hitChecker struct {
	jobs []searchJob
	byID map[wire.GUID]int
	n    int
	want map[int][2]string // topic -> file of shard 0 and shard 1
}

func newHitChecker(net *serventNet, jobs []searchJob) *hitChecker {
	c := &hitChecker{jobs: jobs, byID: net.byID, n: net.plan.N, want: map[int][2]string{}}
	for _, j := range jobs {
		for shard := 0; shard < 2; shard++ {
			w := c.want[j.topic]
			w[shard] = fmt.Sprintf("topic-%03d keywords shard%d.dat", j.topic, shard)
			c.want[j.topic] = w
		}
	}
	return c
}

func (c *hitChecker) hit(res *result, job int, h *wire.QueryHit) {
	t := c.jobs[job].topic
	from, known := c.byID[h.ServentID]
	shard := -1
	if known && from == t%c.n {
		shard = 0
	} else if known && from == (t+1)%c.n {
		shard = 1
	}
	res.check(shard >= 0, "search %d for topic %d answered by servent %d (known=%v), which does not own it", job, t, from, known)
	if shard < 0 {
		return
	}
	want := c.want[t][shard]
	ok := len(h.Results) == 1
	for _, f := range h.Results {
		ok = ok && f.FileName == want && f.FileSize == uint32(1024*(t+1))
	}
	res.check(ok, "search %d for topic %d: servent %d returned %+v, want one file %q", job, t, from, h.Results, want)
}

// timeCodec times the public wire codec on the workload's own frames:
// one query frame per search and one hit frame per answered search,
// weighted by the share of query frames the transports received.
// Encoding is Message.Encode; decoding is Decode plus the payload parse
// the servent does on every received frame.
func timeCodec(res *result, tr *tracer, plan scenario.ClusterPlan, jobs []searchJob, received []*wire.QueryHit, queryShare float64) {
	var queries, hits []*wire.Message
	for i, j := range jobs {
		if i >= 1024 {
			break
		}
		queries = append(queries, &wire.Message{Type: wire.TypeQuery, TTL: serventTTL,
			Payload: (&wire.Query{Search: plan.SearchString(j.topic)}).Marshal()})
	}
	for _, h := range received {
		p, err := h.Marshal()
		res.check(err == nil, "re-marshal of a received hit failed: %v", err)
		hits = append(hits, &wire.Message{Type: wire.TypeQueryHit, TTL: serventTTL, Payload: p})
	}
	if len(hits) == 0 {
		return
	}
	enc := func(frames []*wire.Message, buf *bytes.Buffer) time.Duration {
		id := tr.begin("wire.encode", -1)
		for _, m := range frames {
			if err := m.Encode(buf); err != nil {
				res.check(false, "encode: %v", err)
			}
		}
		return tr.end(id)
	}
	dec := func(frames []*wire.Message, raw []byte, parse func([]byte) error) time.Duration {
		r := bytes.NewReader(raw)
		id := tr.begin("wire.decode", -1)
		for range frames {
			m, err := wire.Decode(r)
			if err == nil {
				err = parse(m.Payload)
			}
			if err != nil {
				res.check(false, "decode: %v", err)
			}
		}
		return tr.end(id)
	}
	parseQuery := func(p []byte) error { _, err := wire.UnmarshalQuery(p); return err }
	parseHit := func(p []byte) error { _, err := wire.UnmarshalQueryHit(p); return err }
	const passes = 200
	var encQ, encH, decQ, decH time.Duration
	for i := 0; i < passes; i++ {
		var bq, bh bytes.Buffer
		encQ += enc(queries, &bq)
		encH += enc(hits, &bh)
		decQ += dec(queries, bq.Bytes(), parseQuery)
		decH += dec(hits, bh.Bytes(), parseHit)
	}
	per := func(q, h time.Duration) float64 {
		nq := float64(q.Nanoseconds()) / float64(passes*len(queries))
		nh := float64(h.Nanoseconds()) / float64(passes*len(hits))
		return queryShare*nq + (1-queryShare)*nh
	}
	res.perLayer("wire.encode_ns_per_frame", "ns", per(encQ, encH))
	res.perLayer("wire.decode_ns_per_frame", "ns", per(decQ, decH))
}
