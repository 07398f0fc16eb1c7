package main

import (
	"time"

	"arq/internal/content"
	"arq/internal/obsv"
	"arq/internal/overlay"
	"arq/internal/peer"
	"arq/internal/peer/flat"
	"arq/internal/routing"
	"arq/internal/stats"
	"arq/internal/trace"
)

// overlay-assoc and overlay-flood: a GnutellaLike overlay with clustered
// content on flat.Engine, every node running routing.Assoc (with the
// default config: synchronous publish, local flood on a rule miss) or
// routing.Flood. One closed-loop client runs queries in whole rounds,
// cycling through a pool drawn from the seed.
//
// The overlay and its content are the deployment under test and come
// from overlaySeed; --seed draws the queries (warm-up and pool). Across
// seeds a generated graph alone moves flat.msgs_per_query by several
// percent, which would hide the changes the benchmark is there to see.
const (
	overlaySeed = 2006
	overlayTTL  = 7

	assocNodes = 5000
	assocWarm  = 150 // warm-up queries that fill the rule tables
	assocPool  = 2048
	assocRound = 4
	// set-ups before the timed phase and between its rounds
	assocSetups, assocSetupsBetween = 3, 4

	floodNodes                      = 100000
	floodPool                       = 512
	floodRound                      = 16
	floodSetups, floodSetupsBetween = 5, 12
)

// routerAcc accumulates the timing decorator's measurements. cur is the
// span of the query in flight, which router calls are folded into.
type routerAcc struct {
	tr                 *tracer
	on                 bool
	cur                int32
	routeNs, observeNs time.Duration
	routes, observes   int64
}

// timedRouter times Route and ObserveHit of the router it wraps. It
// implements neither peer.RouteAppender nor peer.Broadcaster, so it must
// only wrap routers that implement neither either (routing.Assoc): the
// engine then takes the same path with or without it.
type timedRouter struct {
	peer.Router
	acc *routerAcc
}

func (r timedRouter) Route(u, from int, q peer.Meta, nbrs []int32) []int32 {
	if !r.acc.on {
		return r.Router.Route(u, from, q, nbrs)
	}
	t0 := time.Now()
	out := r.Router.Route(u, from, q, nbrs)
	d := time.Since(t0)
	r.acc.routeNs += d
	r.acc.routes++
	r.acc.tr.child(r.acc.cur, d)
	return out
}

func (r timedRouter) ObserveHit(u, from int, q peer.Meta, via int) {
	if !r.acc.on {
		r.Router.ObserveHit(u, from, q, via)
		return
	}
	t0 := time.Now()
	r.Router.ObserveHit(u, from, q, via)
	d := time.Since(t0)
	r.acc.observeNs += d
	r.acc.observes++
	r.acc.tr.child(r.acc.cur, d)
}

type overlayNet struct {
	g      *overlay.Graph
	model  *content.Model
	eng    *flat.Engine
	assocs []*routing.Assoc
	phase  map[string]float64 // per-layer set-up times
}

// buildOverlay generates the overlay and content and builds the engine;
// with assoc, every node gets a routing.Assoc (wrapped in a timedRouter
// when acc is non-nil) and warm-up queries drawn from seed fill the
// rules.
func buildOverlay(seed uint64, n int, assoc bool, acc *routerAcc) *overlayNet {
	net := &overlayNet{phase: map[string]float64{}}
	rng := stats.NewRNG(overlaySeed)
	t0 := time.Now()
	net.g = overlay.GnutellaLike(rng, n)
	t1 := time.Now()
	net.model = content.BuildClustered(rng.Split(), net.g, content.DefaultConfig())
	t2 := time.Now()
	factory := func(int) peer.Router { return routing.Flood{} }
	if assoc {
		net.assocs = make([]*routing.Assoc, 0, n)
		factory = func(int) peer.Router {
			a := routing.NewAssoc(routing.DefaultAssocConfig())
			net.assocs = append(net.assocs, a)
			if acc != nil {
				return timedRouter{Router: a, acc: acc}
			}
			return a
		}
	}
	net.eng = flat.NewEngine(net.g, net.model, factory)
	t3 := time.Now()
	net.phase["overlay.build_s"] = t1.Sub(t0).Seconds()
	net.phase["content.build_s"] = t2.Sub(t1).Seconds()
	net.phase["flat.build_s"] = t3.Sub(t2).Seconds()
	if assoc {
		for _, j := range peer.DrawWorkload(stats.NewRNG(seed^0x5741524d), net.model, n, assocWarm) {
			net.eng.RunQuery(j.Origin, j.Category, overlayTTL)
		}
		net.phase["routing.warmup_s"] = time.Since(t3).Seconds()
	}
	return net
}

// queryRecord is what the checks need from one timed query.
type queryRecord struct {
	job int
	st  peer.Stats
}

type overlayParams struct {
	name                                string
	nodes, pool, round, setups, between int
	assoc                               bool
}

func overlayAssoc(cfg config) (*result, error) {
	return runOverlay(cfg, overlayParams{"overlay-assoc", assocNodes, assocPool, assocRound, assocSetups, assocSetupsBetween, true})
}

func overlayFlood(cfg config) (*result, error) {
	return runOverlay(cfg, overlayParams{"overlay-flood", floodNodes, floodPool, floodRound, floodSetups, floodSetupsBetween, false})
}

func runOverlay(cfg config, p overlayParams) (*result, error) {
	res := newResult()
	var tr *tracer
	var acc *routerAcc
	if cfg.trace {
		tr = newTracer()
		res.spans = tr
		if p.assoc {
			acc = &routerAcc{tr: tr}
		}
	}
	phases := map[string][]float64{}
	su := &setups[*overlayNet]{build: func() (*overlayNet, error) {
		n := buildOverlay(cfg.seed, p.nodes, p.assoc, acc)
		for k, v := range n.phase {
			phases[k] = append(phases[k], v)
		}
		return n, nil
	}, release: func(*overlayNet) {}, between: p.between}
	net, err := su.before(p.setups)
	if err != nil {
		return nil, err
	}
	jobs := peer.DrawWorkload(stats.NewRNG(cfg.seed^0x51554552), net.model, p.nodes, p.pool)
	res.note("%s: %d nodes, %d edges, TTL %d, pool of %d queries, rounds of %d",
		p.name, net.g.N(), net.g.M(), overlayTTL, p.pool, p.round)

	counters := []string{"routing.assoc.rule_routed", "routing.assoc.fallback_flood",
		"routing.assoc.strict_drops", "routing.assoc.flood_phase", "routing.assoc.stale_fallbacks",
		"core.publish.count"}
	pause := pauses{counters: counters}
	setupAgain := func() {
		if acc != nil {
			acc.on = false
		}
		pause.do(func() { err = su.again() })
	}
	c0 := readCounters(counters)
	rt0 := sampleRuntime()
	var records []queryRecord
	var plain, traced roundRates
	var plainMsgs, dups, reached, found int64
	// The run goes on for whole rounds until the time is up, but at least
	// once through the pool. flat.msgs_per_query and the heap are taken at the
	// end of that first pass, so they count the same queries however fast
	// the host is; assoc rules keep learning, so later passes would move
	// both with the run's length. The first pass is checked and its
	// records let go before the heap is sampled, so that the sample holds
	// the program's state and not the benchmark's.
	var passMsgs int64
	// A flood query's ball is the same on every pass; keeping the first
	// check's saves the search on later ones. Assoc checks need the
	// ball's depths, so they search again (balls is nil).
	var balls map[int]ball
	if !p.assoc {
		balls = map[int]ball{}
	}
	heap := -1.0
	next := 0
	start := time.Now()
	for rounds := 0; next < len(jobs) || (cfg.trace && rounds < 2) || (time.Since(start)-pause.d).Seconds() < cfg.seconds; rounds++ {
		on := cfg.trace && rounds%2 == 1
		if acc != nil {
			acc.on = on
		}
		t0 := time.Now()
		var msgs int64
		for i := 0; i < p.round; i++ {
			j := next % len(jobs)
			next++
			var span int32
			if on {
				span = tr.begin("flat.query", -1)
				if acc != nil {
					acc.cur = span
				}
			}
			st := net.eng.RunQuery(jobs[j].Origin, jobs[j].Category, overlayTTL)
			if on {
				tr.end(span)
			}
			msgs += int64(st.Total())
			dups += int64(st.Duplicates)
			reached += int64(st.NodesReached)
			if st.Found {
				found++
			}
			if !p.assoc {
				// Flood hits cover much of the overlay; the check needs
				// only their count.
				st.HitNodes = nil
			}
			records = append(records, queryRecord{j, st})
		}
		d := time.Since(t0)
		if on {
			traced.add(int64(p.round), d)
		} else {
			plain.add(int64(p.round), d)
			plainMsgs += msgs
		}
		if heap < 0 {
			passMsgs += msgs
			if next >= len(jobs) {
				pause.do(func() {
					checkOverlay(res, net, jobs, records, balls)
					records = nil
					heap = liveHeap()
				})
			}
		}
		if su.due((time.Since(start) - pause.d).Seconds() / cfg.seconds) {
			setupAgain()
		}
	}
	elapsed := time.Since(start) - pause.d
	for su.done < su.between && err == nil {
		setupAgain()
	}
	if err != nil {
		return nil, err
	}
	if acc != nil {
		acc.on = false
	}
	rt1 := sampleRuntime()
	c1 := readCounters(counters)
	pause.exclude(c1)
	res.endToEnd("setup_s", "s", su.median())
	for k, v := range phases {
		res.perLayer(k, "s", median(v))
	}
	queries := int64(next)
	res.attempted = queries

	res.endToEnd("ops_per_s", "1/s", plain.median())
	res.perLayer("flat.msgs_per_query", "msg", float64(passMsgs)/float64(len(jobs)))
	res.perLayer("runtime.heap_bytes_per_node", "B", heap/float64(p.nodes))
	res.note("%s: %d queries in %.2fs", p.name, queries, elapsed.Seconds())

	res.note("%s: %.4f of queries found a hit", p.name, float64(found)/float64(queries))
	res.perLayer("flat.dups_per_query", "msg", float64(dups)/float64(queries))
	res.perLayer("flat.nodes_reached_per_query", "count", float64(reached)/float64(queries))
	res.perLayer("flat.ns_per_msg", "ns", float64(plain.d.Nanoseconds())/float64(plainMsgs))
	reportRuntime(res, rt0, rt1, pause, queries)
	if p.assoc {
		routed := c1[0] - c0[0]
		all := routed + c1[1] - c0[1] + c1[2] - c0[2] + c1[3] - c0[3] + c1[4] - c0[4]
		if all > 0 {
			res.perLayer("routing.rule_routed_share", "ratio", float64(routed)/float64(all))
		}
		res.perLayer("core.publishes_per_query", "count", float64(c1[5]-c0[5])/float64(queries))
		rules := 0
		for _, a := range net.assocs {
			rules += a.RuleCount()
		}
		res.perLayer("routing.rules_per_node", "count", float64(rules)/float64(p.nodes))
	}
	if cfg.trace {
		_, self, n := tr.total("flat.query")
		res.perLayer("flat.self_us_per_query", "us", self.Seconds()*1e6/float64(n))
		if acc != nil && acc.routes > 0 {
			res.perLayer("routing.route_ns", "ns", float64(acc.routeNs.Nanoseconds())/float64(acc.routes))
			res.perLayer("routing.routes_per_query", "count", float64(acc.routes)/float64(n))
		}
		if acc != nil && acc.observes > 0 {
			res.perLayer("routing.observe_ns", "ns", float64(acc.observeNs.Nanoseconds())/float64(acc.observes))
			res.perLayer("routing.observes_per_query", "count", float64(acc.observes)/float64(n))
		}
		overhead(res, plain.median(), traced.median())
	}

	checkOverlay(res, net, jobs, records, balls)
	return res, nil
}

func readCounters(names []string) []int64 {
	out := make([]int64, len(names))
	for i, n := range names {
		out[i] = obsv.GetCounter(n).Value()
	}
	return out
}

// ball is what an independent TTL-bounded flood from one origin reaches.
type ball struct {
	reached   int
	queryMsgs int
	hits      int
	hitMsgs   int
	found     bool
}

// floodBall runs a breadth-first search from origin over g to depth ttl,
// leaving each node's depth (-1 outside the ball) in depth; queue is
// scratch space.
// A node at depth d < ttl forwards to every neighbor but the one it
// heard the query from (all neighbors at the origin); a node other than
// the origin that hosts cat is a hit whose reply travels d hops back.
func floodBall(g *overlay.Graph, model *content.Model, origin int, cat trace.InterestID, ttl int, depth, queue []int32) ball {
	for i := range depth {
		depth[i] = -1
	}
	var b ball
	depth[origin] = 0
	queue = append(queue[:0], int32(origin))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		d := depth[u]
		b.reached++
		if u != origin && hosts(model, u, cat) {
			b.hits++
			b.hitMsgs += int(d)
			b.found = true
		}
		if int(d) >= ttl {
			continue
		}
		nb := g.Neighbors(u)
		b.queryMsgs += len(nb)
		if u != origin {
			b.queryMsgs--
		}
		for _, v := range nb {
			if depth[v] < 0 {
				depth[v] = d + 1
				queue = append(queue, v)
			}
		}
	}
	return b
}

func hosts(model *content.Model, u int, cat trace.InterestID) bool {
	for _, c := range model.HostedCategories(u) {
		if c == cat {
			return true
		}
	}
	return false
}

// checkOverlay compares every timed query with an independent flood
// from the same origin, after checking that its messages are conserved.
// With balls non-nil the queries are floods, whose balls it takes from and
// adds to balls. A flood must match its ball exactly; an assoc query
// forwards a subset of what a flood would, so it may not send more query
// messages or reach more nodes, and each of its hits must be a distinct
// node inside the ball, other than the origin, that hosts the category.
func checkOverlay(res *result, net *overlayNet, jobs []peer.WorkloadJob, records []queryRecord, balls map[int]ball) {
	byJob := map[int][]peer.Stats{}
	for _, r := range records {
		byJob[r.job] = append(byJob[r.job], r.st)
	}
	assoc := balls == nil
	depth, queue := make([]int32, net.g.N()), make([]int32, 0, net.g.N())
	for job, sts := range byJob {
		j := jobs[job]
		b, ok := balls[job]
		if !ok {
			b = floodBall(net.g, net.model, j.Origin, j.Category, overlayTTL, depth, queue)
			if !assoc {
				balls[job] = b
			}
		}
		for _, st := range sts {
			// Every copy sent arrives once: as a first receipt or as a
			// duplicate. The origin's own receipt is the one unsent copy.
			res.check(st.NodesReached+st.Duplicates == st.QueryMessages+1,
				"query %d: %d reached + %d duplicates != %d query messages + 1",
				job, st.NodesReached, st.Duplicates, st.QueryMessages)
			if !assoc {
				res.check(st.NodesReached == b.reached && st.QueryMessages == b.queryMsgs &&
					st.Found == b.found && st.Hits == b.hits && st.HitMessages == b.hitMsgs,
					"flood query %d (origin %d, category %d): engine reach=%d msgs=%d found=%v hits=%d hitmsgs=%d, BFS reach=%d msgs=%d found=%v hits=%d hitmsgs=%d",
					job, j.Origin, j.Category, st.NodesReached, st.QueryMessages, st.Found, st.Hits, st.HitMessages,
					b.reached, b.queryMsgs, b.found, b.hits, b.hitMsgs)
				continue
			}
			res.check(st.QueryMessages <= b.queryMsgs && st.NodesReached <= b.reached,
				"assoc query %d: %d query messages / %d nodes exceed the flood bound %d / %d",
				job, st.QueryMessages, st.NodesReached, b.queryMsgs, b.reached)
			res.check(st.Hits == len(st.HitNodes) && st.Found == (st.Hits > 0),
				"assoc query %d: hits=%d, %d hit nodes, found=%v", job, st.Hits, len(st.HitNodes), st.Found)
			distinct := map[int32]bool{}
			for _, u := range st.HitNodes {
				res.check(int(u) != j.Origin && depth[u] >= 0 && hosts(net.model, int(u), j.Category) && !distinct[u],
					"assoc query %d: hit node %d does not host category %d within TTL of origin %d, or repeats",
					job, u, j.Category, j.Origin)
				distinct[u] = true
			}
		}
	}
}
