package main

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"dbo/internal/market"
	"dbo/internal/metrics"
	"dbo/internal/node"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

// The live-cluster workload: 1 CES and liveMPs participants in one
// process on loopback. Market data crosses UDP, the reverse path framed
// TCP. The CES feed is open loop at a nominal liveTick and every MP
// answers every point at once, so each tick is one two-way race.
const (
	liveMPs   = 2
	liveTick  = time.Millisecond // this host's timers fire ≈1 ms late; keep ≥ 500 µs
	liveTicks = 1000             // ticks per cluster; a run repeats clusters
	liveDelta = 100 * time.Microsecond
	liveTau   = 200 * time.Microsecond
	// liveSlowRT is the slower responder's intended response time.
	liveSlowRT = 300 * time.Microsecond
	// liveGrace bounds how long after its last due tick a cluster may
	// still be forwarding before the run counts its trades as failed.
	liveGrace = 5 * time.Second
	// liveWarmup is how many leading points of a cluster are not scored.
	liveWarmup = 100
	// liveFlightRing is the bounded flight ring of each node.
	liveFlightRing = 4096
)

// liveResult is one cluster's outcome.
type liveResult struct {
	setup     time.Duration // construction + Start until the first point
	d         delta         // the trading run, after set-up
	expected  int
	forwarded []*market.Trade
	gen       map[market.PointID]sim.Time // CES generation stamp per point
	points    []market.DataPoint          // delivered to participant 1, when captured
	onTime    bool
	ces       *metrics.Registry
	mps       []*metrics.Registry
	execs     []wire.Exec // fills seen by participant 1
}

// liveCluster boots, runs and stops one cluster of ticks points. seed
// drives the feed's quote process. Production observability (flight
// rings and auditors on every node) is always on; capture additionally
// records the message mix for the traced run.
func liveCluster(seed uint64, ticks int, capture bool) (*liveResult, error) {
	res := &liveResult{expected: liveMPs * ticks}
	// The node loops write these under mu; the result gets copies, so
	// a callback still running after Stop touches nothing it returns.
	var (
		mu     sync.Mutex
		gen    = make(map[market.PointID]sim.Time, ticks)
		points []market.DataPoint
		execs  []wire.Exec
	)
	done := make(chan struct{})
	forwarded := 0 // CES loop goroutine only

	// The collection also wakes the idle CPU: straight after the
	// single-threaded reference kernel, a set-up took three times as long.
	runtime.GC()
	start := time.Now()
	ces, err := node.NewCES(node.CESConfig{
		Listen:       "127.0.0.1:0",
		TickInterval: liveTick,
		Ticks:        ticks,
		Delta:        liveDelta,
		Kappa:        0.25,
		Tau:          liveTau,
		FeedSeed:     seed,
		OnForward: func(*market.Trade) {
			if forwarded++; forwarded == res.expected {
				close(done)
			}
		},
		Flight:  newFlightRing(),
		Auditor: newAuditor(0), // fairness only; pacing is audited where delivery happens
	})
	if err != nil {
		return nil, err
	}
	defer ces.Stop()
	var addrs []node.MPAddr
	for i := 1; i <= liveMPs; i++ {
		id := market.ParticipantID(i)
		cfg := node.MPConfig{
			ID:       id,
			Listen:   "127.0.0.1:0",
			CES:      ces.Addr().String(),
			CESTCP:   ces.TCPAddr().String(),
			Delta:    liveDelta,
			Tau:      liveTau,
			Strategy: answerEvery(id),
			Flight:   newFlightRing(),
			Auditor:  newAuditor(sim.FromDuration(liveDelta)),
		}
		if i == 1 {
			cfg.OnDeliver = func(b *market.Batch) {
				mu.Lock()
				defer mu.Unlock()
				for _, dp := range b.Points {
					gen[dp.ID] = dp.Gen
					if capture {
						points = append(points, dp)
					}
				}
			}
			if capture {
				cfg.OnExec = func(e wire.Exec) {
					mu.Lock()
					defer mu.Unlock()
					execs = append(execs, e)
				}
			}
		}
		mp, err := node.StartMP(cfg)
		if err != nil {
			return nil, err
		}
		defer mp.Stop()
		res.mps = append(res.mps, mp.Metrics())
		addrs = append(addrs, node.MPAddr{ID: id, Addr: mp.Addr().String()})
	}
	if err := ces.Start(addrs); err != nil {
		return nil, err
	}
	res.ces = ces.Metrics()
	generated := res.ces.Counter("data_points")
	for generated.Value() == 0 {
		if time.Since(start) > liveGrace {
			return nil, fmt.Errorf("live: no point generated within %v", liveGrace)
		}
		runtime.Gosched()
	}
	res.setup = time.Since(start)

	begin := readUsage()
	select {
	case <-done:
		res.onTime = true
	case <-time.After(time.Duration(ticks)*liveTick + liveGrace - time.Since(start)):
	}
	res.d = readUsage().since(begin)
	res.forwarded = ces.Forwarded()
	mu.Lock()
	defer mu.Unlock()
	res.gen = maps.Clone(gen)
	res.points = slices.Clone(points)
	res.execs = slices.Clone(execs)
	return res, nil
}

// answerEvery is a participant that trades every delivered point,
// alternating sides so the book keeps matching. The participants take
// turns answering at once or after liveSlowRT, so every race has a
// winner by a margin far above the µs skew between the response time a
// trade reports and the delivery-clock elapsed its RB tags.
func answerEvery(id market.ParticipantID) node.Strategy {
	return func(dp market.DataPoint) (bool, time.Duration, market.Side, int64, int64) {
		side, rt := market.Buy, time.Duration(0)
		if (int(id)+int(dp.ID))%2 == 0 {
			side, rt = market.Sell, liveSlowRT
		}
		return true, rt, side, dp.Price, 1
	}
}

// liveGate checks one cluster: every expected trade forwarded exactly
// once, one per participant per point, before the deadline. It returns
// the number of trades that count as failed and the problems found.
func liveGate(r *liveResult) (int, []string) {
	var bad []string
	if !r.onTime {
		bad = append(bad, fmt.Sprintf("%d of %d trades forwarded before the deadline", len(r.forwarded), r.expected))
	}
	seen := make(map[market.TradeKey]bool, len(r.forwarded))
	perPoint := make(map[market.PointID]int, r.expected/liveMPs)
	for _, t := range r.forwarded {
		if seen[t.Key()] {
			bad = append(bad, fmt.Sprintf("trade %v forwarded twice", t.Key()))
			continue
		}
		seen[t.Key()] = true
		perPoint[t.Trigger]++
	}
	for p, n := range perPoint {
		if n != liveMPs {
			bad = append(bad, fmt.Sprintf("point %d has %d trades, want %d", p, n, liveMPs))
			break
		}
	}
	if len(perPoint) != r.expected/liveMPs {
		bad = append(bad, fmt.Sprintf("%d points traded, want %d", len(perPoint), r.expected/liveMPs))
	}
	return r.expected - len(seen), bad
}

// liveLatencies is each scored trade's latency in µs, Equation 8 on the
// CES clock: Forwarded minus the CES generation stamp of its trigger
// minus the response time. Trades triggered by the first liveWarmup
// points are not scored, as the simulations skip their warm-up.
func liveLatencies(r *liveResult) []float64 {
	out := make([]float64, 0, len(r.forwarded))
	for _, t := range r.forwarded {
		if g, ok := r.gen[t.Trigger]; ok && t.Trigger > liveWarmup {
			out = append(out, (t.Forwarded - g - t.RT).Micros())
		}
	}
	return out
}

// raceFairness scores §6.1 pairwise fairness over the forwarded log with
// races ordered by the measured response times the trades carry: a
// pair is fair when the faster responder was forwarded first.
func raceFairness(log []*market.Trade) (fair, pairs int) {
	byRace := make(map[market.PointID][]int)
	for i, t := range log {
		byRace[t.Trigger] = append(byRace[t.Trigger], i)
	}
	for _, race := range byRace {
		for a := 0; a < len(race); a++ {
			for b := a + 1; b < len(race); b++ {
				ta, tb := log[race[a]], log[race[b]]
				if ta.RT == tb.RT || ta.MP == tb.MP {
					continue
				}
				pairs++
				if (ta.RT < tb.RT) == (race[a] < race[b]) {
					fair++
				}
			}
		}
	}
	return fair, pairs
}

// runLive is the live-cluster workload: clusters of liveTicks points
// back to back until the budget is spent, with liveSetups one-tick
// set-ups spread among them. Rates and allocations are medians over
// clusters. CPU per trade pools every cluster, because a cluster's
// share of garbage collections varies; so do the latency quantiles.
func runLive(o opts, rep *report) error {
	if o.trace {
		return traceLive(o, rep)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var setups, tps, allocs, bytes, lat []float64
	var cpu time.Duration // at the reference speed, over all clusters
	fair, pairs, delivered, forwarded := 0, 0, 0, 0
	speed := newSpeedProbe()
	for i := 0; len(tps) < 3 || len(setups) < liveSetups || time.Since(start) < budget; {
		if setupDue(len(setups), liveSetups, time.Since(start), budget) {
			// A set-up is node construction and Start until the first
			// point is generated, timed on a one-tick cluster.
			r, err := liveCluster(o.seed+uint64(len(setups)), 1, false)
			if err != nil {
				return err
			}
			setups = append(setups, r.setup.Seconds())
			continue
		}
		r, err := liveCluster(o.seed+uint64(i), liveTicks, false)
		if err != nil {
			return err
		}
		kernel := speed.next()
		i++
		failed := gateLive(r, rep)
		delivered += r.expected - failed
		n := len(r.forwarded)
		tps = append(tps, float64(n)/r.d.wall.Seconds())
		cpu += atRef(r.d.cpu, kernel)
		forwarded += n
		allocs = append(allocs, perTrade(float64(r.d.mallocs), n))
		bytes = append(bytes, perTrade(float64(r.d.bytes), n))
		lat = append(lat, liveLatencies(r)...)
		f, p := raceFairness(r.forwarded)
		fair, pairs = fair+f, pairs+p
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("trades_per_s", "1/s", median(tps))
	rep.set("cpu_us_per_trade", "us", perTrade(float64(cpu.Microseconds()), forwarded))
	rep.set("allocs_per_trade", "count", median(allocs))
	rep.set("bytes_per_trade", "B", median(bytes))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	rep.set("latency_p50_us", "us", quantile(lat, 0.5))
	rep.set("latency_p90_us", "us", quantile(lat, 0.9))
	rep.set("fairness", "ratio", float64(fair)/float64(max(pairs, 1)))
	rep.set("delivered_frac", "ratio", float64(delivered)/float64(rep.Attempted))
	fmt.Fprintf(os.Stderr, "perfbench: live-cluster: %d clusters of %d trades, trades/s %.0f\n",
		len(tps), liveMPs*liveTicks, tps)
	return nil
}

// liveSetups is how many set-ups a timed live run makes.
const liveSetups = 50

// gateLive applies liveGate to one cluster and adds its trades to the
// attempted/failed counts; it returns the trades that failed.
func gateLive(r *liveResult, rep *report) int {
	failed, problems := liveGate(r)
	rep.Attempted += r.expected
	rep.Failed += failed
	for _, p := range problems {
		rep.fail(p)
	}
	return failed
}

// traceLive is the traced run of the live cluster: an untraced
// reference cluster, then a capturing cluster whose message mix,
// forwarded log and node registries feed the ledger.
func traceLive(o opts, rep *report) error {
	ref, err := liveCluster(o.seed, liveTicks, false)
	if err != nil {
		return err
	}
	traced, err := liveCluster(o.seed, liveTicks, true)
	if err != nil {
		return err
	}
	gateLive(ref, rep)
	gateLive(traced, rep)
	n := len(traced.forwarded)
	ces := traced.ces
	count := func(name string) float64 { return float64(ces.Counter(name).Value()) }
	hist := func(reg *metrics.Registry, name string) metrics.HistSnapshot {
		return reg.Histogram(name).Snapshot()
	}
	us := func(s metrics.HistSnapshot, q float64) float64 { return float64(s.Quantile(q)) / 1e3 }

	fills := 0.0
	gaps := metrics.HistSnapshot{}
	for i, mp := range traced.mps {
		fills += float64(mp.Counter("fills").Value())
		if i == 0 {
			gaps = hist(mp, "delivery_gap_ns")
		} else {
			gaps = gaps.Merge(hist(mp, "delivery_gap_ns"))
		}
	}
	beats := int(count("heartbeats_received"))
	msgs := count("data_points")*liveMPs + count("trades_received") + float64(beats) +
		count("retx_requests") + fills

	// The wire mix: every point once per participant, every trade, as
	// many heartbeats as the CES received (stamped with the trades'
	// clocks) and the fills.
	var mix []any
	for i := 0; i < liveMPs; i++ {
		for _, dp := range traced.points {
			mix = append(mix, dp)
		}
	}
	for _, t := range traced.forwarded {
		mix = append(mix, t)
	}
	for i := 0; i < beats && n > 0; i++ {
		t := traced.forwarded[i%n]
		mix = append(mix, market.Heartbeat{MP: t.MP, DC: t.DC, Sent: t.Submitted})
	}
	for i := 0; i < int(fills) && len(traced.execs) > 0; i++ {
		mix = append(mix, traced.execs[i%len(traced.execs)])
	}
	wc := replayWire(mix, rep)
	lobNS, lobAllocs := replayLOB(traced.forwarded, int(count("executions")), rep)
	fairNS := replayFairness(0, traced.gen, traced.forwarded, -1, rep)

	var first, last sim.Time = -1, 0
	for _, g := range traced.gen {
		if first < 0 || g < first {
			first = g
		}
		last = max(last, g)
	}
	feedRatio := 0.0
	if len(traced.gen) > 1 && last > first {
		nominal := sim.FromDuration(liveTick) * sim.Time(len(traced.gen)-1)
		feedRatio = float64(nominal) / float64(last-first)
	}

	refCPU := perTrade(float64(ref.d.cpu.Microseconds()), len(ref.forwarded))
	msgsPerTrade := perTrade(msgs, n)
	covered := (msgsPerTrade*(wc.encodeNS+wc.decodeNS) + lobNS + fairNS) / 1e3
	hold := hist(ces, "ob_hold_ns")

	rep.set("core.rb_heartbeats_per_trade", "count", perTrade(float64(beats), n))
	rep.set("core.ob_hold_us_p50", "us", us(hold, 0.5))
	rep.set("core.ob_hold_us_p99", "us", us(hold, 0.99))
	rep.set("core.straggler_events", "count", count("straggler_transitions"))
	rep.set("core.retx_requests", "count", count("retx_requests"))
	rep.set("lob.ns_per_submit", "ns", lobNS)
	rep.set("lob.allocs_per_submit", "count", lobAllocs)
	rep.set("fairness.ns_per_trade", "ns", fairNS)
	rep.set("wire.encode_ns_per_msg", "ns", wc.encodeNS)
	rep.set("wire.decode_ns_per_msg", "ns", wc.decodeNS)
	rep.set("wire.allocs_per_msg", "count", wc.allocs)
	rep.set("node.msgs_per_trade", "count", msgsPerTrade)
	rep.set("node.feed_rate_ratio", "ratio", feedRatio)
	rep.set("node.delivery_gap_us_p50", "us", us(gaps, 0.5))
	rep.set("node.hb_staleness_us_p50", "us", us(hist(ces, "hb_staleness_ns"), 0.5))
	rep.set("node.response_us_p50", "us", us(hist(ces, "response_ns"), 0.5))
	rep.set("node.ob_hold_us_p50", "us", us(hold, 0.5))
	rep.set("node.ob_hold_us_p99", "us", us(hold, 0.99))
	rep.set("node.latency_p99_us", "us", quantile(liveLatencies(ref), 0.99))
	rep.set("go.gc_cpu_frac", "ratio", ref.d.gcFrac)
	rep.set("reconcile.covered_frac", "ratio", covered/refCPU)
	refTPS := float64(len(ref.forwarded)) / ref.d.wall.Seconds()
	tracedTPS := float64(n) / traced.d.wall.Seconds()
	rep.set("tracing.overhead_frac", "ratio", refTPS/tracedTPS-1)
	rep.set("flight.on_cost_frac", "ratio", flightOnCost(o.seed))
	rep.set("host.ref_ms", "ms", refMS(5))
	bypassed(rep, simOnlyMetrics)
	return nil
}
