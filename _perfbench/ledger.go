package main

import (
	"fmt"
	"runtime"
	"time"

	"dbo/internal/core"
	"dbo/internal/exchange"
	"dbo/internal/fairness"
	"dbo/internal/lob"
	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/trace"
	"dbo/internal/wire"
)

// The per-layer ledger. A traced run records one span per hop from the
// benchmark's side of the public hooks, captures each layer's input
// stream, and replays every stream through the layer's public API on a
// fresh instance, timing each layer on its own.

// upstreamMsg is one reverse-path message as it reached the CES.
type upstreamMsg struct {
	at    sim.Time
	trade *market.Trade // a copy; nil for heartbeats
	beat  market.Heartbeat
}

// simCapture is what a traced simulation records through exchange.Hooks.
type simCapture struct {
	gen      map[market.PointID]sim.Time // point → CES generation time
	points   []market.DataPoint          // each generated point once
	upstream []upstreamMsg               // in arrival order
	revSent  int                         // messages the RBs put on the reverse path
	ingress  map[market.TradeKey]sim.Time

	// Per-hop spans, simulated µs: generation → RB delivery (per MP and
	// point), tag → CES ingress, CES ingress → release.
	fwd, rev, hold []float64
}

// tracedConfig installs the capturing hooks on cfg.
func tracedConfig(cfg exchange.Config, c *simCapture) exchange.Config {
	cfg.KeepTrades = true
	h := &cfg.Hooks
	h.OnBatch = func(_ int, b *market.Batch, at sim.Time) {
		for _, dp := range b.Points {
			if _, seen := c.gen[dp.ID]; !seen {
				c.gen[dp.ID] = dp.Gen
				c.points = append(c.points, dp)
			}
			c.fwd = append(c.fwd, (at - dp.Gen).Micros())
		}
	}
	h.OnTag = func(int, any) { c.revSent++ }
	h.OnUpstream = func(v any, at sim.Time) {
		switch m := v.(type) {
		case *market.Trade:
			t := *m
			c.upstream = append(c.upstream, upstreamMsg{at: at, trade: &t})
			c.ingress[m.Key()] = at
			c.rev = append(c.rev, (at - m.Submitted).Micros())
		case market.Heartbeat:
			c.upstream = append(c.upstream, upstreamMsg{at: at, beat: m})
		}
	}
	h.OnRelease = func(t *market.Trade) {
		c.hold = append(c.hold, (t.Forwarded - c.ingress[t.Key()]).Micros())
	}
	return cfg
}

// traceSim is the traced run of a simulation workload.
func traceSim(spec simSpec, o opts, rep *report) error {
	genMS, buildMS, buildMB, tr := measureLayersSetup(spec, o.seed)
	cfg := spec.config(o.seed, tr)

	ref := timedRun(cfg)
	gateRun(spec, ref, ref, rep)

	c := &simCapture{gen: make(map[market.PointID]sim.Time), ingress: make(map[market.TradeKey]sim.Time)}
	traced := timedRun(tracedConfig(cfg, c))
	gateRun(spec, traced, ref, rep)
	res := traced.res
	n := traced.forwarded

	ob := replayOB(cfg, c, res.TradeLog, rep)
	lobNS, lobAllocs := replayLOB(res.TradeLog, res.Executions, rep)
	fairNS := replayFairness(cfg.Warmup, c.gen, res.TradeLog, res.Fairness, rep)
	var mix []any
	for i := 0; i < cfg.N; i++ { // every point crosses N forward links
		for _, dp := range c.points {
			mix = append(mix, dp)
		}
	}
	for _, u := range c.upstream {
		if u.trade != nil {
			mix = append(mix, u.trade)
		} else {
			mix = append(mix, u.beat)
		}
	}
	wc := replayWire(mix, rep)

	var holds []float64
	for _, t := range res.TradeLog {
		holds = append(holds, (t.Forwarded - t.Enqueued).Micros())
	}
	refCPU := perTrade(float64(ref.d.cpu.Microseconds()), ref.forwarded)
	obPerTrade := ob.usPerMsg * float64(len(c.upstream)) / float64(n)
	covered := obPerTrade + (lobNS+fairNS)/1e3

	rep.set("trace.generate_ms", "ms", genMS)
	rep.set("exchange.build_ms", "ms", buildMS)
	rep.set("exchange.build_mb", "MB", buildMB)
	rep.set("netsim.packets_per_trade", "count", perTrade(float64(res.DataPoints*cfg.N+res.DupPackets+c.revSent), n))
	rep.set("core.rb_heartbeats_per_trade", "count", perTrade(float64(res.HeartbeatsSent), n))
	rep.set("core.ob_us_per_msg", "us", ob.usPerMsg)
	rep.set("core.ob_allocs_per_msg", "count", ob.allocsPerMsg)
	rep.set("core.ob_hold_us_p50", "us", quantile(holds, 0.5))
	rep.set("core.ob_hold_us_p99", "us", quantile(holds, 0.99))
	rep.set("core.straggler_events", "count", float64(res.StragglerEvents))
	rep.set("core.retx_requests", "count", float64(res.RetxRequests))
	rep.set("lob.ns_per_submit", "ns", lobNS)
	rep.set("lob.allocs_per_submit", "count", lobAllocs)
	rep.set("fairness.ns_per_trade", "ns", fairNS)
	rep.set("hop.fwd_us_p50", "us", quantile(c.fwd, 0.5))
	rep.set("hop.fwd_us_p99", "us", quantile(c.fwd, 0.99))
	rep.set("hop.rev_us_p50", "us", quantile(c.rev, 0.5))
	rep.set("hop.rev_us_p99", "us", quantile(c.rev, 0.99))
	rep.set("hop.ob_hold_us_p50", "us", quantile(c.hold, 0.5))
	rep.set("hop.ob_hold_us_p99", "us", quantile(c.hold, 0.99))
	rep.set("exchange.latency_p99_us", "us", res.Latency.P99.Micros())
	rep.set("exchange.latency_p999_us", "us", res.Latency.P999.Micros())
	rep.set("sim.residual_us_per_trade", "us", refCPU-covered)
	rep.set("wire.encode_ns_per_msg", "ns", wc.encodeNS)
	rep.set("wire.decode_ns_per_msg", "ns", wc.decodeNS)
	rep.set("wire.allocs_per_msg", "count", wc.allocs)
	rep.set("go.gc_cpu_frac", "ratio", ref.d.gcFrac)
	rep.set("reconcile.covered_frac", "ratio", covered/refCPU)
	refTPS := float64(ref.forwarded) / ref.d.wall.Seconds()
	tracedTPS := float64(n) / traced.d.wall.Seconds()
	rep.set("tracing.overhead_frac", "ratio", refTPS/tracedTPS-1)
	rep.set("flight.on_cost_frac", "ratio", flightOnCost(o.seed))
	rep.set("host.ref_ms", "ms", refMS(5))
	bypassed(rep, nodeMetrics)
	return nil
}

// measureLayersSetup splits spec's set-up into trace generation and
// the harness build of a one-tick run (median ms, median MB allocated).
// It returns the last generated trace.
func measureLayersSetup(spec simSpec, seed uint64) (genMS, buildMS, buildMB float64, tr *trace.Trace) {
	var gens, builds, mbs []float64
	for i := 0; i < spec.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		tr = traceGenerate(seed)
		gens = append(gens, float64(time.Since(t0).Nanoseconds())/1e6)
		runtime.GC()
		start := readUsage()
		exchange.Run(oneTick(spec.config(seed, tr)))
		d := readUsage().since(start)
		builds = append(builds, float64(d.wall.Nanoseconds())/1e6)
		mbs = append(mbs, float64(d.bytes)/(1<<20))
	}
	return median(gens), median(builds), median(mbs), tr
}

// obReplay is the OB's own cost over the captured upstream stream.
type obReplay struct {
	usPerMsg, allocsPerMsg float64
}

// replayOB feeds the captured upstream stream, at its arrival times,
// into a fresh ordering buffer built like the harness builds it (same
// participants, straggler cap and threshold policy; sharded when the
// workload shards), driven by a sim.Kernel that also runs the τ
// maintenance ticks. The same kernel schedule with empty deliveries is
// the baseline subtracted from the timing. The replay must forward
// every trade the run forwarded.
func replayOB(cfg exchange.Config, c *simCapture, log []*market.Trade, rep *report) obReplay {
	type sink interface {
		OnTrade(*market.Trade)
		OnHeartbeat(market.Heartbeat)
		Tick()
	}
	genTime := func(p market.PointID) sim.Time { return c.gen[p] }
	parts := make([]market.ParticipantID, cfg.N)
	for i := range parts {
		parts[i] = market.ParticipantID(i + 1)
	}
	tau, horizon := cfg.Tau, cfg.Duration+cfg.Drain

	run := func(withOB bool) (delta, int) {
		trades := make([]*market.Trade, 0, len(log))
		for _, u := range c.upstream {
			if u.trade != nil {
				t := *u.trade
				trades = append(trades, &t)
			}
		}
		k := sim.NewKernel(cfg.Seed)
		forwarded := 0
		var ob sink
		if withOB {
			var policy core.ThresholdPolicy
			if cfg.Adaptive != nil {
				policy = core.NewAdaptiveThreshold(*cfg.Adaptive, cfg.StragglerRTT)
			}
			fwd := func(*market.Trade) { forwarded++ }
			if cfg.OBShards > 1 {
				ob = core.NewShardedOB(core.ShardedOBConfig{
					Participants: parts, NumShards: cfg.OBShards, Sched: k, Forward: fwd,
					StragglerRTT: cfg.StragglerRTT, Threshold: policy, GenTime: genTime,
				})
			} else {
				ob = core.NewOrderingBuffer(core.OrderingBufferConfig{
					Participants: parts, Sched: k, Forward: fwd,
					StragglerRTT: cfg.StragglerRTT, Threshold: policy, GenTime: genTime,
				})
			}
		}
		k.Every(tau, tau, func() bool {
			if ob != nil {
				ob.Tick()
			}
			return k.Now() < horizon
		})
		next, ti := 0, 0
		var step func()
		step = func() {
			for next < len(c.upstream) && c.upstream[next].at == k.Now() {
				u := c.upstream[next]
				next++
				if u.trade != nil {
					t := trades[ti]
					ti++
					if ob != nil {
						ob.OnTrade(t)
					}
				} else if ob != nil {
					ob.OnHeartbeat(u.beat)
				}
			}
			if next < len(c.upstream) {
				k.At(c.upstream[next].at, step)
			}
		}
		if len(c.upstream) > 0 {
			k.At(c.upstream[0].at, step)
		}
		runtime.GC()
		start := readUsage()
		k.RunUntil(horizon)
		return readUsage().since(start), forwarded
	}

	var us, allocs []float64
	msgs := float64(max(len(c.upstream), 1))
	for i := 0; i < 3; i++ {
		base, _ := run(false)
		full, forwarded := run(true)
		if forwarded != len(log) {
			rep.fail(fmt.Sprintf("OB replay forwarded %d trades, the run %d", forwarded, len(log)))
		}
		us = append(us, float64((full.wall-base.wall).Nanoseconds())/1e3/msgs)
		allocs = append(allocs, (float64(full.mallocs)-float64(base.mallocs))/msgs)
	}
	return obReplay{usPerMsg: median(us), allocsPerMsg: median(allocs)}
}

// replayLOB submits the forwarded log, in order and as the harness
// does, to a fresh matching engine. It must reproduce the run's
// execution count.
func replayLOB(log []*market.Trade, wantExecs int, rep *report) (nsPerSubmit, allocsPerSubmit float64) {
	var ns, allocs []float64
	for i := 0; i < 3; i++ {
		e := lob.NewEngine()
		execs := 0
		runtime.GC()
		start := readUsage()
		for _, t := range log {
			side := lob.Buy
			if t.Side == market.Sell {
				side = lob.Sell
			}
			_, ex, err := e.Submit(t.Symbol, int32(t.MP), side, t.Price, t.Qty)
			if err != nil {
				rep.fail(fmt.Sprintf("LOB replay: %v", err))
				return 0, 0
			}
			execs += len(ex)
		}
		d := readUsage().since(start)
		if execs != wantExecs {
			rep.fail(fmt.Sprintf("LOB replay made %d executions, the run %d", execs, wantExecs))
		}
		ns = append(ns, perTrade(float64(d.wall.Nanoseconds()), len(log)))
		allocs = append(allocs, perTrade(float64(d.mallocs), len(log)))
	}
	return median(ns), median(allocs)
}

// replayFairness scores the forwarded log (trades triggered at or after
// warmup) with a fresh fairness.Tracker. It must reproduce the run's
// fairness when want ≥ 0.
func replayFairness(warmup sim.Time, gen map[market.PointID]sim.Time, log []*market.Trade, want float64, rep *report) float64 {
	var ns []float64
	for i := 0; i < 3; i++ {
		tr := fairness.NewTracker()
		scored := 0
		runtime.GC()
		t0 := time.Now()
		for _, t := range log {
			if gen[t.Trigger] >= warmup {
				tr.Record(t)
				scored++
			}
		}
		got := tr.Fairness()
		ns = append(ns, perTrade(float64(time.Since(t0).Nanoseconds()), scored))
		if want >= 0 && got != want {
			rep.fail(fmt.Sprintf("fairness replay %v, the run %v", got, want))
		}
	}
	return median(ns)
}

// wireCost is the codec's cost per message over a message mix.
type wireCost struct {
	encodeNS, decodeNS, allocs float64
}

// replayWire encodes every message of mix with wire.Append and decodes
// it with wire.Decode, the calls the live transport makes; the decoded
// message type must match.
func replayWire(mix []any, rep *report) wireCost {
	if len(mix) == 0 {
		return wireCost{}
	}
	frames := make([][]byte, len(mix))
	var enc, dec, allocs []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := readUsage()
		for j, m := range mix {
			b, err := wire.Append(frames[j][:0], m)
			if err != nil {
				rep.fail(fmt.Sprintf("wire replay: %v", err))
				return wireCost{}
			}
			frames[j] = b
		}
		mid := readUsage()
		for j, f := range frames {
			v, err := wire.Decode(f)
			if err != nil || fmt.Sprintf("%T", v) != fmt.Sprintf("%T", mix[j]) {
				rep.fail(fmt.Sprintf("wire replay: decoded %T (%v), sent %T", v, err, mix[j]))
				return wireCost{}
			}
		}
		end := readUsage()
		e, d := mid.since(start), end.since(mid)
		enc = append(enc, perTrade(float64(e.wall.Nanoseconds()), len(mix)))
		dec = append(dec, perTrade(float64(d.wall.Nanoseconds()), len(mix)))
		allocs = append(allocs, perTrade(float64(e.mallocs+d.mallocs), len(mix)))
	}
	return wireCost{encodeNS: median(enc), decodeNS: median(dec), allocs: median(allocs)}
}

// flightOnCost is the CPU share the flight recorder and the auditor add
// to a 200 ms sim-paper run: CPU with both on over CPU with both off,
// minus 1, the median over three pairs.
func flightOnCost(seed uint64) float64 {
	cfg := paperConfig(seed, traceGenerate(seed), 10, 200*sim.Millisecond)
	var ratios []float64
	for i := 0; i < 3; i++ {
		on := cfg
		on.Flight = newFlightRing()
		on.Auditor = newAuditor(cfg.Delta)
		off := timedRun(cfg).d.cpu.Seconds()
		ratios = append(ratios, timedRun(on).d.cpu.Seconds()/off-1)
	}
	return median(ratios)
}

// Metrics of layers a workload bypasses read 0.
var (
	nodeMetrics = []metricName{
		{"node.msgs_per_trade", "count"}, {"node.feed_rate_ratio", "ratio"},
		{"node.delivery_gap_us_p50", "us"}, {"node.hb_staleness_us_p50", "us"},
		{"node.response_us_p50", "us"}, {"node.ob_hold_us_p50", "us"},
		{"node.ob_hold_us_p99", "us"}, {"node.latency_p99_us", "us"},
	}
	simOnlyMetrics = []metricName{
		{"trace.generate_ms", "ms"}, {"exchange.build_ms", "ms"}, {"exchange.build_mb", "MB"},
		{"netsim.packets_per_trade", "count"}, {"core.ob_us_per_msg", "us"},
		{"core.ob_allocs_per_msg", "count"},
		{"hop.fwd_us_p50", "us"}, {"hop.fwd_us_p99", "us"},
		{"hop.rev_us_p50", "us"}, {"hop.rev_us_p99", "us"},
		{"hop.ob_hold_us_p50", "us"}, {"hop.ob_hold_us_p99", "us"},
		{"exchange.latency_p99_us", "us"}, {"exchange.latency_p999_us", "us"},
		{"sim.residual_us_per_trade", "us"},
	}
)

type metricName struct{ name, unit string }

func bypassed(rep *report, names []metricName) {
	for _, m := range names {
		rep.set(m.name, m.unit, 0)
	}
}
