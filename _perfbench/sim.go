package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dbo/internal/audit"
	"dbo/internal/core"
	"dbo/internal/exchange"
	"dbo/internal/flight"
	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/trace"
)

// simSpec is one seeded-simulation workload. The seed is its only
// varying input: it picks the RTT trace, the skew draws, the response
// times and every fault draw.
type simSpec struct {
	name string
	// setups is how many set-ups a timed run makes, spread over its
	// budget; setup_s is their median.
	setups int
	// config builds the workload's exchange config on a generated trace.
	config func(seed uint64, tr *trace.Trace) exchange.Config
	// gate lists the workload's correctness violations.
	gate func(res *exchange.Result) []string
}

// paperConfig is the paper's Table 3 cloud deployment: DBO, the default
// cloud trace, 40 µs ticks, TradeProb 0.5, δ = τ = 20 µs, no faults.
func paperConfig(seed uint64, tr *trace.Trace, n int, horizon sim.Time) exchange.Config {
	return exchange.Config{
		Scheme:       exchange.DBO,
		Seed:         seed,
		N:            n,
		Trace:        tr,
		TickInterval: 40 * sim.Microsecond,
		TradeProb:    0.5,
		Delta:        20 * sim.Microsecond,
		Kappa:        0.25,
		Tau:          20 * sim.Microsecond,
		Duration:     horizon,
		Warmup:       5 * sim.Millisecond,
		Drain:        50 * sim.Millisecond,
		// The harness records every latency sample anyway; this keeps
		// them in the Result for quantiles the summary lacks.
		CollectSamples: true,
	}
}

var simPaper = simSpec{
	name:   "sim-paper",
	setups: 15,
	config: func(seed uint64, tr *trace.Trace) exchange.Config {
		return paperConfig(seed, tr, 10, 500*sim.Millisecond)
	},
	gate: faultFreeGate,
}

var simWide = simSpec{
	name:   "sim-wide",
	setups: 7,
	config: func(seed uint64, tr *trace.Trace) exchange.Config {
		return paperConfig(seed, tr, 100, 40*sim.Millisecond)
	},
	gate: faultFreeGate,
}

// hostileHorizon is sim-hostile's generation horizon; every fault sits
// at a fixed time inside it.
const hostileHorizon = 200 * sim.Millisecond

var simHostile = simSpec{
	name:   "sim-hostile",
	setups: 15,
	config: func(seed uint64, tr *trace.Trace) exchange.Config {
		c := paperConfig(seed, tr, 10, hostileHorizon)
		ms := sim.Millisecond
		c.OBShards = 2
		c.StragglerRTT = 2 * ms
		c.Adaptive = &core.AdaptiveConfig{}
		c.KeepTrades = true // the duplicate-key gate reads the forwarded log
		c.Faults = exchange.FaultPlan{
			DupRate:     0.02,
			ReorderRate: 0.02,
			Outages: []exchange.RBOutage{
				{MP: 3, From: 40 * ms, To: 41 * ms},
				{MP: 8, From: 130 * ms, To: 131 * ms},
			},
			Partitions: []exchange.Partition{
				{MP: 5, From: 90 * ms, To: 91 * ms, Dir: exchange.PartitionFwd},
			},
			Attack: &exchange.LatencyAttack{MP: 2, From: hostileHorizon / 4,
				To: 3 * hostileHorizon / 4, Extra: 500 * sim.Microsecond},
			Burst: &exchange.FeedBurst{From: 160 * ms, To: 170 * ms, Factor: 3},
		}
		return c
	},
	gate: func(res *exchange.Result) []string {
		var bad []string
		if res.Lost != 0 {
			bad = append(bad, fmt.Sprintf("%d trades lost", res.Lost))
		}
		seen := make(map[market.TradeKey]bool, len(res.TradeLog))
		for _, t := range res.TradeLog {
			if seen[t.Key()] {
				bad = append(bad, fmt.Sprintf("trade %v forwarded twice", t.Key()))
				break
			}
			seen[t.Key()] = true
		}
		return bad
	},
}

// faultFreeGate holds for every fault-free DBO run: nothing is lost and
// every race is ordered by response time.
func faultFreeGate(res *exchange.Result) []string {
	var bad []string
	if res.Lost != 0 {
		bad = append(bad, fmt.Sprintf("%d trades lost", res.Lost))
	}
	if res.Fairness != 1 {
		bad = append(bad, fmt.Sprintf("fairness %v, want 1", res.Fairness))
	}
	return bad
}

// traceGenerate is the workloads' RTT input: the default cloud trace.
func traceGenerate(seed uint64) *trace.Trace { return trace.Cloud(seed).Generate() }

// newFlightRing and newAuditor are the production observability a node
// runs: a bounded flight ring and a live auditor.
func newFlightRing() *flight.Recorder { return flight.NewRecorder(liveFlightRing) }

func newAuditor(delta sim.Time) *audit.Auditor { return audit.New(audit.Config{Delta: delta}) }

// oneTick shrinks a config to a one-tick horizon: the run builds the
// whole harness but simulates almost nothing, so its cost is set-up.
func oneTick(c exchange.Config) exchange.Config {
	c.Duration = c.TickInterval
	c.Drain = c.TickInterval
	c.Faults = exchange.FaultPlan{}
	return c
}

// fingerprint is the deterministic outcome of a simulation: two runs
// with one seed must agree on it exactly.
type fingerprint struct {
	forwarded, trades, lost, races   int
	latency                          [4]sim.Time
	fairness                         float64
	beats, stragglers, retx, dataPts int
	dup, reordered, windowDrops      int
}

func fingerprintOf(res *exchange.Result, forwarded int) fingerprint {
	return fingerprint{
		forwarded: forwarded, trades: res.Trades, lost: res.Lost, races: res.Races,
		latency:  [4]sim.Time{res.Latency.Avg, res.Latency.P50, res.Latency.P99, res.Latency.P999},
		fairness: res.Fairness,
		beats:    res.HeartbeatsSent, stragglers: res.StragglerEvents, retx: res.RetxRequests,
		dataPts: res.DataPoints, dup: res.DupPackets, reordered: res.ReorderedPackets,
		windowDrops: res.WindowDrops,
	}
}

// simRun is one timed exchange.Run.
type simRun struct {
	res       *exchange.Result
	forwarded int
	d         delta
	kernel    time.Duration // the mean of the reference kernels around the run
}

// timedRun runs cfg once, bracketed by resource readings. The forward
// counter is the only hook installed.
func timedRun(cfg exchange.Config) simRun {
	forwarded := 0
	cfg.Hooks.OnForward = func(int, sim.Time) { forwarded++ }
	runtime.GC()
	start := readUsage()
	res := exchange.Run(cfg)
	return simRun{res: res, forwarded: forwarded, d: readUsage().since(start)}
}

// timedSetup times one of spec's set-ups: trace generation plus a
// one-tick run of the same config. It returns the time and the trace.
func timedSetup(spec simSpec, seed uint64) (time.Duration, *trace.Trace) {
	runtime.GC()
	start := time.Now()
	tr := traceGenerate(seed)
	exchange.Run(oneTick(spec.config(seed, tr)))
	return time.Since(start), tr
}

// runSim is a simulation workload: same-seed runs until the time budget
// is spent, with the set-ups spread among them; each run is checked
// against the workload's gate and against the first run's fingerprint.
func runSim(spec simSpec, o opts, rep *report) error {
	// exchange.Run is single-goroutine; one P keeps the scheduler out of
	// the figures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if o.trace {
		return traceSim(spec, o, rep)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var setups []float64
	var cfg exchange.Config
	var runs []simRun
	speed := newSpeedProbe()
	for len(runs) < 3 || len(setups) < spec.setups || time.Since(start) < budget {
		if setupDue(len(setups), spec.setups, time.Since(start), budget) {
			d, tr := timedSetup(spec, o.seed)
			if len(setups) == 0 {
				cfg = spec.config(o.seed, tr)
			}
			setups = append(setups, atRef(d, speed.next()).Seconds())
			continue
		}
		r := timedRun(cfg)
		r.kernel = speed.next()
		if len(runs) == 0 {
			gateRun(spec, r, r, rep)
		} else {
			gateRun(spec, r, runs[0], rep)
			r.res = nil // only the first run's samples and log are kept
		}
		runs = append(runs, r)
	}
	var tps, cpu, allocs, bytes []float64
	for _, r := range runs {
		tps = append(tps, float64(r.forwarded)/atRef(r.d.wall, r.kernel).Seconds())
		cpu = append(cpu, perTrade(float64(atRef(r.d.cpu, r.kernel).Microseconds()), r.forwarded))
		allocs = append(allocs, perTrade(float64(r.d.mallocs), r.forwarded))
		bytes = append(bytes, perTrade(float64(r.d.bytes), r.forwarded))
	}
	res := runs[0].res
	rep.set("setup_s", "s", median(setups))
	rep.set("trades_per_s", "1/s", median(tps))
	rep.set("cpu_us_per_trade", "us", median(cpu))
	rep.set("allocs_per_trade", "count", median(allocs))
	rep.set("bytes_per_trade", "B", median(bytes))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	rep.set("latency_p50_us", "us", res.Latency.P50.Micros())
	rep.set("latency_p90_us", "us", res.LatencySamples.Percentile(0.9).Micros())
	rep.set("fairness", "ratio", res.Fairness)
	rep.set("delivered_frac", "ratio", deliveredFrac(res))
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d runs of %d trades, trades/s %.0f\n",
		spec.name, len(runs), runs[0].forwarded, tps)
	return nil
}

// gateRun applies the workload's gate and the determinism check to one
// run and adds its trades to the attempted/failed counts.
func gateRun(spec simSpec, r, first simRun, rep *report) {
	rep.Attempted += r.res.Trades + r.res.Lost
	rep.Failed += r.res.Lost
	for _, p := range spec.gate(r.res) {
		rep.fail(p)
	}
	if r.res.Trades == 0 {
		rep.fail("no trades scored")
	}
	if got, want := fingerprintOf(r.res, r.forwarded), fingerprintOf(first.res, first.forwarded); got != want {
		rep.fail(fmt.Sprintf("same-seed runs differ: %+v vs %+v", got, want))
	}
}

// deliveredFrac is the share of submitted (post-warmup) trades that
// reached the matching engine: 1 − lost_frac.
func deliveredFrac(res *exchange.Result) float64 {
	return 1 - float64(res.Lost)/float64(max(res.Trades+res.Lost, 1))
}
