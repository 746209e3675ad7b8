// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed wall-clock budget, checks that the run's outputs
// are correct, and prints one JSON result line:
//
//	perfbench --workload sim-paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a timed run; with
// --trace 1 a separate traced run reports the per-layer ledger. See
// README.md for the workloads, the metric definitions and the known
// platform limits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// opts are the command-line inputs of one run.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line. Correct is false, and the run's trades
// count as failed, when any correctness gate broke.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newReport() *report {
	return &report{Correct: true, Metrics: make(map[string]metric)}
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Sprintf("metric %s is not a number", name))
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a broken correctness gate; every attempted trade then
// counts as failed.
func (r *report) fail(problem string) {
	r.Correct = false
	r.problems = append(r.problems, problem)
}

// finish applies the gate outcome to the counts.
func (r *report) finish() {
	if !r.Correct {
		r.Failed = r.Attempted
	}
	if r.Attempted < 1 {
		r.Attempted, r.Failed, r.Correct = 1, 1, false
	}
}

// workload runs one named workload into rep.
type workload struct {
	name string
	run  func(o opts, rep *report) error
}

var workloads = []workload{
	{"sim-paper", func(o opts, rep *report) error { return runSim(simPaper, o, rep) }},
	{"sim-wide", func(o opts, rep *report) error { return runSim(simWide, o, rep) }},
	{"sim-hostile", func(o opts, rep *report) error { return runSim(simHostile, o, rep) }},
	{"live-cluster", runLive},
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in wall seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep := newReport()
	start := time.Now()
	if err := w.run(opts{seed: *seed, seconds: *seconds, trace: *traced == 1}, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.finish()
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness: %s\n", w.name, p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v took %.1fs\n",
		w.name, *seed, *traced == 1, time.Since(start).Seconds())
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
