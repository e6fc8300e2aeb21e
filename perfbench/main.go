// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's layers for a fixed host-time budget,
// checks every repetition's outputs, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as one JSON object on the
// last line of standard output.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload dispatch-storm --seed 1 --seconds 20 --trace 0
//
// Each repetition sets the workload up from the seed, runs it to
// completion and checks conservation, batch completion and that its
// simulated statistics repeat exactly across repetitions. Host metrics
// are medians over the repetitions; simulated metrics are identical in
// every repetition. See README.md for the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what one invocation measures.
type config struct {
	seed  int64
	small bool // shrunken inputs for the package's tests
}

// maxProcs caps GOMAXPROCS so a run on a large host stays comparable
// with the 2-core reference host.
const maxProcs = 2

// inputsPerRun is how many seeded inputs one run cycles through: the
// seed given, then inputStride and 2×inputStride further on. The
// end-to-end metrics weight each of them equally, so what depends on
// the input averages out instead of splitting runs into fast and slow
// seeds: on io-fleet, HTA's decision cycles copy the running-task list
// a seed-dependent number of times; on stream-day, the waste of one day
// varies by a tenth from seed to seed. The given seed's own rows are
// printed, and are what the reference check compares.
const (
	inputsPerRun = 3
	inputStride  = 1000
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
	small := fs.Bool("small", false, "shrunken inputs (tests)")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the traced run's trace and profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	cfg := config{seed: *seed, small: *small}
	budget := time.Duration(*seconds * float64(time.Second))

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	printHeader(out, w, cfg, *seconds, *trace)
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(out, w, cfg, budget, *outDir)
	} else {
		res, err = timedRun(out, w, cfg, budget)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one measured repetition: set-up, run body and outcome.
type rep struct {
	input int   // index of the seeded input, 0 for the given seed
	seed  int64 // the input's seed
	out   *outcome
	alloc uint64 // heap bytes allocated by the whole repetition
	gcs   uint32
	pause time.Duration
}

// tasksPerSec is completed tasks per host second of the run body.
func (r rep) tasksPerSec() float64 { return float64(r.out.completed) / r.out.run.Seconds() }

// inputConfig is cfg for the i-th seeded input of a run.
func inputConfig(cfg config, i int) config {
	cfg.seed += int64(i) * inputStride
	return cfg
}

// measureReps repeats the workload, cycling through the run's inputs,
// until budget has elapsed and at least minReps repetitions are done.
// It forces a collection between repetitions so one repetition's
// garbage is not collected on the next one's time.
func measureReps(w benchWorkload, cfg config, budget time.Duration, minReps int, tr *tracer) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		input := len(reps) % inputsPerRun
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if tr != nil {
			tr.baseHeap = before.HeapAlloc
			tr.prof.start()
		}
		icfg := inputConfig(cfg, input)
		var o *outcome
		var err error
		tr.span("perfbench", fmt.Sprintf("repetition %d (seed %d)", len(reps)+1, icfg.seed), func() { o, err = w.run(icfg, tr) })
		if tr != nil {
			tr.prof.stop()
		}
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		reps = append(reps, rep{
			input: input,
			seed:  icfg.seed,
			out:   o,
			alloc: after.TotalAlloc - before.TotalAlloc,
			gcs:   after.NumGC - before.NumGC,
			pause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		})
	}
	return reps, nil
}

// checkReps verifies every repetition and that all repetitions of one
// input produced the same simulated statistics. It returns the tasks
// attempted and failed over all repetitions, and the problems found.
func checkReps(reps []rep) (attempted, failed int, problems []string) {
	first := map[int]int{} // input -> index of its first repetition
	for i, r := range reps {
		attempted += r.out.submitted
		failed += r.out.lost + r.out.unfinished
		for _, p := range r.out.problems {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i+1, p))
		}
		j, seen := first[r.input]
		if !seen {
			first[r.input] = i
			continue
		}
		if r.out.digest() != reps[j].out.digest() {
			problems = append(problems, fmt.Sprintf("repetition %d: simulated statistics differ from repetition %d of the same input (digest %s vs %s)",
				i+1, j+1, r.out.digest(), reps[j].out.digest()))
		}
	}
	if len(first) == len(reps) {
		problems = append(problems, "no input was repeated, so determinism went unchecked")
	}
	return attempted, failed, problems
}

// throughput is completed tasks per host second of run body over one
// round of the inputs: the inputs' tasks over the sum of their median
// run bodies. Every input weighs the same however many times it ran
// before the budget ran out, and the median keeps a repetition slowed
// by the host from moving the figure.
func throughput(reps []rep) float64 {
	var tasks int
	var round float64 // seconds
	for _, r := range inputs(reps) {
		var runs []float64
		for _, s := range reps {
			if s.input == r.input {
				runs = append(runs, s.out.run.Seconds())
			}
		}
		tasks += r.out.completed
		round += median(runs)
	}
	return float64(tasks) / round
}

// minReps is the fewest repetitions a run makes: every input once and
// the given seed's twice, so determinism is checked on any budget.
const minReps = inputsPerRun + 1

// warmUp runs the given seed once before anything is timed: the first
// run in a process pays for growing the heap, which made it up to half
// again as slow as the next ones. Where the workload mirrors an
// experiments entry point, that entry point is the warm-up, and want is
// the rows the given seed's repetitions must reproduce. Otherwise the
// warm-up is one repetition, checked with the timed ones.
func warmUp(out io.Writer, w benchWorkload, cfg config) (want string, warm []rep, err error) {
	if w.reference != nil {
		fmt.Fprintf(out, "warm-up: %s at seed %d (not timed; its rows are the reference)\n", w.mirrors, cfg.seed)
		want, err = w.reference(cfg)
		return want, nil, err
	}
	warm, err = measureReps(w, cfg, 0, 1, nil)
	fmt.Fprintln(out, "warm-up repetition (checked, not timed):")
	printReps(out, warm)
	return "", warm, err
}

// checkRows compares the rows of the given seed's repetition with those
// of the experiments entry point the workload mirrors.
func checkRows(w benchWorkload, want string, o *outcome) []string {
	if w.reference == nil || want == o.rows {
		return nil
	}
	return []string{fmt.Sprintf("rows differ from %s:\nexperiments: %s\nbenchmark:   %s", w.mirrors, want, o.rows)}
}

// timedRun is the untraced run: end-to-end metrics only.
func timedRun(out io.Writer, w benchWorkload, cfg config, budget time.Duration) (result, error) {
	want, warm, err := warmUp(out, w, cfg)
	if err != nil {
		return result{}, err
	}
	reps, err := measureReps(w, cfg, budget, minReps, nil)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, "timed repetitions:")
	printReps(out, reps)
	attempted, failed, problems := checkReps(append(warm, reps...))
	problems = append(problems, checkRows(w, want, reps[0].out)...)
	m := endToEnd(reps)
	problems = append(problems, checkMetrics(m, endToEndNames, true)...)
	printMetrics(out, m, endToEndNames)
	var alloc []float64
	for _, r := range reps {
		alloc = append(alloc, float64(r.alloc)/(1<<20))
	}
	fmt.Fprintf(out, "  %-28s %16.6g MB (median per repetition; not gated: bimodal across io-fleet seeds)\n", "alloc_mb", median(alloc))
	for _, r := range inputs(reps) {
		printOutcome(out, r.seed, r.out)
	}
	return finish(out, m, attempted, failed, problems), nil
}

// finish reports the checks and assembles the result line.
func finish(out io.Writer, m map[string]metric, attempted, failed int, problems []string) result {
	for _, p := range problems {
		fmt.Fprintf(out, "check FAILED: %s\n", p)
	}
	if len(problems) == 0 {
		fmt.Fprintln(out, "checks: conservation, batch completion, determinism across repetitions, rows equal to the experiments': ok")
	}
	return result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// endToEnd computes the end-to-end metrics from the repetitions.
// setup_s is the median over the repetitions; the simulated metrics
// average the system cells of the run's inputs.
func endToEnd(reps []rep) map[string]metric {
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.out.setup.Seconds())
	}
	var submitted, completed int
	var makespan, waste, shortage float64
	ins := inputs(reps)
	for _, r := range ins {
		s := r.out.sys
		submitted += s.submitted
		completed += s.completed
		makespan += s.makespan.Seconds()
		waste += s.waste
		shortage += s.shortage
	}
	n := float64(len(ins))
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"tasks_per_s":     {throughput(reps), "1/s"},
		"completed_frac":  {float64(completed) / float64(submitted), "ratio"},
		"makespan_s":      {makespan / n, "s"},
		"waste_core_s":    {waste / n, "core-s"},
		"shortage_core_s": {shortage / n, "core-s"},
	}
}

// inputs returns the first repetition of each input, in input order.
func inputs(reps []rep) []rep {
	var firsts []rep
	for _, r := range reps {
		if r.input == len(firsts) {
			firsts = append(firsts, r)
		}
	}
	return firsts
}

// endToEndNames lists the end-to-end metrics in report order; it must
// match BENCHMARK.json (the package's tests check it).
var endToEndNames = []string{
	"setup_s", "tasks_per_s", "completed_frac",
	"makespan_s", "waste_core_s", "shortage_core_s",
}

// checkMetrics requires exactly the named metrics, each finite, and
// positive when positive is set (end-to-end metrics are never 0).
func checkMetrics(m map[string]metric, names []string, positive bool) []string {
	var problems []string
	for _, n := range names {
		v, ok := m[n]
		switch {
		case !ok:
			problems = append(problems, "metric "+n+" missing")
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			problems = append(problems, fmt.Sprintf("metric %s is %v", n, v.Value))
		case positive && v.Value <= 0:
			problems = append(problems, fmt.Sprintf("metric %s is %v, not positive", n, v.Value))
		}
	}
	if len(m) != len(names) {
		problems = append(problems, fmt.Sprintf("%d metrics reported, %d expected", len(m), len(names)))
	}
	return problems
}

func printHeader(out io.Writer, w benchWorkload, cfg config, seconds float64, trace int) {
	size := "full"
	if cfg.small {
		size = "small"
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%d size=%s\n", w.name, cfg.seed, seconds, trace, size)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(), cfg.seed)
	fmt.Fprintf(out, "load: %s\n", w.load)
	fmt.Fprintln(out, "generator lateness: not applicable (arrivals are engine events in virtual time, so the generator is never late)")
}

func printReps(out io.Writer, reps []rep) {
	for i, r := range reps {
		fmt.Fprintf(out, "rep %d (seed %d): setup %.4f s, run %.4f s, %d tasks, %.1f tasks/s, alloc %.1f MB, %d GCs, digest %s\n",
			i+1, r.seed, r.out.setup.Seconds(), r.out.run.Seconds(), r.out.completed, r.tasksPerSec(),
			float64(r.alloc)/(1<<20), r.gcs, r.out.digest())
	}
}

func printMetrics(out io.Writer, m map[string]metric, names []string) {
	for _, n := range names {
		fmt.Fprintf(out, "metric %-28s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printOutcome prints the simulated outcome of the workload's system
// cell, including the metrics that apply to some workloads only.
func printOutcome(out io.Writer, seed int64, o *outcome) {
	s := o.sys
	fmt.Fprintf(out, "seed %d, system cell %s: %d submitted, %d completed, %d quarantined, %d shed\n",
		seed, s.name, s.submitted, s.completed, s.quarantined, s.shed)
	fmt.Fprintf(out, "  %-28s %16.6g s\n", "makespan_s", s.makespan.Seconds())
	fmt.Fprintf(out, "  %-28s %16.6g core-s\n", "waste_core_s", s.waste)
	fmt.Fprintf(out, "  %-28s %16.6g core-s\n", "shortage_core_s", s.shortage)
	fmt.Fprintf(out, "  %-28s %16.6g ratio ((shed+quarantined+unfinished)/submitted)\n", "failed_frac", s.failedFrac())
	if s.sojournN > 0 {
		fmt.Fprintf(out, "  %-28s %16.6g s (n=%d)\n", "sojourn_p50_s", s.sojournP50.Seconds(), s.sojournN)
		fmt.Fprintf(out, "  %-28s %16.6g s (n=%d)\n", "sojourn_p99_s", s.sojournP99.Seconds(), s.sojournN)
	} else {
		fmt.Fprintln(out, "  sojourn_p50_s, sojourn_p99_s: not observable on this workload")
	}
	if s.hasScaler {
		fmt.Fprintf(out, "  %-28s %16d count\n", "scaling_actions", s.scalingActions)
	} else {
		fmt.Fprintln(out, "  scaling_actions: not applicable (no autoscaler)")
	}
	if s.hasJain {
		fmt.Fprintf(out, "  %-28s %16.6g ratio (over %d tenants)\n", "jain_index", s.jain, s.tenants)
	} else {
		fmt.Fprintln(out, "  jain_index: not applicable (one tenant)")
	}
	fmt.Fprintf(out, "simulated statistics (digest %s):\n%s", o.digest(), o.report)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuModel reads the host's CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision run.sh found, or "unknown" when the
// benchmark runs outside a git checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
