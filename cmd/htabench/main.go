// Command htabench regenerates the paper's evaluation: every figure
// and table of "Autoscaling High-Throughput Workloads on Container
// Orchestrators" (CLUSTER 2020) plus the repository's own ablations,
// all on the simulated stack.
//
// Usage:
//
//	htabench [-seed N] [-runs NAME,...] [-csv DIR] [-html FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// The runs are fig2, fig4, fig6, fig10, fig11, ablations, sweeps,
// stream, chaos, recovery, io, ioscale, tenants and tenantchaos; the
// default is every run except io, ioscale, tenants and tenantchaos.
// An unknown run name is an error (exit status 2).
//
// The io run is experiment E-H — the Fig. 11 I/O-bound workload swept
// to 1k/5k/10k-worker fleets — and is not in the default set: its
// pinned-HPA cells simulate weeks of virtual time. Invoke it with
// -runs io. The ioscale run extends the sweep to the 50k/100k-worker
// fleets unlocked by the lane-sharded engine (months of virtual
// time; -runs ioscale).
//
// -cpuprofile and -memprofile write pprof profiles covering whatever
// the invocation ran — the standard way to find the next control-plane
// hotspot. Throughput is measured by the perfbench module (bash
// perfbench/run.sh --workload NAME), not here; the BENCH_N.json files
// at the repository root are frozen history.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"hta/internal/experiments"
	"hta/internal/report"
)

// defaultRuns is the -runs default: every run that finishes in
// seconds.
const defaultRuns = "fig2,fig4,fig6,fig10,fig11,ablations,sweeps,stream,chaos,recovery"

func main() {
	os.Exit(run())
}

// run is main's body behind an exit code so the deferred profile
// writers fire on every path (os.Exit skips defers).
func run() int {
	seed := flag.Int64("seed", 1, "simulation seed")
	runs := flag.String("runs", defaultRuns, "comma-separated experiments to run")
	csvDir := flag.String("csv", "", "directory to export per-run CSV series into")
	htmlOut := flag.String("html", "", "write an HTML report with SVG charts to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	flag.Parse()

	all := experimentTable(*seed)
	selected, err := selectRuns(all, *runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htabench:", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var page *report.Page
	if *htmlOut != "" {
		page = report.NewPage("HTA reproduction — experiment report")
	}
	failed := false
	for _, ex := range all {
		if !selected[ex.name] {
			continue
		}
		start := time.Now()
		rep, err := ex.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", ex.name, err)
			failed = true
			continue
		}
		fmt.Printf("==== %s (simulated in %v) ====\n%s\n", ex.name, time.Since(start).Round(time.Millisecond), rep)
		if *csvDir != "" {
			if d, ok := rep.(interface{ WriteCSVs(string) error }); ok {
				if err := d.WriteCSVs(*csvDir); err != nil {
					fmt.Fprintf(os.Stderr, "%s: csv export: %v\n", ex.name, err)
					failed = true
				}
			}
		}
		if page != nil {
			if a, ok := rep.(experiments.PageAdder); ok {
				a.AddToPage(page)
			}
		}
	}
	if page != nil && !failed {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := page.Render(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
		f.Close()
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
	if failed {
		return 1
	}
	return 0
}

// experiment is one named run: it simulates and returns its report.
type experiment struct {
	name string
	run  func() (fmt.Stringer, error)
}

// experimentTable lists every run in print order.
func experimentTable(seed int64) []experiment {
	return []experiment{
		{"fig2", func() (fmt.Stringer, error) { return experiments.Fig2(seed) }},
		{"fig4", func() (fmt.Stringer, error) { return experiments.Fig4(seed) }},
		{"fig6", func() (fmt.Stringer, error) { return experiments.Fig6(10, seed) }},
		{"fig10", func() (fmt.Stringer, error) { return experiments.Fig10(seed) }},
		{"fig11", func() (fmt.Stringer, error) { return experiments.Fig11(seed) }},
		{"ablations", runAblations(seed)},
		{"sweeps", func() (fmt.Stringer, error) { return experiments.SweepInitLatency(seed) }},
		{"stream", runStream(seed)},
		{"chaos", func() (fmt.Stringer, error) { return experiments.ChaosEF(seed) }},
		{"recovery", func() (fmt.Stringer, error) { return experiments.RecoveryEG(seed) }},
		{"io", func() (fmt.Stringer, error) { return experiments.IOScaleEH(seed) }},
		{"ioscale", func() (fmt.Stringer, error) { return experiments.IOScaleEHScale(seed) }},
		{"tenants", func() (fmt.Stringer, error) { return experiments.TenantsEJ(seed, 100) }},
		{"tenantchaos", func() (fmt.Stringer, error) { return experiments.TenantChaosEK(seed) }},
	}
}

// selectRuns parses the -runs list: comma-separated names with
// optional surrounding spaces, each of which must name a run in all.
func selectRuns(all []experiment, list string) (map[string]bool, error) {
	names := make([]string, len(all))
	for i, ex := range all {
		names[i] = ex.name
	}
	selected := make(map[string]bool)
	for _, r := range strings.Split(list, ",") {
		r = strings.TrimSpace(r)
		if !slices.Contains(names, r) {
			return nil, fmt.Errorf("unknown run %q; valid runs: %s", r, strings.Join(names, ", "))
		}
		selected[r] = true
	}
	return selected, nil
}

// runStream bundles the two open-loop scenarios: S2 (diurnal stream,
// HTA vs HPA) and E-I (trace-driven day with morning spikes, adding
// the panic-mode cell and admission control).
func runStream(seed int64) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		s2, err := experiments.Stream(seed)
		if err != nil {
			return nil, err
		}
		ei, err := experiments.StreamEI(seed)
		if err != nil {
			return nil, err
		}
		return streamCombined{s2: s2, ei: ei}, nil
	}
}

// streamCombined renders S2 then E-I and forwards S2's chart hook.
type streamCombined struct {
	s2 *experiments.StreamReport
	ei *experiments.StreamEIReport
}

func (c streamCombined) String() string { return c.s2.String() + "\n" + c.ei.String() }

func (c streamCombined) AddToPage(p *report.Page) { c.s2.AddToPage(p) }

func runAblations(seed int64) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		var b strings.Builder
		a1, err := experiments.AblationFixedCycle(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a1.String())
		b.WriteString("\n")
		a2, err := experiments.AblationNoCategories(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a2.String())
		b.WriteString("\n")
		a3, err := experiments.AblationHPAStabilization(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a3.String())
		b.WriteString("\n")
		a4, err := experiments.AblationQueueScaler(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a4.String())
		b.WriteString("\n")
		a5, err := experiments.AblationDispatchPolicy(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a5.String())
		return stringer{b.String()}, nil
	}
}

type stringer struct{ s string }

func (s stringer) String() string { return s.s }
