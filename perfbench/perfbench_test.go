package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsRepeat runs every workload twice at small size on one
// seed and requires identical simulated statistics, clean output
// checks, and rows equal to the experiments entry point's.
func TestWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, small: true}
			a, err := w.run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.report != b.report || a.digest() != b.digest() {
				t.Errorf("two runs differ:\n%s\n%s", a.report, b.report)
			}
			if len(a.problems) > 0 {
				t.Errorf("output checks failed: %v", a.problems)
			}
			if a.completed == 0 || a.sys.makespan <= 0 {
				t.Errorf("nothing ran: %+v", a.sys)
			}
			if w.reference != nil {
				want, err := w.reference(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p := checkRows(w, want, a); p != nil {
					t.Error(p)
				}
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestResultLineMatchesBenchmarkFile runs the command's entry point on
// every workload, untraced and traced, and checks that the last line
// names exactly the metrics BENCHMARK.json declares, with their units.
func TestResultLineMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	units := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		u := map[string]string{}
		for _, m := range ms {
			u[m.Name] = m.Unit
		}
		return u
	}
	want := map[string]map[string]string{"0": units(bf.EndToEnd), "1": units(bf.PerLayer)}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0.1", "--trace", trace, "--small", "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: %+v", w.name, trace, res)
			}
			if got, exp := sortedKeys(res.Metrics), sortedKeys(want[trace]); strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace=%s: metrics %v, BENCHMARK.json has %v", w.name, trace, got, exp)
			}
			for name, m := range res.Metrics {
				if u := want[trace][name]; u != "" && m.Unit != u {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, u)
				}
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if trace == "1" {
				checkTraceFile(t, filepath.Join(out, w.name+"-seed1.trace.json"))
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checkTraceFile requires a Chrome trace-event file with one named
// track per layer and at least one complete event.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	tracks, complete := 0, 0
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			tracks++
		case "X":
			complete++
		}
	}
	if tracks != len(traceLayers) || complete == 0 {
		t.Errorf("%s: %d tracks, %d complete events", path, tracks, complete)
	}
}

// TestAttribution checks the profile attribution on hand-made stacks:
// the innermost internal frame decides the layer, and runtime work
// below it counts for that layer.
func TestAttribution(t *testing.T) {
	a := attribute([]stack{
		{ns: 10, funcs: []string{"runtime.mallocgc", "hta/internal/wq.(*Master).Submit", "main.buildStorm"}},
		{ns: 20, funcs: []string{"hta/internal/simclock.(*Engine).step", "hta/internal/wq.(*Master).dispatch.func1"}},
		{ns: 30, funcs: []string{"hta/internal/wq/wire.encode"}},
		{ns: 40, funcs: []string{"hta/internal/resources.Vector.Add", "hta/internal/kubesim.(*Cluster).x"}},
		{ns: 50, funcs: []string{"runtime.gcBgMarkWorker"}},
		{ns: 60, funcs: []string{"main.runTenants.func1", "hta/internal/wq.(*Master).complete"}},
	})
	want := map[string]int64{"wq": 40, "simclock": 20, "other": 40, "runtime": 50, "perfbench": 60}
	for k, v := range want {
		if a.self[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, a.self[k], v, a.self)
		}
	}
	if a.total != 210 || a.gc != 50 || a.alloc != 10 {
		t.Errorf("total %d gc %d alloc %d", a.total, a.gc, a.alloc)
	}
}
