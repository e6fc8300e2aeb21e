package experiments

import (
	"fmt"
	"testing"
	"time"

	"hta/internal/chaos"
	"hta/internal/core"
	"hta/internal/kubesim"
	"hta/internal/workload"
	"hta/internal/wq"
)

// TestStreamEISmoke runs the compressed E-I twice and pins the
// acceptance properties: determinism under seed, the open-system
// accounting invariant (checked inside StreamEIWith), the admission
// cap bounding every cell's peak queue depth, and the panic cell
// beating plain HTA's sojourn tail without out-thrashing HPA.
func TestStreamEISmoke(t *testing.T) {
	cfg := SmokeStreamEIConfig(5)
	rep, err := StreamEIWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := StreamEIWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.Rows) != fmt.Sprint(again.Rows) {
		t.Fatalf("E-I not deterministic under seed:\n%v\n%v", rep.Rows, again.Rows)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}

	rows := make(map[string]StreamEIRow, len(rep.Rows))
	for _, row := range rep.Rows {
		rows[row.Autoscaler] = row
	}
	hpaRow, hta, panicRow := rows["HPA"], rows["HTA"], rows["HTA-panic"]

	for name, run := range rep.Runs {
		if run.Overload.PeakWaiting > cfg.Admission.MaxWaiting {
			t.Errorf("%s peak waiting %d exceeds admission cap %d",
				name, run.Overload.PeakWaiting, cfg.Admission.MaxWaiting)
		}
	}
	if panicRow.Panics == 0 {
		t.Error("panic cell fired no panics on the spike trace")
	}
	if panicRow.P99 >= hta.P99 {
		t.Errorf("HTA-panic p99 %v not below plain HTA %v", panicRow.P99, hta.P99)
	}
	if panicRow.Actions > hpaRow.Actions {
		t.Errorf("HTA-panic actions %d exceed HPA's %d", panicRow.Actions, hpaRow.Actions)
	}
	if hta.Shed == 0 && panicRow.Shed == 0 && hpaRow.Shed == 0 {
		t.Error("no cell shed anything: the spike never hit the admission cap")
	}
	if got := rep.String(); len(got) == 0 {
		t.Error("empty report")
	}
}

// TestStreamEIReferenceEngineIdentical runs the E-I smoke cells with
// every cell's event core swapped for the retained container/heap
// engine. The two engines promise identical firing order, so the
// rendered reports and every run's series and counters must be
// byte-identical.
func TestStreamEIReferenceEngineIdentical(t *testing.T) {
	cfg := SmokeStreamEIConfig(5)
	indexed, err := streamEIWith(cfg, false)
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	reference, err := streamEIWith(cfg, true)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	if got, want := reference.String(), indexed.String(); got != want {
		t.Errorf("reference engine diverges from indexed:\n--- indexed ---\n%s\n--- reference ---\n%s", want, got)
	}
	for name, run := range indexed.Runs {
		ref := reference.Runs[name]
		if ref == nil {
			t.Errorf("%s: no reference-engine run", name)
			continue
		}
		if got, want := goldenRun(t, ref), goldenRun(t, run); got != want {
			t.Errorf("%s: reference engine diverges:\n--- indexed ---\n%s--- reference ---\n%s", name, want, got)
		}
	}
}

// TestStreamDriversHonourOptions: the stream drivers share the batch
// run loop, so the category series, the sampler period and the fault
// plan a caller sets all reach the run.
func TestStreamDriversHonourOptions(t *testing.T) {
	cfg := SmokeStreamEIConfig(5)
	tasks := cfg.Trace.Tasks()
	plan := &chaos.Plan{Seed: 5, Preemption: chaos.PreemptionPlan{MeanInterval: 10 * time.Minute, MinNodesSpared: 1}}
	runs := map[string]func() (*RunResult, error){
		"HTA": func() (*RunResult, error) {
			return RunHTAStream("HTA", tasks, HTAOptions{
				Kube: cfg.Kube, HTA: core.Config{MaxWorkers: cfg.MaxWorkers}, Timeout: cfg.Timeout,
				Categories: []string{"smoke"}, SampleEvery: time.Minute, Chaos: plan,
			})
		},
		"HPA": func() (*RunResult, error) {
			return RunHPAStream("HPA", tasks, HPAOptions{
				Kube: cfg.Kube, HPA: cfg.HPA, Timeout: cfg.Timeout,
				Categories: []string{"smoke"}, SampleEvery: time.Minute, Chaos: plan,
			})
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Completed+res.Failures.Quarantined+res.Shed != res.Submitted || res.Submitted != len(tasks) {
			t.Errorf("%s: accounting %d+%d+%d of %d submitted, %d arrivals", name,
				res.Completed, res.Failures.Quarantined, res.Shed, res.Submitted, len(tasks))
		}
		if res.Chaos.Preemptions == 0 {
			t.Errorf("%s: fault plan delivered no preemptions", name)
		}
		if s := res.CategoryOutstanding["smoke"]; s == nil || s.Len() == 0 {
			t.Errorf("%s: no per-category series", name)
		}
		// One sample per minute plus the initial one, not one per 5 s.
		if got, want := res.Workers.Len(), int(res.Runtime/time.Minute)+1; got != want {
			t.Errorf("%s: %d samples over %v, want %d", name, got, res.Runtime, want)
		}
	}
}

// workflowStreamTrace is the workflow arrival stream the driver tests
// run: ten-task DAGs arriving over half an hour.
func workflowStreamTrace() workload.WorkflowStreamParams {
	return workload.WorkflowStreamParams{
		Stream: workload.StreamParams{
			Window:     30 * time.Minute,
			BasePerMin: 0.5,
			Category:   "wf",
			Exec:       90 * time.Second,
			Jitter:     0.1,
			CPUMilli:   870,
			MemMB:      1024,
			Seed:       11,
		},
		TasksPerWorkflow: 10,
		SizeJitter:       0.2,
	}
}

func workflowStreamOptions() HTAOptions {
	return HTAOptions{
		Kube:    kubesim.Config{InitialNodes: 2, MinNodes: 1, MaxNodes: 10, Seed: 11},
		HTA:     core.Config{MaxWorkers: 10},
		Timeout: 6 * time.Hour,
	}
}

// TestWorkflowStreamDriver: whole DAGs arriving over time at one
// long-lived master all run to completion, deterministically.
func TestWorkflowStreamDriver(t *testing.T) {
	wfs := workflowStreamTrace().Workflows()
	if len(wfs) == 0 {
		t.Fatal("no workflows generated")
	}
	total := 0
	for _, wf := range wfs {
		total += len(wf.Tasks)
	}
	run := func() *RunResult {
		res, err := RunHTAWorkflowStream("wf-stream", wfs, workflowStreamOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Completed != total || res.Submitted != total {
		t.Fatalf("completed %d / submitted %d, want %d (all workflow tasks)", res.Completed, res.Submitted, total)
	}
	if res.Shed != 0 {
		t.Fatalf("workflow driver shed %d tasks without an admission policy", res.Shed)
	}
	if again := run(); again.Runtime != res.Runtime || again.Completed != res.Completed {
		t.Fatalf("workflow stream not deterministic: %v/%d vs %v/%d",
			res.Runtime, res.Completed, again.Runtime, again.Completed)
	}

	// A shed node would never complete, so an admission policy is
	// rejected rather than ignored.
	opt := workflowStreamOptions()
	opt.Admission = wq.AdmissionPolicy{MaxWaiting: 5}
	if _, err := RunHTAWorkflowStream("wf-stream", wfs, opt); err == nil {
		t.Fatal("workflow driver accepted an admission policy")
	}
}

// BenchmarkStreamEI runs the compressed open-system E-I — three
// autoscaler cells over the two-hour spike trace — per iteration, the
// wall-clock guard for the streaming stack.
func BenchmarkStreamEI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := StreamEIWith(SmokeStreamEIConfig(5))
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 3 {
			b.Fatalf("rows = %d, want 3", len(rep.Rows))
		}
	}
}
