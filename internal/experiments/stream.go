package experiments

import (
	"fmt"
	"strings"
	"time"

	"hta/internal/core"
	"hta/internal/dag"
	"hta/internal/flow"
	"hta/internal/hpa"
	"hta/internal/kubesim"
	"hta/internal/metrics"
	"hta/internal/simclock"
	"hta/internal/workload"
	"hta/internal/wq"
)

// StreamReport (S2) runs an open-loop diurnal arrival stream — tasks
// arriving over two hours with a sinusoidal rate — under HTA and
// HPA-20%. Batch workflows end; a stream never stops demanding, so
// this scenario exercises both directions of scaling repeatedly: the
// autoscaler must grow into each wave crest and release capacity in
// each trough.
type StreamReport struct {
	Rows  []SummaryRow
	Runs  map[string]*RunResult
	Tasks int
}

// RunHTAStream executes a timed arrival stream through HTA.
func RunHTAStream(name string, tasks []workload.TimedTask, opt HTAOptions) (*RunResult, error) {
	return run(name, opt.env(), &htaScaler{cfg: opt.HTA}, timedTasks(tasks))
}

// RunHPAStream executes a timed arrival stream on an HPA-scaled fleet.
func RunHPAStream(name string, tasks []workload.TimedTask, opt HPAOptions) (*RunResult, error) {
	return run(name, opt.env(), opt.workerSet(), timedTasks(tasks))
}

// RunHTAWorkflowStream executes timed workflow submissions — whole
// DAGs arriving over time at a long-lived master — through HTA. The
// run finishes when every workflow's DAG is done. Admission shedding
// is incompatible with DAG semantics (a shed node never completes), so
// a non-zero opt.Admission is an error.
func RunHTAWorkflowStream(name string, wfs []workload.TimedWorkflow, opt HTAOptions) (*RunResult, error) {
	if opt.Admission != (wq.AdmissionPolicy{}) {
		return nil, fmt.Errorf("experiments: %s: workflow streams take no admission policy (a shed DAG node never completes)", name)
	}
	return run(name, opt.env(), &htaScaler{cfg: opt.HTA}, timedWorkflows(wfs))
}

// timedTasks submits each task at its arrival offset. An arrival is
// terminal once it completed, was quarantined, or was shed at the
// admission cap; finish records completed-task sojourn quantiles.
func timedTasks(tasks []workload.TimedTask) source {
	return func(eng *simclock.Engine, master *wq.Master, sched flow.Scheduler, end func(bool)) func(*RunResult) error {
		terminal := 0
		var sojourns []time.Duration
		outcome := func() {
			if terminal++; terminal == len(tasks) {
				end(false)
			}
		}
		master.OnComplete(func(r wq.Result) {
			sojourns = append(sojourns, r.Task.FinishedAt.Sub(r.Task.SubmittedAt))
			outcome()
		})
		master.OnTaskFailed(func(wq.Task) { outcome() })
		master.OnRejected(func(wq.Task) { outcome() })
		for _, tt := range tasks {
			eng.At(eng.Now().Add(tt.At), "stream-arrival", func() { sched.Submit(tt.Spec) })
		}
		if len(tasks) == 0 {
			end(false)
		}
		return func(res *RunResult) error {
			q := metrics.DurationQuantiles(sojourns, 0.50, 0.99)
			res.SojournP50, res.SojournP99 = q[0], q[1]
			return nil
		}
	}
}

// timedWorkflows submits whole DAGs over time to one long-lived
// master. Each arrival gets its own flow.Runner on the shared
// scheduler; node IDs are the globally unique task tags, so concurrent
// workflows cannot claim each other's completions.
func timedWorkflows(wfs []workload.TimedWorkflow) source {
	return func(eng *simclock.Engine, _ *wq.Master, sched flow.Scheduler, end func(bool)) func(*RunResult) error {
		var runners []*flow.Runner
		var buildErr error
		done := 0
		for _, wf := range wfs {
			eng.At(eng.Now().Add(wf.At), "workflow-arrival", func() {
				if buildErr != nil {
					return
				}
				g, spec, err := workflowGraph(wf)
				if err != nil {
					buildErr = err
					end(false)
					return
				}
				r := flow.NewRunner(g, sched, spec)
				r.OnAllDone(func() {
					if done++; done == len(wfs) {
						end(false)
					}
				})
				runners = append(runners, r)
				r.Start()
			})
		}
		if len(wfs) == 0 {
			end(false)
		}
		return func(*RunResult) error {
			if buildErr != nil {
				return buildErr
			}
			for _, r := range runners {
				if err := r.Err(); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// workflowGraph builds a dependency-free DAG for one workflow whose
// node IDs are the task tags — unique across workflows, which a
// shared master requires (flow matches completions by tag).
func workflowGraph(wf workload.TimedWorkflow) (*dag.Graph, flow.SpecFunc, error) {
	g := dag.NewGraph()
	byID := make(map[string]wq.TaskSpec, len(wf.Tasks))
	for i, spec := range wf.Tasks {
		id := spec.Tag
		if id == "" {
			id = fmt.Sprintf("%s/t%d", wf.Name, i)
		}
		if _, dup := byID[id]; dup {
			return nil, nil, fmt.Errorf("experiments: workflow %s has duplicate task id %s", wf.Name, id)
		}
		byID[id] = spec
		if err := g.Add(dag.Node{ID: id, Category: spec.Category}); err != nil {
			return nil, nil, err
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, nil, err
	}
	return g, func(n dag.Node) wq.TaskSpec { return byID[n.ID] }, nil
}

// Stream runs S2.
func Stream(seed int64) (*StreamReport, error) {
	rep := &StreamReport{Runs: make(map[string]*RunResult)}
	kube := kubesim.Config{
		InitialNodes:   3,
		MinNodes:       1,
		MaxNodes:       20,
		ScaleDownDelay: 10 * time.Minute,
		Seed:           seed,
	}

	ps := workload.DefaultStream()
	ps.Seed = seed
	ps.Declared = true
	tasks := ps.Tasks()
	rep.Tasks = len(tasks)
	hpaRes, err := RunHPAStream("HPA(20% CPU)", tasks, HPAOptions{
		Kube: kube,
		HPA: hpa.Config{
			TargetCPUUtilization: 0.20,
			MinReplicas:          3,
			MaxReplicas:          60,
		},
	})
	if err != nil {
		return nil, err
	}
	rep.Runs[hpaRes.Name] = hpaRes
	rep.Rows = append(rep.Rows, summaryRow(hpaRes.Name, hpaRes))

	pu := workload.DefaultStream()
	pu.Seed = seed // undeclared: HTA measures the category
	htaRes, err := RunHTAStream("HTA", pu.Tasks(), HTAOptions{
		Kube: kube,
		HTA:  core.Config{MaxWorkers: 20},
	})
	if err != nil {
		return nil, err
	}
	rep.Runs["HTA"] = htaRes
	rep.Rows = append(rep.Rows, summaryRow("HTA", htaRes))
	return rep, nil
}

// String renders supply series plus the summary table.
func (r *StreamReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stream S2 — diurnal arrival stream (%d tasks over 2h, rate 2-18/min)\n", r.Tasks)
	for _, name := range []string{"HPA(20% CPU)", "HTA"} {
		run := r.Runs[name]
		if run == nil {
			continue
		}
		fmt.Fprintf(&b, "\n%s supply (cores):\n%s", name, run.Account.Supply.ASCII(run.End, 12, 40))
	}
	fmt.Fprintf(&b, "\n%s", summaryTable("Stream summary", r.Rows))
	return b.String()
}
