package experiments

import (
	"fmt"
	"time"

	"hta/internal/chaos"
	"hta/internal/core"
	"hta/internal/kubesim"
	"hta/internal/qpa"
	"hta/internal/resources"
	"hta/internal/workload"
	"hta/internal/wq"
)

// QPAOptions configures a queue-proportional (KEDA-style) baseline
// run: node-sized worker pods scaled to ceil(queue / TasksPerWorker).
type QPAOptions struct {
	Kube            kubesim.Config
	QPA             qpa.Config
	PodResources    resources.Vector // default: node-sized
	InitialReplicas int
	Timeout         time.Duration
	// Retry is the master's recovery policy.
	Retry wq.RetryPolicy
	// Chaos, when set and enabled, injects faults into the run.
	Chaos *chaos.Plan
}

// RunQPA executes the workload under the queue-proportional scaler.
func RunQPA(name string, wl Workload, opt QPAOptions) (*RunResult, error) {
	e := env{kube: &opt.Kube, retry: opt.Retry, chaos: opt.Chaos, timeout: opt.Timeout, maxIdeal: opt.QPA.MaxReplicas}
	sc := &workerSetScaler{pod: opt.PodResources, replicas: opt.InitialReplicas,
		controller: func(c *kubesim.Cluster, ws *kubesim.WorkerSet, m *wq.Master, sm *sampler) func(*RunResult) {
			ctrl := qpa.New(c, ws, m, opt.QPA)
			sm.desiredFn = func() int { return ctrl.LastDesired }
			return func(*RunResult) { ctrl.Stop() }
		}}
	return run(name, e, sc, batch(wl))
}

// AblationQueueScalerReport (A4) compares a KEDA-style
// queue-proportional scaler against HTA on the multistage workflow.
// The queue scaler knows the queue length (more than the HPA does)
// but neither per-category resource consumption nor the cluster's
// initialization time, and its scale-downs delete pods rather than
// draining them: it matches HTA's makespan by holding peak capacity
// through the stage dips, at the cost of HPA-like waste, and every
// WorkerSet shrink under load re-runs interrupted tasks.
type AblationQueueScalerReport struct {
	QPA  SummaryRow
	HTA  SummaryRow
	Runs map[string]*RunResult
	// QPARequeues counts task attempts beyond the first in the QPA
	// run — work lost to WorkerSet pod deletions.
	QPARequeues int
}

// AblationQueueScaler runs A4; the two scalers run concurrently.
func AblationQueueScaler(seed int64) (*AblationQueueScalerReport, error) {
	results := make([]*RunResult, 2)
	err := Parallel(len(results), func(i int) error {
		p := workload.DefaultMultistage()
		p.Seed = seed
		if i == 0 {
			p.Declared = true
			g, spec, err := p.Build()
			if err != nil {
				return err
			}
			results[i], err = RunQPA("QPA (queue/3)", Workload{Graph: g, Spec: spec}, QPAOptions{
				Kube:            fig10Kube(seed),
				InitialReplicas: 3,
				QPA: qpa.Config{
					TasksPerWorker: 3, // node-sized workers hold 3 one-core tasks
					MaxReplicas:    20,
				},
				Timeout: fig10Timeout,
			})
			return err
		}
		g, spec, err := p.Build()
		if err != nil {
			return err
		}
		results[i], err = RunHTA("HTA", Workload{Graph: g, Spec: spec}, HTAOptions{
			Kube:    fig10Kube(seed),
			HTA:     core.Config{MaxWorkers: 20},
			Timeout: fig10Timeout,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &AblationQueueScalerReport{Runs: make(map[string]*RunResult)}
	qpaRes, htaRes := results[0], results[1]
	rep.Runs[qpaRes.Name] = qpaRes
	rep.QPA = summaryRow(qpaRes.Name, qpaRes)
	rep.QPARequeues = qpaRes.Requeues
	rep.Runs["HTA"] = htaRes
	rep.HTA = summaryRow("HTA", htaRes)
	return rep, nil
}

// String renders the comparison.
func (r *AblationQueueScalerReport) String() string {
	s := summaryTable("Ablation A4 — queue-proportional (KEDA-style) scaler vs HTA (multistage BLAST)",
		[]SummaryRow{r.QPA, r.HTA})
	return s + fmt.Sprintf("QPA interrupted and re-ran %d task dispatches; HTA drains and re-ran %d.\n",
		r.QPARequeues, r.Runs["HTA"].Requeues)
}
