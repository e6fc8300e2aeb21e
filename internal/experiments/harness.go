// Package experiments contains one runner per table and figure of the
// paper's evaluation, built on the simulated stack: Fig. 2 (HPA
// target-CPU sweep), Fig. 4 (worker-pod sizing), Fig. 6
// (resource-initialization latency), Fig. 10 (multistage BLAST
// supply/demand and summary table), Fig. 11 (I/O-bound workload), and
// the ablations called out in DESIGN.md. Each runner returns a report
// struct that prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"time"

	"hta/internal/bind"
	"hta/internal/chaos"
	"hta/internal/core"
	"hta/internal/dag"
	"hta/internal/flow"
	"hta/internal/hpa"
	"hta/internal/kubesim"
	"hta/internal/metrics"
	"hta/internal/netsim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// SimStart is the virtual epoch of every experiment.
var SimStart = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// SampleInterval is the metrics sampling period.
const SampleInterval = 5 * time.Second

// Workload is a DAG plus its task-spec mapping.
type Workload struct {
	Graph *dag.Graph
	Spec  flow.SpecFunc
}

// Flat wraps a bag of independent tasks as a Workload.
func Flat(specs []wq.TaskSpec) (Workload, error) {
	g, fn, err := flow.FromSpecs(specs)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Graph: g, Spec: fn}, nil
}

// RunResult captures one scenario execution.
type RunResult struct {
	Name    string
	Runtime time.Duration
	Start   time.Time
	End     time.Time

	Account     *metrics.Account
	Workers     *metrics.Series // connected workers
	IdleWorkers *metrics.Series
	Desired     *metrics.Series // autoscaler's desired worker count
	Ideal       *metrics.Series // workers an omniscient autoscaler would hold
	Nodes       *metrics.Series // ready cluster nodes

	AvgBandwidthMBps float64
	MeanCPUUtil      float64 // time-weighted busy-CPU / capacity
	InitSamples      []time.Duration
	Completed        int
	// Submitted is the total number of tasks the master accepted
	// (accounting invariant: Submitted = Completed + Quarantined for
	// runs that finish).
	Submitted int
	// Requeues counts dispatch attempts beyond each task's first —
	// work lost to killed workers.
	Requeues int

	// Failures aggregates the master's failure/recovery counters
	// (kills, requeues, fast-aborts, quarantines, lost core·s).
	Failures wq.FailureStats
	// Chaos counts the faults the injector delivered (zero value when
	// the run had no fault plan).
	Chaos chaos.Stats
	// Recovery aggregates crash/recovery activity: the master's
	// task-level counters (rescues, fences, unrescued requeues) plus,
	// for runs with control-plane kills, the harness's restart and
	// replay counters.
	Recovery metrics.RecoveryCounters

	// Overload aggregates the master's admission-control counters
	// (zero when no admission policy was configured).
	Overload metrics.OverloadCounters
	// Shed counts submissions rejected at the admission hard cap.
	Shed int
	// SojournP50/P99 are quantiles of completed-task sojourn time
	// (master submission to completion), set by the stream runners.
	SojournP50 time.Duration
	SojournP99 time.Duration
	// ScalingActions counts applied fleet resizes: HTA decisions with
	// a nonzero change (panic decisions included), HPA replica
	// changes.
	ScalingActions int
	// Panics counts HTA panic-path scale-ups (zero for other
	// scalers and for HTA with the panic policy disabled).
	Panics int

	// CategoryOutstanding tracks waiting+running tasks per category
	// over time (Fig. 10a's stage profile), when requested.
	CategoryOutstanding map[string]*metrics.Series
}

// AccumulatedWaste returns ∫RW dt over the runtime in core·s.
func (r *RunResult) AccumulatedWaste() float64 { return r.Account.AccumulatedWaste(r.End) }

// AccumulatedShortage returns ∫RSH dt over the runtime in core·s.
func (r *RunResult) AccumulatedShortage() float64 { return r.Account.AccumulatedShortage(r.End) }

// sampler periodically records the supply/demand state of a run.
type sampler struct {
	acct      *metrics.Account
	workers   *metrics.Series
	idle      *metrics.Series
	desired   *metrics.Series
	ideal     *metrics.Series
	nodes     *metrics.Series
	busyCPU   *metrics.Series
	capCPU    *metrics.Series
	maxIdeal  int
	master    *wq.Master
	cluster   *kubesim.Cluster // may be nil (static runs)
	estimator wq.Estimator     // may be nil
	heldFn    func() int       // may be nil
	desiredFn func() int       // may be nil
	byCat     map[string]*metrics.Series
	catCounts map[string]int // reused across ticks
	// quotaCores bounds the reported shortage: RSH is the supply
	// deficit the cluster could still close, min(queue demand,
	// quota − supply). 0 = unbounded.
	quotaCores float64
}

// newSampler builds a run's sampler. With a cluster, the reported
// shortage is bounded by the cluster's core quota.
func newSampler(master *wq.Master, cluster *kubesim.Cluster, maxIdeal int) *sampler {
	sm := &sampler{
		acct:     metrics.NewAccount(),
		workers:  metrics.NewSeries("workers"),
		idle:     metrics.NewSeries("idle"),
		desired:  metrics.NewSeries("desired"),
		ideal:    metrics.NewSeries("ideal"),
		nodes:    metrics.NewSeries("nodes"),
		busyCPU:  metrics.NewSeries("busy-cpu"),
		capCPU:   metrics.NewSeries("cap-cpu"),
		maxIdeal: maxIdeal,
		master:   master,
		cluster:  cluster,
	}
	if cluster != nil {
		sm.quotaCores = float64(cluster.Config().MaxNodes) * cluster.Config().NodeAllocatable.CoresValue()
	}
	return sm
}

// trackCategories enables per-category outstanding-task series.
func (sm *sampler) trackCategories(cats []string) {
	sm.byCat = make(map[string]*metrics.Series, len(cats))
	sm.catCounts = make(map[string]int, len(cats))
	for _, c := range cats {
		sm.byCat[c] = metrics.NewSeries(c)
	}
}

func (sm *sampler) sample(now time.Time) {
	s := sm.master.Stats()
	supply := s.Capacity.CoresValue()
	inUse := s.InUse.CoresValue()
	shortage := sm.shortageCores()
	if sm.heldFn != nil {
		shortage += float64(sm.heldFn())
	}
	if sm.quotaCores > 0 {
		if gap := sm.quotaCores - supply; shortage > gap {
			shortage = gap
		}
		if shortage < 0 {
			shortage = 0
		}
	}
	sm.acct.Sample(now, supply, inUse, shortage)
	sm.workers.Add(now, float64(s.Workers))
	sm.idle.Add(now, float64(s.IdleWorkers))
	if sm.desiredFn != nil {
		sm.desired.Add(now, float64(sm.desiredFn()))
	}
	outstanding := s.Waiting + s.Running
	if sm.heldFn != nil {
		outstanding += sm.heldFn()
	}
	ideal := outstanding
	if sm.maxIdeal > 0 && ideal > sm.maxIdeal {
		ideal = sm.maxIdeal
	}
	sm.ideal.Add(now, float64(ideal))
	if sm.cluster != nil {
		sm.nodes.Add(now, float64(sm.cluster.ReadyNodes()))
	}
	sm.busyCPU.Add(now, float64(sm.master.BusyCPU())/1000)
	sm.capCPU.Add(now, supply)
	if sm.byCat != nil {
		counts := sm.catCounts
		for cat := range counts {
			delete(counts, cat)
		}
		sm.master.ForEachWaiting(func(t *wq.Task) { counts[t.Category]++ })
		sm.master.ForEachRunning(func(t *wq.Task) { counts[t.Category]++ })
		for cat, series := range sm.byCat {
			series.Add(now, float64(counts[cat]))
		}
	}
}

func (sm *sampler) finish(r *RunResult) {
	r.Account = sm.acct
	r.Workers = sm.workers
	r.IdleWorkers = sm.idle
	r.Desired = sm.desired
	r.Ideal = sm.ideal
	r.Nodes = sm.nodes
	capInt := sm.capCPU.IntegralUntil(r.End)
	if capInt > 0 {
		r.MeanCPUUtil = sm.busyCPU.IntegralUntil(r.End) / capInt
	}
	if sm.byCat != nil {
		r.CategoryOutstanding = sm.byCat
	}
}

// shortageCores estimates the cores desired by the waiting queue: the
// declared requirement, the category estimate, or one processor slot
// as the floor. It iterates the queue in place — the sum is an
// integer in millicores, so the visit order cannot perturb the
// result — instead of materializing a task-copy slice every tick.
func (sm *sampler) shortageCores() float64 {
	var milli int64
	sm.master.ForEachWaiting(func(t *wq.Task) {
		if !t.Resources.IsZero() {
			milli += t.Resources.MilliCPU
			return
		}
		if sm.estimator != nil {
			if v, ok := sm.estimator.EstimateResources(t.Category); ok && v.MilliCPU > 0 {
				milli += v.MilliCPU
				return
			}
		}
		milli += 1000
	})
	return float64(milli) / 1000
}

// newEngine builds a run's event engine. reference selects the
// retained container/heap core (simclock.NewReferenceEngine) for
// differential experiment runs, mirroring newLink's reference switch.
func newEngine(reference bool) *simclock.Engine {
	if reference {
		return simclock.NewReferenceEngine(SimStart)
	}
	return simclock.NewEngine(SimStart)
}

// newLink builds the master egress link, or nil when mbps is zero.
// reference selects the retained O(n)-per-event link implementation
// (netsim.NewReferenceLink) for differential experiment runs.
func newLink(eng *simclock.Engine, mbps, contention, perTransfer float64, reference bool) *netsim.Link {
	if mbps <= 0 {
		return nil
	}
	var l *netsim.Link
	if reference {
		l = netsim.NewReferenceLink(eng, mbps, perTransfer)
	} else {
		l = netsim.NewLink(eng, mbps, perTransfer)
	}
	if contention > 0 && contention < 1 {
		l.SetContention(contention)
	}
	return l
}

// ErrTimeout reports a scenario that did not finish within its
// simulated deadline.
type ErrTimeout struct {
	Name     string
	Deadline time.Duration
	Stats    wq.Stats
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("experiments: %s did not finish within %v (stats %+v)", e.Name, e.Deadline, e.Stats)
}

// attachChaos arms a fault plan against a run's components, returning
// nil when the plan is absent or injects nothing.
func attachChaos(eng *simclock.Engine, plan *chaos.Plan, cluster *kubesim.Cluster, master *wq.Master, link *netsim.Link) *chaos.Injector {
	if plan == nil || !plan.Enabled() {
		return nil
	}
	inj := chaos.New(eng, *plan)
	if cluster != nil {
		inj.AttachCluster(cluster)
	}
	inj.AttachMaster(master)
	if link != nil {
		inj.AttachLink(link)
	}
	inj.Start()
	return inj
}

// captureFailures copies the run's failure/recovery counters into res.
func captureFailures(res *RunResult, master *wq.Master, inj *chaos.Injector) {
	res.Failures = master.FailureStats()
	res.Submitted = master.SubmittedCount()
	res.Recovery = master.RecoveryStats()
	res.Overload = master.OverloadStats()
	res.Shed = master.ShedCount()
	if inj != nil {
		res.Chaos = inj.Stats()
	}
}

// countRequeues subscribes to the master and accumulates re-dispatch
// counts into res.
func countRequeues(master *wq.Master, res *RunResult) {
	master.OnComplete(func(r wq.Result) {
		if r.Task.Attempts > 1 {
			res.Requeues += r.Task.Attempts - 1
		}
	})
}

// --- the run loop ---

// env is the set-up every run shares, whatever its scaler and source.
type env struct {
	kube                              *kubesim.Config // nil: no cluster (static fleet)
	linkMBps, contention, perTransfer float64
	referenceLink, referenceEngine    bool
	// policy is installed only when set: Master.SetPolicy schedules a
	// dispatch event, which would shift the event sequence of runs
	// that never chose a policy.
	policy    *wq.Policy
	retry     wq.RetryPolicy
	admission wq.AdmissionPolicy
	chaos     *chaos.Plan
	timeout   time.Duration // simulated; 0 = 24 h
	// sampleEvery overrides SampleInterval: every tick walks the
	// waiting queue, so long large-fleet runs sample less often.
	sampleEvery time.Duration
	categories  []string
	maxIdeal    int // cap of the sampler's ideal-worker series
}

// scaler is the supply side of a run: what gives the master workers.
// Construction order fixes event sequence numbers, so run calls
// attach, arms chaos, then calls control.
type scaler interface {
	// attach connects the scaler to the master and returns the
	// scheduler that arrivals are submitted through.
	attach(eng *simclock.Engine, cluster *kubesim.Cluster, master *wq.Master) (flow.Scheduler, error)
	// control starts the scaling controller and wires the sampler's
	// scaler probes.
	control(sm *sampler)
	// stop is the stop step of a draining run; it calls done once the
	// fleet is released.
	stop(res *RunResult, done func())
	// finish copies the scaler's counters into res.
	finish(res *RunResult) error
}

// source is the demand side of a run. It feeds the arrivals to sched
// and calls end once: when every arrival is terminal, or when the
// source fails. drain asks for the scaler's stop step first: batch
// runs drain, stream runs end at the last terminal outcome. The
// returned finish reports the arrivals' errors and fills the source's
// results.
type source func(eng *simclock.Engine, master *wq.Master, sched flow.Scheduler, end func(drain bool)) (finish func(*RunResult) error)

// run is the one experiment loop: it executes a scaler × source pair
// until the source ends (and a draining scaler has stopped) or the
// simulated deadline passes.
func run(name string, e env, sc scaler, src source) (*RunResult, error) {
	if e.timeout == 0 {
		e.timeout = 24 * time.Hour
	}
	eng := newEngine(e.referenceEngine)
	var cluster *kubesim.Cluster
	if e.kube != nil {
		kube := *e.kube
		if kube.Seed == 0 {
			kube.Seed = 1
		}
		cluster = kubesim.NewCluster(eng, kube)
		defer cluster.Stop()
	}
	link := newLink(eng, e.linkMBps, e.contention, e.perTransfer, e.referenceLink)
	master := wq.NewMaster(eng, link)
	if e.policy != nil {
		master.SetPolicy(*e.policy)
	}
	master.SetRetryPolicy(e.retry)
	master.SetAdmissionPolicy(e.admission)
	sched, err := sc.attach(eng, cluster, master)
	if err != nil {
		return nil, err
	}
	inj := attachChaos(eng, e.chaos, cluster, master, link)
	sm := newSampler(master, cluster, e.maxIdeal)
	sc.control(sm)
	if len(e.categories) > 0 {
		sm.trackCategories(e.categories)
	}
	if e.sampleEvery <= 0 {
		e.sampleEvery = SampleInterval
	}
	ticker := eng.Every(e.sampleEvery, "sampler", func() { sm.sample(eng.Now()) })
	defer ticker.Stop()

	res := &RunResult{Name: name, Start: eng.Now()}
	countRequeues(master, res)
	finished := false
	sm.sample(eng.Now())
	finish := src(eng, master, sched, func(drain bool) {
		res.End = eng.Now()
		res.Runtime = eng.Elapsed()
		if drain {
			sc.stop(res, func() { finished = true })
		} else {
			finished = true
		}
	})
	deadline := eng.Now().Add(e.timeout)
	eng.RunWhile(func() bool { return !finished && eng.Now().Before(deadline) })
	if !finished {
		return nil, &ErrTimeout{Name: name, Deadline: e.timeout, Stats: master.Stats()}
	}
	if err := finish(res); err != nil {
		return nil, err
	}
	if err := sc.finish(res); err != nil {
		return nil, err
	}
	res.Completed = master.CompletedCount()
	captureFailures(res, master, inj)
	sm.finish(res)
	if link != nil {
		res.AvgBandwidthMBps = link.Stats().AvgBandwidth
	}
	return res, nil
}

// htaScaler runs core.Autoscaler as the flow scheduler: arrivals go
// through it, and it sizes the worker-pod fleet.
type htaScaler struct {
	cfg core.Config
	a   *core.Autoscaler
}

func (s *htaScaler) attach(eng *simclock.Engine, cluster *kubesim.Cluster, master *wq.Master) (flow.Scheduler, error) {
	s.a = core.New(eng, cluster, master, s.cfg)
	return s.a, s.a.Start()
}

func (s *htaScaler) control(sm *sampler) {
	sm.estimator = s.a.Monitor()
	sm.heldFn = s.a.HeldTasks
	sm.desiredFn = s.a.WorkerPodCount
}

// stop drains the fleet through Shutdown; a drained run also reports
// the pod initialization times measured over its lifetime.
func (s *htaScaler) stop(res *RunResult, done func()) {
	s.a.Shutdown(func() {
		res.InitSamples = s.a.Tracker().Samples()
		done()
	})
}

func (s *htaScaler) finish(res *RunResult) error {
	for _, d := range s.a.Decisions {
		if d.ScaleChange != 0 {
			res.ScalingActions++
		}
	}
	res.Panics = s.a.PanicCount()
	return nil
}

// workerSetScaler is a WorkerSet of fixed-size wq-worker pods, bound
// to the master as they start and resized by a replica controller
// (the HPA or the queue-proportional scaler).
type workerSetScaler struct {
	pod      resources.Vector // zero: node-sized
	replicas int
	// controller starts the replica controller over the WorkerSet,
	// wires the sampler's desired-replicas probe, and returns the
	// controller's finish step.
	controller func(*kubesim.Cluster, *kubesim.WorkerSet, *wq.Master, *sampler) func(*RunResult)

	cluster          *kubesim.Cluster
	master           *wq.Master
	binder           *bind.Binder
	ws               *kubesim.WorkerSet
	finishController func(*RunResult)
}

func (s *workerSetScaler) attach(_ *simclock.Engine, cluster *kubesim.Cluster, master *wq.Master) (flow.Scheduler, error) {
	s.cluster, s.master = cluster, master
	s.binder = bind.Workers(cluster, master, map[string]string{"app": "wq-worker"})
	return master, nil
}

func (s *workerSetScaler) control(sm *sampler) {
	if s.pod.IsZero() {
		s.pod = s.cluster.Config().NodeAllocatable
	}
	s.ws = kubesim.NewWorkerSet(s.cluster, "wq-workers", kubesim.PodSpec{
		Image:     "wq-worker",
		Resources: s.pod,
		Labels:    map[string]string{"app": "wq-worker"},
	}, s.replicas)
	s.finishController = s.controller(s.cluster, s.ws, s.master, sm)
}

func (s *workerSetScaler) stop(_ *RunResult, done func()) { done() }

func (s *workerSetScaler) finish(res *RunResult) error {
	s.finishController(res)
	s.ws.Stop()
	return s.binder.Err()
}

// staticScaler is a fixed fleet of n workers added straight to the
// master: no cluster, no controller.
type staticScaler struct {
	n    int
	size resources.Vector
}

func (s staticScaler) attach(_ *simclock.Engine, _ *kubesim.Cluster, master *wq.Master) (flow.Scheduler, error) {
	for i := 0; i < s.n; i++ {
		if err := master.AddWorker(fmt.Sprintf("w%d", i+1), s.size); err != nil {
			return nil, err
		}
	}
	return master, nil
}

func (staticScaler) control(*sampler)               {}
func (staticScaler) stop(_ *RunResult, done func()) { done() }
func (staticScaler) finish(*RunResult) error        { return nil }

// batch submits a DAG workload at the start through one flow.Runner.
func batch(wl Workload) source {
	return func(_ *simclock.Engine, _ *wq.Master, sched flow.Scheduler, end func(bool)) func(*RunResult) error {
		r := flow.NewRunner(wl.Graph, sched, wl.Spec)
		r.OnAllDone(func() { end(true) })
		r.Start()
		return func(*RunResult) error { return r.Err() }
	}
}

// --- HTA scenario ---

// HTAOptions configures an HTA run.
type HTAOptions struct {
	Kube        kubesim.Config
	HTA         core.Config
	LinkMBps    float64
	Contention  float64
	PerTransfer float64
	Timeout     time.Duration // simulated; default 24 h
	// Categories, when set, enables per-category outstanding series.
	Categories []string
	// Policy selects the master's dispatch policy (default FirstFit).
	Policy wq.Policy
	// Retry is the master's recovery policy (zero = infinite retries,
	// no backoff, no fast-abort — the pre-fault-tolerance behavior).
	Retry wq.RetryPolicy
	// Admission bounds the master's waiting queue (zero = unbounded,
	// the classic work queue).
	Admission wq.AdmissionPolicy
	// Chaos, when set and enabled, injects faults into the run.
	Chaos *chaos.Plan
	// ReferenceLink routes the egress link through the retained
	// walk-everything netsim implementation (differential runs).
	ReferenceLink bool
	// ReferenceEngine runs the whole scenario on the retained
	// container/heap event core (differential runs).
	ReferenceEngine bool
	// SampleEvery overrides the sampler period (0 = SampleInterval).
	SampleEvery time.Duration
}

// RunHTA executes the workload through the full HTA stack.
func RunHTA(name string, wl Workload, opt HTAOptions) (*RunResult, error) {
	return run(name, opt.env(), &htaScaler{cfg: opt.HTA}, batch(wl))
}

func (o HTAOptions) env() env {
	return env{
		kube: &o.Kube, linkMBps: o.LinkMBps, contention: o.Contention, perTransfer: o.PerTransfer,
		referenceLink: o.ReferenceLink, referenceEngine: o.ReferenceEngine,
		policy: &o.Policy, retry: o.Retry, admission: o.Admission, chaos: o.Chaos,
		timeout: o.Timeout, sampleEvery: o.SampleEvery, categories: o.Categories, maxIdeal: o.Kube.MaxNodes,
	}
}

// --- HPA scenario ---

// HPAOptions configures a baseline run scaled by the Horizontal Pod
// Autoscaler over a WorkerSet of fixed-size worker pods.
type HPAOptions struct {
	Kube            kubesim.Config
	HPA             hpa.Config
	PodResources    resources.Vector
	InitialReplicas int
	LinkMBps        float64
	Contention      float64
	PerTransfer     float64
	Timeout         time.Duration
	Categories      []string
	// Retry is the master's recovery policy.
	Retry wq.RetryPolicy
	// Admission bounds the master's waiting queue (zero = unbounded).
	Admission wq.AdmissionPolicy
	// Chaos, when set and enabled, injects faults into the run.
	Chaos *chaos.Plan
	// ReferenceLink routes the egress link through the retained
	// walk-everything netsim implementation (differential runs).
	ReferenceLink bool
	// ReferenceEngine runs the whole scenario on the retained
	// container/heap event core (differential runs).
	ReferenceEngine bool
	// SampleEvery overrides the sampler period (0 = SampleInterval).
	SampleEvery time.Duration
}

// RunHPA executes the workload on an HPA-scaled worker fleet.
func RunHPA(name string, wl Workload, opt HPAOptions) (*RunResult, error) {
	return run(name, opt.env(), opt.workerSet(), batch(wl))
}

func (o HPAOptions) env() env {
	return env{
		kube: &o.Kube, linkMBps: o.LinkMBps, contention: o.Contention, perTransfer: o.PerTransfer,
		referenceLink: o.ReferenceLink, referenceEngine: o.ReferenceEngine,
		retry: o.Retry, admission: o.Admission, chaos: o.Chaos,
		timeout: o.Timeout, sampleEvery: o.SampleEvery, categories: o.Categories, maxIdeal: o.HPA.MaxReplicas,
	}
}

// workerSet is the HPA over a WorkerSet, by default of three 1-core
// pods.
func (o HPAOptions) workerSet() scaler {
	if o.PodResources.IsZero() {
		o.PodResources = resources.New(1, 4096, 10000)
	}
	if o.InitialReplicas == 0 {
		o.InitialReplicas = 3
	}
	return &workerSetScaler{pod: o.PodResources, replicas: o.InitialReplicas,
		controller: func(c *kubesim.Cluster, ws *kubesim.WorkerSet, _ *wq.Master, sm *sampler) func(*RunResult) {
			h := hpa.New(c, ws, o.HPA)
			sm.desiredFn = func() int { return h.LastDesired }
			return func(res *RunResult) {
				h.Stop()
				res.ScalingActions = h.Actions()
			}
		}}
}

// --- static scenario ---

// StaticOptions configures a fixed worker fleet (no autoscaler, no
// cluster simulation) — the worker-sizing study of Fig. 4 and the
// ideal baseline of Fig. 2.
type StaticOptions struct {
	Workers         int
	WorkerResources resources.Vector
	LinkMBps        float64
	Contention      float64
	PerTransfer     float64
	Timeout         time.Duration
	// Retry is the master's recovery policy.
	Retry wq.RetryPolicy
	// Chaos, when set and enabled, injects worker-crash and egress
	// faults (no cluster exists in a static run).
	Chaos *chaos.Plan
	// ReferenceLink routes the egress link through the retained
	// walk-everything netsim implementation (differential runs).
	ReferenceLink bool
	// ReferenceEngine runs the whole scenario on the retained
	// container/heap event core (differential runs).
	ReferenceEngine bool
	// SampleEvery overrides the sampler period (0 = SampleInterval).
	SampleEvery time.Duration
}

// RunStatic executes the workload on a fixed fleet.
func RunStatic(name string, wl Workload, opt StaticOptions) (*RunResult, error) {
	e := env{
		linkMBps: opt.LinkMBps, contention: opt.Contention, perTransfer: opt.PerTransfer,
		referenceLink: opt.ReferenceLink, referenceEngine: opt.ReferenceEngine,
		retry: opt.Retry, chaos: opt.Chaos, timeout: opt.Timeout, sampleEvery: opt.SampleEvery, maxIdeal: opt.Workers,
	}
	return run(name, e, staticScaler{n: opt.Workers, size: opt.WorkerResources}, batch(wl))
}
