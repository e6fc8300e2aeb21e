package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"hta/internal/core"
	"hta/internal/experiments"
	"hta/internal/kubesim"
	"hta/internal/metrics"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/workload"
	"hta/internal/wq"
)

// workload is one named benchmark input and the calls that drive it.
type benchWorkload struct {
	name string
	// load says whether the workload is an open or a closed loop, and
	// its size.
	load string
	// run sets the workload up from cfg.seed, runs it and checks its
	// outputs. tr is nil in untraced repetitions.
	run func(cfg config, tr *tracer) (*outcome, error)
	// reference, where set, runs the experiments entry point named by
	// mirrors at cfg.seed and renders its rows as run renders its
	// outcome's rows. Every run calls it once, untimed, and requires
	// the given seed's rows to equal it.
	reference func(cfg config) (string, error)
	mirrors   string
}

var workloads = []benchWorkload{
	{
		name: "dispatch-storm",
		load: "closed loop: 1M known-size tasks submitted at t=0 over 100k 4-core workers on one wq master, no autoscaler",
		run:  runDispatchStorm,
	},
	{
		name:      "io-fleet",
		load:      "closed loop: E-H's HTA cell, 40k I/O-bound tasks submitted at t=0 under a 10k-worker quota on a 10 GB/s egress link",
		run:       runIOFleet,
		reference: referenceIOFleet,
		mirrors:   "experiments.IOScaleEHWith (E-H, 10k HTA row)",
	},
	{
		name:      "stream-day",
		load:      "open loop: E-I's 24 h diurnal trace with the 9:00 storm (Poisson arrivals, ~6.5k tasks) under HPA, HTA and HTA-panic",
		run:       runStreamDay,
		reference: referenceStreamDay,
		mirrors:   "experiments.StreamEIWith (E-I)",
	},
	{
		name:      "tenants",
		load:      "closed loop per tenant: E-J at 1000 tenants (bursts at t=0, stream tenants trickling) under fair-share, quota and shared policies",
		run:       runTenants,
		reference: referenceTenants,
		mirrors:   "experiments.TenantsEJWith (E-J)",
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// outcome is what one repetition of a workload did.
type outcome struct {
	setup time.Duration // host time outside the engine: inputs and stack construction
	run   time.Duration // host time inside the engine (the run body)

	// Totals over all cells.
	submitted, completed int
	lost                 int // submitted but neither completed, quarantined nor shed
	unfinished           int // batch tasks that did not complete
	problems             []string

	sys system // the system cell's simulated outcome
	// rows renders, in full precision, the rows the mirrored
	// experiments entry point reports; report adds what the benchmark
	// measured itself. The digest covers report.
	rows, report string
	cells        []cellTime

	// Per-layer counters, summed over cells.
	events      uint64
	requeues    int
	dispatches  int
	shed        int
	peakWaiting int
	peakNodes   int
	avgMBps     float64
	hpaActions  int
	coreActions int
	panics      int
	arbCycles   int
	arbReplans  int
	// retained is the heap retained by the set-up stack (traced
	// dispatch-storm repetitions only), in bytes.
	retained float64
}

// system is the simulated outcome of a workload's system cell: the one
// whose figures the end-to-end metrics report.
type system struct {
	name                                    string
	submitted, completed, quarantined, shed int
	makespan                                time.Duration
	waste, shortage                         float64 // core·s
	sojournP50, sojournP99                  time.Duration
	sojournN                                int
	hasScaler                               bool
	scalingActions                          int
	hasJain                                 bool
	jain                                    float64
	tenants                                 int
}

func (s system) failedFrac() float64 {
	return float64(s.submitted-s.completed) / float64(s.submitted)
}

// cellTime is the host time of one cell's run body.
type cellTime struct {
	name string
	host time.Duration
}

// account adds one cell's task counts and checks conservation
// (submitted = completed + quarantined + shed) and, for a batch cell,
// that every task completed.
func (o *outcome) account(cell string, submitted, completed, quarantined, shed int, batch bool) {
	o.submitted += submitted
	o.completed += completed
	o.shed += shed
	if lost := submitted - completed - quarantined - shed; lost != 0 {
		o.lost += lost
		o.problems = append(o.problems, fmt.Sprintf("%s: submitted %d != completed %d + quarantined %d + shed %d",
			cell, submitted, completed, quarantined, shed))
	}
	if batch && completed != submitted {
		o.unfinished += submitted - completed
		o.problems = append(o.problems, fmt.Sprintf("%s: batch cell completed %d of %d tasks", cell, completed, submitted))
	}
}

// digest identifies the simulated statistics of a repetition.
func (o *outcome) digest() string {
	sum := sha256.Sum256([]byte(o.report))
	return hex.EncodeToString(sum[:8])
}

// --- dispatch-storm ---

// stormSize is the dispatch-storm cell: workers and tasks.
func stormSize(cfg config) (int, int) {
	if cfg.small {
		return 1_000, 10_000
	}
	return 100_000, 1_000_000
}

var stormWorker = resources.New(4, 16384, 100000)

// buildStorm constructs the engine and master, connects the workers and
// submits the tasks: the BENCH_10 dispatch cell, driven through wq's
// public calls.
func buildStorm(cfg config, tr *tracer) (*simclock.Engine, *wq.Master, error) {
	workers, tasks := stormSize(cfg)
	eng := simclock.NewEngine(experiments.SimStart)
	m := wq.NewMaster(eng, nil)
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("w%d", w)
		t0 := tr.start()
		err := m.AddWorker(id, stormWorker)
		tr.call(callAddWorker, t0)
		if err != nil {
			return nil, nil, err
		}
	}
	rng := simclock.NewRNG(cfg.seed)
	for t := 0; t < tasks; t++ {
		spec := wq.TaskSpec{
			Category:  "bench",
			Resources: resources.New(1, 1024, 100),
			Profile: wq.Profile{
				ExecDuration: time.Duration(rng.Jitter(float64(5*time.Minute), 0.8)),
				UsedCPUMilli: 900,
				UsedMemoryMB: 512,
			},
		}
		t0 := tr.start()
		m.Submit(spec)
		tr.call(callSubmit, t0)
	}
	return eng, m, nil
}

func runDispatchStorm(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var eng *simclock.Engine
	var m *wq.Master
	var err error
	o.setup = tr.span("wq", "set up storm", func() { eng, m, err = buildStorm(cfg, tr) })
	if err != nil {
		return nil, err
	}
	o.retained = tr.retainedHeap()
	o.run = tr.span("simclock", "Engine.Step loop", func() {
		if tr == nil {
			for eng.Step() {
			}
			return
		}
		for {
			t0 := time.Now()
			ok := eng.Step()
			tr.call(callStep, t0)
			if !ok {
				return
			}
		}
	})
	tr.endRun()
	o.cells = []cellTime{{"storm", o.run}}
	o.events = eng.Processed()

	// Everything below reads the finished master; none of it is timed
	// or profiled.
	workers, _ := stormSize(cfg)
	n := m.SubmittedCount()
	var last time.Time
	var busy, wait float64 // core·s
	sojourns := make([]time.Duration, 0, n)
	for id := 1; id <= n; id++ {
		t, ok := m.Task(id)
		if !ok || t.State != wq.TaskComplete {
			continue
		}
		cores := t.Allocated.CoresValue()
		busy += cores * t.FinishedAt.Sub(t.StartedAt).Seconds()
		wait += cores * t.StartedAt.Sub(t.SubmittedAt).Seconds()
		sojourns = append(sojourns, t.FinishedAt.Sub(t.SubmittedAt))
		if t.FinishedAt.After(last) {
			last = t.FinishedAt
		}
		o.dispatches += t.Attempts
		o.requeues += t.Attempts - 1
	}
	completed := m.CompletedCount()
	o.account("storm", n, completed, m.QuarantinedCount(), m.ShedCount(), true)
	if len(sojourns) != completed {
		o.problems = append(o.problems, fmt.Sprintf("storm: %d completed task records for %d completions", len(sojourns), completed))
	}
	o.peakWaiting = n // every task is queued at t=0
	makespan := last.Sub(experiments.SimStart)
	capacity := float64(workers) * stormWorker.CoresValue() * makespan.Seconds()
	q := metrics.DurationQuantiles(sojourns, 0.50, 0.99)
	o.sys = system{
		name: "storm", submitted: n, completed: completed, quarantined: m.QuarantinedCount(), shed: m.ShedCount(),
		makespan: makespan, waste: capacity - busy, shortage: wait,
		sojournP50: q[0], sojournP99: q[1], sojournN: len(sojourns),
	}
	o.rows = fmt.Sprintf("storm: workers=%d tasks=%d completed=%d events=%d makespan=%v waste=%.6f shortage=%.6f p50=%v p99=%v\n",
		workers, n, completed, o.events, makespan, o.sys.waste, o.sys.shortage, q[0], q[1])
	o.report = o.rows
	return o, nil
}

// --- io-fleet ---

// ioFleetConfig is E-H's configuration with the sweep cut to its
// 10k-worker fleet (100 workers for tests).
func ioFleetConfig(cfg config) experiments.IOScaleConfig {
	c := experiments.DefaultIOScale()
	c.Seed = cfg.seed
	c.Workers = []int{10_000}
	if cfg.small {
		c.Workers = []int{100}
	}
	return c
}

// ioFleetInputs generates the cell's task bag as E-H does for an HTA
// cell: undeclared, so the monitor measures the category.
func ioFleetInputs(c experiments.IOScaleConfig, tr *tracer) (experiments.Workload, error) {
	p := workload.DefaultIOBound()
	p.N = c.TasksPerWorker * c.Workers[0]
	p.ExecMean = c.ExecMean
	p.ExecJitter = c.ExecJitter
	p.InputMB = c.InputMB
	p.OutputMB = c.OutputMB
	p.Seed = c.Seed
	var specs []wq.TaskSpec
	tr.span("workload", "IOBoundParams.Specs", func() { specs = p.Specs() })
	var wl experiments.Workload
	var err error
	tr.span("flow", "experiments.Flat", func() { wl, err = experiments.Flat(specs) })
	return wl, err
}

func runIOFleet(cfg config, tr *tracer) (*outcome, error) {
	c := ioFleetConfig(cfg)
	w := c.Workers[0]
	o := &outcome{}
	var wl experiments.Workload
	var err error
	o.setup = tr.span("perfbench", "set up io-fleet", func() { wl, err = ioFleetInputs(c, tr) })
	if err != nil {
		return nil, err
	}
	// E-H's HTA cell options: saturated waves of node-sized workers
	// plus the autoscaler ramp, the sampler period scaled to the
	// expected runtime.
	expected := time.Duration(c.TasksPerWorker/3+1)*c.ExecMean*4 + time.Hour
	opt := experiments.HTAOptions{
		Kube: kubesim.Config{
			InitialNodes:   3,
			MinNodes:       1,
			MaxNodes:       w,
			ScaleDownDelay: 10 * time.Minute,
			Seed:           c.Seed,
		},
		HTA:         core.Config{MaxWorkers: w},
		LinkMBps:    c.LinkMBps,
		PerTransfer: c.PerTransfer,
		Timeout:     expected,
		SampleEvery: max(expected/1500, experiments.SampleInterval),
	}
	name := fmt.Sprintf("HTA/W=%d", w)
	var res *experiments.RunResult
	o.run = tr.span("experiments", "RunHTA "+name, func() { res, err = experiments.RunHTA(name, wl, opt) })
	if err != nil {
		return nil, err
	}
	o.cells = []cellTime{{"hta", o.run}}
	o.addRun(res, true)
	o.sys = system{
		name: name, submitted: res.Submitted, completed: res.Completed, quarantined: res.Failures.Quarantined, shed: res.Shed,
		makespan: res.Runtime, waste: res.AccumulatedWaste(), shortage: res.AccumulatedShortage(),
		hasScaler: true, scalingActions: res.ScalingActions,
	}
	o.coreActions = res.ScalingActions
	o.rows = fmt.Sprintf("%+v\n", ioFleetRow(c, res))
	o.report = o.rows
	return o, nil
}

// ioFleetRow is the cell's row as E-H reports it.
func ioFleetRow(c experiments.IOScaleConfig, res *experiments.RunResult) experiments.IOScaleRow {
	return experiments.IOScaleRow{
		Scaler:      "HTA",
		Workers:     c.Workers[0],
		Tasks:       c.TasksPerWorker * c.Workers[0],
		Runtime:     res.Runtime,
		Completed:   res.Completed,
		Submitted:   res.Submitted,
		PeakWorkers: int(res.Workers.Max()),
		AvgMBps:     res.AvgBandwidthMBps,
		Waste:       res.AccumulatedWaste(),
		Shortage:    res.AccumulatedShortage(),
	}
}

func referenceIOFleet(cfg config) (string, error) {
	rep, err := experiments.IOScaleEHWith(ioFleetConfig(cfg))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v\n", rep.Rows[0]), nil
}

// addRun adds a harness run's task counts and layer counters.
func (o *outcome) addRun(res *experiments.RunResult, batch bool) {
	o.account(res.Name, res.Submitted, res.Completed, res.Failures.Quarantined, res.Shed, batch)
	o.requeues += res.Requeues
	o.dispatches += res.Completed + res.Requeues
	o.peakNodes = max(o.peakNodes, int(res.Nodes.Max()))
	o.avgMBps = max(o.avgMBps, res.AvgBandwidthMBps)
	o.panics += res.Panics
}

// --- stream-day ---

func streamDayConfig(cfg config) experiments.StreamEIConfig {
	if cfg.small {
		return experiments.SmokeStreamEIConfig(cfg.seed)
	}
	return experiments.DefaultStreamEIConfig(cfg.seed)
}

// streamDayInputs generates the arrival trace twice, as E-I does: a
// declared copy for the HPA cell and an undeclared one for HTA.
func streamDayInputs(c experiments.StreamEIConfig, tr *tracer) (declared, undeclared []workload.TimedTask) {
	decl := c.Trace
	decl.Declared = true
	tr.span("workload", "StreamParams.Tasks declared", func() { declared = decl.Tasks() })
	tr.span("workload", "StreamParams.Tasks", func() { undeclared = c.Trace.Tasks() })
	return declared, undeclared
}

func runStreamDay(cfg config, tr *tracer) (*outcome, error) {
	c := streamDayConfig(cfg)
	o := &outcome{}
	var declared, tasks []workload.TimedTask
	o.setup = tr.span("perfbench", "set up stream-day", func() { declared, tasks = streamDayInputs(c, tr) })

	htaOpt := experiments.HTAOptions{
		Kube:      c.Kube,
		HTA:       core.Config{MaxWorkers: c.MaxWorkers, DefaultCycle: c.Cycle},
		Admission: c.Admission,
		Timeout:   c.Timeout,
	}
	panicOpt := htaOpt
	panicOpt.HTA.Panic = c.Panic
	panicOpt.HTA.Panic.Enabled = true
	cells := []struct {
		name, key string
		run       func() (*experiments.RunResult, error)
	}{
		{"HPA", "hpa", func() (*experiments.RunResult, error) {
			return experiments.RunHPAStream("HPA", declared, experiments.HPAOptions{
				Kube: c.Kube, HPA: c.HPA, Admission: c.Admission, Timeout: c.Timeout,
			})
		}},
		{"HTA", "hta", func() (*experiments.RunResult, error) { return experiments.RunHTAStream("HTA", tasks, htaOpt) }},
		{"HTA-panic", "hta-panic", func() (*experiments.RunResult, error) {
			return experiments.RunHTAStream("HTA-panic", tasks, panicOpt)
		}},
	}
	var rows []experiments.StreamEIRow
	for i, cell := range cells {
		if i > 0 {
			tr.settle()
		}
		var res *experiments.RunResult
		var err error
		d := tr.span("experiments", "cell "+cell.name, func() { res, err = cell.run() })
		if err != nil {
			return nil, err
		}
		o.run += d
		o.cells = append(o.cells, cellTime{cell.key, d})
		o.addRun(res, false)
		rows = append(rows, streamRow(res))
		if i == 0 {
			o.hpaActions = res.ScalingActions
		} else {
			o.coreActions += res.ScalingActions
		}
		if cell.name == "HTA-panic" {
			o.sys = system{
				name: res.Name, submitted: res.Submitted, completed: res.Completed, quarantined: res.Failures.Quarantined, shed: res.Shed,
				makespan: res.Runtime, waste: res.AccumulatedWaste(), shortage: res.AccumulatedShortage(),
				sojournP50: res.SojournP50, sojournP99: res.SojournP99, sojournN: res.Completed,
				hasScaler: true, scalingActions: res.ScalingActions,
			}
		}
	}
	o.rows = fmt.Sprintf("tasks=%d window=%v\n%+v\n", len(declared), c.Trace.Window, rows)
	o.report = o.rows
	return o, nil
}

// streamRow is a cell's row as E-I reports it.
func streamRow(res *experiments.RunResult) experiments.StreamEIRow {
	q := res.Failures.Quarantined
	return experiments.StreamEIRow{
		Autoscaler:  res.Name,
		Submitted:   res.Submitted,
		Completed:   res.Completed,
		Quarantined: q,
		Shed:        res.Shed,
		ShedRate:    float64(res.Shed) / float64(res.Submitted),
		P50:         res.SojournP50,
		P99:         res.SojournP99,
		Actions:     res.ScalingActions,
		Panics:      res.Panics,
		Waste:       res.AccumulatedWaste(),
	}
}

func referenceStreamDay(cfg config) (string, error) {
	rep, err := experiments.StreamEIWith(streamDayConfig(cfg))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("tasks=%d window=%v\n%+v\n", rep.Tasks, rep.Window, rep.Rows), nil
}
