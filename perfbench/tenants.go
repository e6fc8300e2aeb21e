package main

import (
	"fmt"
	"math/rand"
	"time"

	"hta/internal/arbiter"
	"hta/internal/experiments"
	"hta/internal/kubesim"
	"hta/internal/metrics"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// The tenants workload is E-J's cell driven through the arbiter's and
// the tenant masters' public calls, so the benchmark can time set-up
// apart from the run and sample waste and shortage, which E-J does not
// report. The inputs and the cell logic follow
// experiments.TenantsEJWith, and every run requires identical rows, so
// the two cannot drift apart unnoticed.

func tenantsConfig(cfg config) experiments.TenantsEJConfig {
	if cfg.small {
		return experiments.DefaultTenantsEJConfig(cfg.seed, 60)
	}
	return experiments.DefaultTenantsEJConfig(cfg.seed, 1000)
}

// tenantLoad is one tenant's workload: specs plus submit offsets.
type tenantLoad struct {
	kind   string
	weight int
	specs  []wq.TaskSpec
	at     []time.Duration
}

// tenantLoads generates the tenant mix exactly as E-J does (tenant i
// gets kind i mod 3, one seeded generator in tenant order).
func tenantLoads(c experiments.TenantsEJConfig) []tenantLoad {
	rng := rand.New(rand.NewSource(c.Seed))
	loads := make([]tenantLoad, c.Tenants)
	for i := range loads {
		ld := &loads[i]
		switch i % 3 {
		case 0:
			ld.kind, ld.weight = "blast", 1
			for j := 0; j < c.BlastTasks; j++ {
				ld.specs = append(ld.specs, wq.TaskSpec{
					Category: "blast",
					Profile: wq.Profile{
						ExecDuration: time.Duration(45+rng.Intn(31)) * time.Second,
						UsedCPUMilli: 870, UsedMemoryMB: 1700,
					},
				})
				ld.at = append(ld.at, 0)
			}
		case 1:
			ld.kind, ld.weight = "io", 1
			for j := 0; j < c.IOTasks; j++ {
				ld.specs = append(ld.specs, wq.TaskSpec{
					Category:  "io",
					Resources: resources.Vector{MilliCPU: 150, MemoryMB: 512},
					Profile: wq.Profile{
						ExecDuration: time.Duration(20+rng.Intn(21)) * time.Second,
						UsedCPUMilli: 150, UsedMemoryMB: 512,
					},
				})
				ld.at = append(ld.at, 0)
			}
		case 2:
			ld.kind, ld.weight = "stream", 2
			for j := 0; j < c.StreamTasks; j++ {
				jitter := time.Duration(rng.Intn(int(c.StreamInterval / 4)))
				ld.specs = append(ld.specs, wq.TaskSpec{
					Category:  "stream",
					Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
					Profile: wq.Profile{
						ExecDuration: time.Duration(100+rng.Intn(41)) * time.Second,
						UsedCPUMilli: 870, UsedMemoryMB: 1700,
					},
				})
				ld.at = append(ld.at, time.Duration(j)*c.StreamInterval+jitter)
			}
		}
	}
	return loads
}

var tenantCells = []struct {
	name   string
	policy arbiter.Policy
	quota  bool
}{
	{"fair-share", arbiter.PolicyFairShare, false},
	{"quota", arbiter.PolicyFairShare, true},
	{"shared", arbiter.PolicyGreedy, false},
}

// tenantCell is one policy cell, set up and ready to run.
type tenantCell struct {
	eng     *simclock.Engine
	cluster *kubesim.Cluster
	arb     *arbiter.Arbiter
	total   int
	done    int
	// lastDone is each tenant's last terminal instant.
	lastDone []time.Time
	sojourns []time.Duration
}

// buildTenantCell builds the engine, cluster and arbiter, adds every
// tenant and submits (or schedules) its tasks, and starts the arbiter.
func buildTenantCell(c experiments.TenantsEJConfig, loads []tenantLoad, policy arbiter.Policy, quota bool, tr *tracer) (*tenantCell, error) {
	tc := &tenantCell{lastDone: make([]time.Time, c.Tenants)}
	tc.eng = simclock.NewEngine(experiments.SimStart)
	tc.cluster = kubesim.NewCluster(tc.eng, c.Kube)
	tc.arb = arbiter.New(tc.eng, tc.cluster, arbiter.Config{
		Cycle:        c.Cycle,
		TotalWorkers: c.TotalWorkers,
		Policy:       policy,
	})
	eng := tc.eng
	for i, ld := range loads {
		cfg := arbiter.TenantConfig{ID: fmt.Sprintf("t%05d", i), Weight: ld.weight}
		if quota {
			switch ld.kind {
			case "stream":
				cfg.QuotaMin = 1
			case "blast":
				cfg.QuotaMax = max(1, 2*c.TotalWorkers/c.Tenants)
			}
		}
		var ten *arbiter.Tenant
		var err error
		tr.span("arbiter", "AddTenant", func() { ten, err = tc.arb.AddTenant(cfg) })
		if err != nil {
			return nil, err
		}
		m := ten.Master()
		m.SetAdmissionPolicy(c.Admission)
		i := i
		terminal := func() { tc.done++; tc.lastDone[i] = eng.Now() }
		m.OnComplete(func(r wq.Result) {
			terminal()
			tc.sojourns = append(tc.sojourns, r.Task.FinishedAt.Sub(r.Task.SubmittedAt))
		})
		m.OnTaskFailed(func(wq.Task) { terminal() })
		m.OnRejected(func(wq.Task) { terminal() })
		for j, spec := range ld.specs {
			tc.total++
			if at := ld.at[j]; at > 0 {
				spec := spec
				eng.At(experiments.SimStart.Add(at), "tenant-submit", func() { m.Submit(spec) })
				continue
			}
			t0 := tr.start()
			m.Submit(spec)
			tr.call(callSubmit, t0)
		}
	}
	var err error
	tr.span("arbiter", "Start", func() { err = tc.arb.Start() })
	return tc, err
}

// tenantAccount samples the tenants' combined supply and demand every
// SampleInterval, with the harness sampler's rules: supply is the
// connected workers' cores, waste the part no task holds, shortage the
// waiting tasks' cores (declared, else the monitor's estimate, else
// one core) bounded by the quota the cluster could still grant.
// The sampler is the benchmark's code, so the host time it spends is
// kept apart and left out of the cell's run body.
type tenantAccount struct {
	acct       *metrics.Account
	quotaCores float64
	host       time.Duration
}

func (ta *tenantAccount) sample(now time.Time, tenants []*arbiter.Tenant, loads []tenantLoad) {
	start := time.Now()
	defer func() { ta.host += time.Since(start) }()
	var supply, inUse, shortage float64
	for i, ten := range tenants {
		s := ten.Master().Stats()
		supply += s.Capacity.CoresValue()
		inUse += s.InUse.CoresValue()
		if s.Waiting == 0 {
			continue
		}
		per := 1.0
		if spec := loads[i].specs[0]; !spec.Resources.IsZero() {
			per = spec.Resources.CoresValue()
		} else if v, ok := ten.Monitor().EstimateResources(spec.Category); ok && v.MilliCPU > 0 {
			per = v.CoresValue()
		}
		shortage += float64(s.Waiting) * per
	}
	shortage = max(0, min(shortage, ta.quotaCores-supply))
	ta.acct.Sample(now, supply, inUse, shortage)
}

// run runs the cell until every task is terminal. When acct is set it
// is sampled alongside.
func (tc *tenantCell) run(c experiments.TenantsEJConfig, loads []tenantLoad, acct *tenantAccount) error {
	if acct != nil {
		tenants := tc.arb.Tenants()
		sample := func() { acct.sample(tc.eng.Now(), tenants, loads) }
		sample()
		ticker := tc.eng.Every(experiments.SampleInterval, "perfbench-account", sample)
		defer ticker.Stop()
	}
	deadline := experiments.SimStart.Add(c.Timeout)
	tc.eng.RunWhile(func() bool { return tc.done < tc.total && tc.eng.Now().Before(deadline) })
	tc.arb.Stop()
	if tc.done != tc.total {
		return fmt.Errorf("tenants cell stalled: %d/%d terminal by %v", tc.done, tc.total, tc.eng.Now())
	}
	return nil
}

// row is the cell's row as E-J reports it.
func (tc *tenantCell) row(c experiments.TenantsEJConfig, name string) experiments.TenantsEJRow {
	row := experiments.TenantsEJRow{Policy: name, Tenants: c.Tenants, Workers: c.TotalWorkers, Submitted: tc.total}
	makespans := make([]time.Duration, c.Tenants)
	xs := make([]float64, c.Tenants)
	var span time.Duration
	var useful float64
	overload := make([]metrics.OverloadCounters, 0, c.Tenants)
	for i, ten := range tc.arb.Tenants() {
		m := tc.lastDone[i].Sub(experiments.SimStart)
		makespans[i] = m
		xs[i] = m.Seconds()
		span = max(span, m)
		useful += ten.Master().FailureStats().UsefulCoreSeconds
		row.Completed += ten.Master().CompletedCount()
		row.Shed += ten.Master().OverloadStats().Shed
		overload = append(overload, ten.Master().OverloadStats())
	}
	mq := metrics.DurationQuantiles(makespans, 0.50, 0.99)
	row.MakespanP50, row.MakespanP99 = mq[0], mq[1]
	row.MakespanMax = span
	row.Jain = metrics.JainIndex(xs)
	nodeCores := float64(tc.cluster.Config().NodeAllocatable.MilliCPU) / 1000
	if env := float64(c.TotalWorkers) * nodeCores * span.Seconds(); env > 0 {
		row.Utilization = useful / env
	}
	row.Overload = metrics.ClusterOverload(overload)
	st := tc.arb.Stats()
	row.Cycles = st.Cycles
	row.Replans = st.Replans
	row.Skipped = st.Skipped
	row.PodsCreated = st.PodsCreated
	return row
}

// quarantined sums the tenants' quarantined tasks.
func (tc *tenantCell) quarantined() int {
	n := 0
	for _, ten := range tc.arb.Tenants() {
		n += ten.Master().QuarantinedCount()
	}
	return n
}

// peakWaiting is the largest waiting queue any tenant master saw.
func (tc *tenantCell) peakWaiting() int {
	n := 0
	for _, ten := range tc.arb.Tenants() {
		n = max(n, ten.Master().OverloadStats().PeakWaiting)
	}
	return n
}

func runTenants(cfg config, tr *tracer) (*outcome, error) {
	c := tenantsConfig(cfg)
	o := &outcome{}
	var loads []tenantLoad
	o.setup = tr.span("workload", "tenant loads", func() { loads = tenantLoads(c) })
	var rows []experiments.TenantsEJRow
	for i, cell := range tenantCells {
		if i > 0 {
			tr.settle()
		}
		var tc *tenantCell
		var err error
		o.setup += tr.span("perfbench", "set up "+cell.name, func() {
			tc, err = buildTenantCell(c, loads, cell.policy, cell.quota, tr)
		})
		if err != nil {
			return nil, err
		}
		var acct *tenantAccount
		if i == 0 {
			acct = &tenantAccount{
				acct:       metrics.NewAccount(),
				quotaCores: float64(c.TotalWorkers) * tc.cluster.Config().NodeAllocatable.CoresValue(),
			}
		}
		d := tr.span("arbiter", "cell "+cell.name, func() { err = tc.run(c, loads, acct) })
		if err != nil {
			return nil, err
		}
		if acct != nil {
			d -= acct.host
		}
		o.run += d
		o.cells = append(o.cells, cellTime{cell.name, d})
		row := tc.row(c, cell.name)
		rows = append(rows, row)
		o.account(cell.name, tc.total, row.Completed, tc.quarantined(), row.Shed, false)
		o.events += tc.eng.Processed()
		o.dispatches += row.Completed
		o.peakWaiting = max(o.peakWaiting, tc.peakWaiting())
		o.arbCycles += row.Cycles
		o.arbReplans += row.Replans
		if i == 0 {
			q := metrics.DurationQuantiles(tc.sojourns, 0.50, 0.99)
			end := experiments.SimStart.Add(row.MakespanMax)
			o.sys = system{
				name: cell.name, submitted: tc.total, completed: row.Completed, quarantined: tc.quarantined(), shed: row.Shed,
				makespan: row.MakespanMax,
				waste:    acct.acct.AccumulatedWaste(end), shortage: acct.acct.AccumulatedShortage(end),
				sojournP50: q[0], sojournP99: q[1], sojournN: len(tc.sojourns),
				hasJain: true, jain: row.Jain, tenants: c.Tenants,
			}
		}
	}
	o.rows = fmt.Sprintf("tenants=%d workers=%d seed=%d\n%+v\n", c.Tenants, c.TotalWorkers, c.Seed, rows)
	o.report = o.rows + fmt.Sprintf("fair-share waste=%.6f shortage=%.6f sojourn p50=%v p99=%v n=%d\n",
		o.sys.waste, o.sys.shortage, o.sys.sojournP50, o.sys.sojournP99, o.sys.sojournN)
	return o, nil
}

func referenceTenants(cfg config) (string, error) {
	rep, err := experiments.TenantsEJWith(tenantsConfig(cfg))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("tenants=%d workers=%d seed=%d\n%+v\n", rep.Tenants, rep.Workers, rep.Seed, rep.Rows), nil
}
