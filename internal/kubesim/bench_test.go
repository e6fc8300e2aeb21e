package kubesim

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"hta/internal/simclock"
)

// BenchmarkSchedulerSweep measures one scheduler pass over a cluster
// with 100 nodes and 300 pods.
func BenchmarkSchedulerSweep(b *testing.B) {
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{InitialNodes: 100, MaxNodes: 100, Seed: 1})
	defer c.Stop()
	for i := 0; i < 300; i++ {
		c.CreatePod(smallPod(fmt.Sprintf("p%d", i)))
	}
	eng.RunFor(time.Minute) // bind + start everything
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.scheduleOnce()
	}
}

// benchChurnCluster builds the ISSUE's scheduling stress fixture: a
// 2000-node cluster with 4000 one-core resident pods bound across the
// first third of the fleet. The mass placement always runs with the
// indexed predicates — a naive mass pass at this scale takes minutes
// and is setup, not the thing measured — and the requested mode is
// restored before the churn rounds.
func benchChurnCluster(b *testing.B, naive bool) *Cluster {
	b.Helper()
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{
		InitialNodes:    2000,
		MinNodes:        2000,
		MaxNodes:        2000,
		Seed:            1,
		NaiveScheduling: naive,
	})
	b.Cleanup(c.Stop)
	c.cfg.NaiveScheduling = false
	for i := 0; i < 4000; i++ {
		if _, err := c.CreatePod(smallPod(fmt.Sprintf("resident-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	c.scheduleOnce()
	if n := len(c.pendingUnbound()); n != 0 {
		b.Fatalf("%d residents unschedulable after setup", n)
	}
	c.cfg.NaiveScheduling = naive
	return c
}

// churnRound deletes the 1000 pods bound to the lowest-indexed nodes,
// creates 1000 replacements and runs one scheduler pass. Victims come
// from the front of the first-fit order so the freed slots refill in a
// steady state round after round, keeping the round's cost dominated
// by the scheduling predicates rather than scan depth.
func churnRound(b *testing.B, c *Cluster, round int) {
	b.Helper()
	victims := make([]string, 0, 1000)
	for _, n := range c.sortedNodes() {
		if len(victims) == 1000 {
			break
		}
		bucket := make([]string, 0, len(c.podsByNode[n.Name]))
		for name := range c.podsByNode[n.Name] {
			bucket = append(bucket, name)
		}
		sort.Strings(bucket)
		for _, name := range bucket {
			if len(victims) == 1000 {
				break
			}
			victims = append(victims, name)
		}
	}
	for _, name := range victims {
		if err := c.DeletePod(name); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.CreatePod(smallPod(fmt.Sprintf("churn-%d-%d", round, i))); err != nil {
			b.Fatal(err)
		}
	}
	c.scheduleOnce()
	if n := len(c.pendingUnbound()); n != 0 {
		b.Fatalf("round %d: %d pods unschedulable", round, n)
	}
}

func benchKubesimChurn(b *testing.B, naive bool) {
	c := benchChurnCluster(b, naive)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 4; r++ {
			churnRound(b, c, i*4+r)
		}
	}
}

// BenchmarkKubesimSchedule measures the indexed control plane on the
// 2000-node cluster under 4000 pods of churn per iteration.
func BenchmarkKubesimSchedule(b *testing.B) { benchKubesimChurn(b, false) }

// BenchmarkKubesimScheduleNaive runs the identical churn with the
// retained naive predicates — the baseline for the speedup claim.
func BenchmarkKubesimScheduleNaive(b *testing.B) { benchKubesimChurn(b, true) }

// BenchmarkClusterLifecycle measures a complete scale-up/down cycle:
// 20 node-sized pods on a 3-node cluster growing to quota.
func BenchmarkClusterLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simclock.NewEngine(t0)
		c := NewCluster(eng, Config{InitialNodes: 3, MaxNodes: 20, Seed: int64(i + 1)})
		for j := 0; j < 20; j++ {
			spec := smallPod(fmt.Sprintf("p%d", j))
			spec.Resources = c.Config().NodeAllocatable
			c.CreatePod(spec)
		}
		eng.RunFor(10 * time.Minute)
		if got := c.ReadyNodes(); got != 20 {
			b.Fatalf("nodes = %d", got)
		}
		c.Stop()
	}
}

// backlogCluster builds a cluster at its quota of nodes nodes, each
// filled by one node-sized pod, with nodes more node-sized pods
// pending and already marked unschedulable — the control plane of a
// saturated HTA fleet whose backlog waits for capacity. Setup always
// runs the indexed path; the requested mode is set afterwards.
func backlogCluster(tb testing.TB, nodes int, naive bool) *Cluster {
	tb.Helper()
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{InitialNodes: nodes, MinNodes: nodes, MaxNodes: nodes, Seed: 1})
	tb.Cleanup(c.Stop)
	for i := 0; i < 2*nodes; i++ {
		spec := smallPod(fmt.Sprintf("p%d", i))
		spec.Resources = c.Config().NodeAllocatable
		if _, err := c.CreatePod(spec); err != nil {
			tb.Fatal(err)
		}
	}
	c.scheduleOnce()
	if n := len(c.pendingUnbound()); n != nodes {
		tb.Fatalf("%d pods pending after setup, want %d", n, nodes)
	}
	c.cfg.NaiveScheduling = naive
	return c
}

// controlPlaneTick runs one scheduler pass and one cloud-controller
// pass.
func controlPlaneTick(c *Cluster) {
	c.scheduleOnce()
	c.cloudControllerOnce()
}

func benchSchedulerBacklog(b *testing.B, nodes int, naive bool) {
	c := backlogCluster(b, nodes, naive)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		controlPlaneTick(c)
	}
}

// BenchmarkSchedulerBacklog measures a control-plane tick (scheduler
// plus cloud-controller pass) of a fleet at its quota with a backlog
// as large as the fleet: up to 10k node-sized pods over 10k full
// nodes, the saturated phase of io-fleet.
func BenchmarkSchedulerBacklog(b *testing.B) {
	for _, nodes := range []int{200, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchSchedulerBacklog(b, nodes, false)
		})
	}
}

// BenchmarkSchedulerBacklogNaive runs the same tick with the retained
// naive predicates, whose pod-store scans make each tick
// O(backlog × nodes × pods); it stops at 200 nodes, as 1k nodes
// already takes about 45 s per tick.
func BenchmarkSchedulerBacklogNaive(b *testing.B) {
	b.Run("nodes=200", func(b *testing.B) { benchSchedulerBacklog(b, 200, true) })
}

// TestControlPlaneTickZeroAlloc pins the saturated control-plane tick
// at zero allocations: the pending queue is compacted in place, every
// backlog pod is rejected at the fit index's root, and the cloud
// controller skips the estimate at the quota.
func TestControlPlaneTickZeroAlloc(t *testing.T) {
	c := backlogCluster(t, 200, false)
	if allocs := testing.AllocsPerRun(20, func() { controlPlaneTick(c) }); allocs != 0 {
		t.Fatalf("control-plane tick allocates %.1f times, want 0", allocs)
	}
}
