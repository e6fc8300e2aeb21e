package kubesim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// churnResult captures everything observable about a cluster run: the
// full control-plane event log (which embeds every bind, every
// FailedScheduling record, every scale-up/down and node loss in
// order), plus the final pod and node states.
type churnResult struct {
	events []Event
	pods   []Pod
	nodes  []Node
}

// runChurnScript drives a cluster through a seeded, randomized
// node/pod churn: mixed-size and zero-request pod creation, deletions,
// graceful completions, chaos-style node preemptions and failures,
// image-pull faults, and a WorkerSet resizing under it. Midway a
// backlog of node-sized pods larger than the quota arrives on top of
// the mixed-size queue, so the cluster-autoscaler estimate packs mixed
// sizes into hypothetical nodes and then hits the quota. Every
// decision the script makes is derived from cluster state that the
// differential assertion proves identical, so the naive and indexed
// clusters replay the exact same operation sequence.
func runChurnScript(t *testing.T, seed int64, maxNodes int, naive bool) churnResult {
	t.Helper()
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{
		InitialNodes:    6,
		MinNodes:        2,
		MaxNodes:        maxNodes,
		Seed:            seed,
		NaiveScheduling: naive,
		ScaleDownDelay:  90 * time.Second,
	})
	defer c.Stop()
	// Deterministic pull fault: fails the first attempt for a slice of
	// node/image pairs, exercising the kubelet backoff path.
	c.SetPullFault(func(node, image string, attempt int) PullFault {
		if attempt == 1 && (len(node)+len(image))%5 == 0 {
			return PullFault{Fail: true}
		}
		return PullFault{}
	})
	ws := NewWorkerSet(c, "churn-ws", PodSpec{
		Image:     "wq-worker:latest",
		Resources: resources.New(1, 2048, 100),
		Labels:    map[string]string{"app": "worker"},
	}, 3)
	defer ws.Stop()

	rng := rand.New(rand.NewSource(seed))
	cpus := []float64{0.5, 1, 2, 3, 4} // 4 cores never fits a node
	mems := []int64{512, 2048, 4096}
	podN := 0
	for step := 0; step < 80; step++ {
		if step == 40 {
			for i := 0; i < maxNodes+4; i++ {
				podN++
				spec := PodSpec{
					Name:      fmt.Sprintf("churn-%d", podN),
					Image:     "img-0",
					Resources: c.Config().NodeAllocatable,
				}
				if _, err := c.CreatePod(spec); err != nil {
					t.Fatalf("create: %v", err)
				}
			}
		}
		switch rng.Intn(6) {
		case 0, 1: // create a burst of mixed-size pods
			for i := rng.Intn(5); i >= 0; i-- {
				podN++
				spec := PodSpec{
					Name:      fmt.Sprintf("churn-%d", podN),
					Image:     fmt.Sprintf("img-%d", rng.Intn(3)),
					Resources: resources.New(cpus[rng.Intn(len(cpus))], mems[rng.Intn(len(mems))], 100),
					Labels:    map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(3))},
				}
				if rng.Intn(8) == 0 {
					spec.Resources = resources.Zero
				}
				if _, err := c.CreatePod(spec); err != nil {
					t.Fatalf("create: %v", err)
				}
			}
		case 2: // delete a random pod
			if pods := c.ListPods(nil); len(pods) > 0 {
				_ = c.DeletePod(pods[rng.Intn(len(pods))].Name)
			}
		case 3: // gracefully complete a random running pod
			var run []Pod
			for _, p := range c.ListPods(nil) {
				if p.Phase == PodRunning {
					run = append(run, p)
				}
			}
			if len(run) > 0 {
				if err := c.MarkPodSucceeded(run[rng.Intn(len(run))].Name); err != nil {
					t.Fatalf("succeed: %v", err)
				}
			}
		case 4: // chaos: preempt or hard-fail a node
			if names := c.ReadyNodeNames(); len(names) > 2 {
				name := names[rng.Intn(len(names))]
				var err error
				if rng.Intn(2) == 0 {
					err = c.PreemptNode(name)
				} else {
					err = c.FailNode(name)
				}
				if err != nil {
					t.Fatalf("node loss: %v", err)
				}
			}
		case 5: // resize the worker set
			ws.SetReplicas(rng.Intn(8))
		}
		eng.RunFor(time.Duration(rng.Intn(25)+1) * time.Second)
	}
	eng.RunFor(5 * time.Minute)
	return churnResult{events: c.Events(), pods: c.ListPods(nil), nodes: c.Nodes()}
}

func diffEvents(t *testing.T, naive, indexed []Event) {
	t.Helper()
	n := len(naive)
	if len(indexed) < n {
		n = len(indexed)
	}
	for i := 0; i < n; i++ {
		if naive[i] != indexed[i] {
			t.Fatalf("event %d diverges:\n  naive:   %v\n  indexed: %v", i, naive[i], indexed[i])
		}
	}
	if len(naive) != len(indexed) {
		t.Fatalf("event count diverges: naive %d, indexed %d", len(naive), len(indexed))
	}
}

// TestDifferentialSchedulingIdentical pins the tentpole's contract:
// for fixed seeds, the indexed control plane reproduces the naive
// reference's bind sequence, event stream (FailedScheduling records
// included) and final state byte-for-byte across randomized churn with
// chaos-driven preemptions.
func TestDifferentialSchedulingIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			naive := runChurnScript(t, seed, 14, true)
			indexed := runChurnScript(t, seed, 14, false)
			diffEvents(t, naive.events, indexed.events)
			if len(naive.events) < 100 {
				t.Errorf("script too quiet: only %d events", len(naive.events))
			}
			if len(naive.pods) != len(indexed.pods) {
				t.Fatalf("pod count diverges: %d vs %d", len(naive.pods), len(indexed.pods))
			}
			for i := range naive.pods {
				a, b := naive.pods[i], indexed.pods[i]
				a.usage, b.usage = nil, nil
				if a.Name != b.Name || a.UID != b.UID || a.Phase != b.Phase ||
					a.NodeName != b.NodeName || !a.ScheduledAt.Equal(b.ScheduledAt) ||
					!a.FinishedAt.Equal(b.FinishedAt) || a.UnschedulableSeen != b.UnschedulableSeen {
					t.Fatalf("pod %d diverges:\n  naive:   %+v\n  indexed: %+v", i, a, b)
				}
			}
			if len(naive.nodes) != len(indexed.nodes) {
				t.Fatalf("node count diverges: %d vs %d", len(naive.nodes), len(indexed.nodes))
			}
			for i := range naive.nodes {
				a, b := naive.nodes[i], indexed.nodes[i]
				if a.Name != b.Name || a.Allocated != b.Allocated ||
					a.livePods != b.livePods || !a.EmptySince.Equal(b.EmptySince) {
					t.Fatalf("node %d diverges:\n  naive:   %+v\n  indexed: %+v", i, a, b)
				}
			}
		})
	}
}

// FuzzSchedulingDifferential runs the churn script for fuzzed seeds
// and quotas (4 to 19 nodes) on the naive and the indexed control
// plane: the event logs, which embed every bind, FailedScheduling
// record and scale-up batch size, must be identical.
func FuzzSchedulingDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(9), uint8(0))
	f.Add(int64(-3), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, quota uint8) {
		maxNodes := 4 + int(quota%16)
		naive := runChurnScript(t, seed, maxNodes, true)
		indexed := runChurnScript(t, seed, maxNodes, false)
		diffEvents(t, naive.events, indexed.events)
	})
}

// TestRosterChangeMidPass removes a node and rebuilds the cached roster
// from inside a watch handler while a scheduler pass is binding: the
// pass must keep first-fitting over its own roster snapshot exactly as
// the naive scan does, though the fit index no longer describes it.
func TestRosterChangeMidPass(t *testing.T) {
	run := func(naive bool) []Event {
		eng := simclock.NewEngine(t0)
		c := NewCluster(eng, Config{InitialNodes: 5, MaxNodes: 5, Seed: 3, NaiveScheduling: naive})
		defer c.Stop()
		preempted := false
		c.OnPod(func(ev PodWatchEvent) {
			if ev.Reason != ReasonScheduled || preempted {
				return
			}
			preempted = true
			names := c.ReadyNodeNames()
			if err := c.PreemptNode(names[len(names)-1]); err != nil {
				t.Errorf("preempt: %v", err)
			}
			c.ReadyNodeNames() // rebuilds the cached roster mid-pass
		})
		for i := 0; i < 12; i++ {
			spec := smallPod(fmt.Sprintf("p%d", i))
			spec.Resources = resources.New(1.5, 1024, 100)
			if _, err := c.CreatePod(spec); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunFor(30 * time.Second)
		return c.Events()
	}
	diffEvents(t, run(true), run(false))
}

// TestIndexInvariants replays churn on an indexed cluster and, at
// every step, cross-checks each incremental structure against a fresh
// naive recomputation from the pod store.
func TestIndexInvariants(t *testing.T) {
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{InitialNodes: 4, MaxNodes: 10, Seed: 7, ScaleDownDelay: time.Minute})
	defer c.Stop()
	rng := rand.New(rand.NewSource(42))
	check := func(step int) {
		t.Helper()
		for _, n := range c.nodes {
			wantFree := c.naiveNodeFree(n)
			if got := n.Allocatable.Sub(n.Allocated); got != wantFree {
				t.Fatalf("step %d: node %s Allocated drift: free %v, naive %v", step, n.Name, got, wantFree)
			}
			live := 0
			for _, p := range c.pods {
				if p.NodeName == n.Name && !p.Terminal() {
					live++
				}
			}
			if n.livePods != live {
				t.Fatalf("step %d: node %s livePods %d, naive %d", step, n.Name, n.livePods, live)
			}
			if len(c.podsByNode[n.Name]) != live {
				t.Fatalf("step %d: node %s podsByNode size %d, naive %d", step, n.Name, len(c.podsByNode[n.Name]), live)
			}
			if c.nodeIsEmpty(n) != c.naiveNodeIsEmpty(n) {
				t.Fatalf("step %d: node %s emptiness disagrees", step, n.Name)
			}
		}
		for _, sel := range []map[string]string{
			{"tier": "t0"}, {"tier": "t1"}, {"tier": "t0", "app": "x"},
		} {
			got := c.ListPods(sel)
			var want []Pod
			for _, p := range c.ListPods(nil) {
				if p.MatchesSelector(sel) {
					want = append(want, p)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: ListPods(%v) size %d, naive %d", step, sel, len(got), len(want))
			}
			for i := range got {
				if got[i].Name != want[i].Name {
					t.Fatalf("step %d: ListPods(%v)[%d] = %s, naive %s", step, sel, i, got[i].Name, want[i].Name)
				}
			}
		}
		want := c.naivePendingUnbound(nil)
		slices.SortFunc(want, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
		if got := c.pendingUnbound(); !slices.Equal(got, want) {
			t.Fatalf("step %d: pending slice %d pods, UID-sorted store scan %d", step, len(got), len(want))
		}
		roster := c.sortedNodes()
		if !c.fitCovers(roster) {
			t.Fatalf("step %d: fit index does not cover the cached roster", step)
		}
		for i, n := range roster {
			if got, free := c.fit.Leaf(i), c.nodeFree(n); got != free {
				t.Fatalf("step %d: fit leaf %d (%s) = %v, nodeFree %v", step, i, n.Name, got, free)
			}
		}
		fresh := c.naiveSortedNodes()
		if len(roster) != len(fresh) {
			t.Fatalf("step %d: cached roster size %d, fresh %d", step, len(roster), len(fresh))
		}
		for i := range roster {
			if roster[i] != fresh[i] {
				t.Fatalf("step %d: roster[%d] = %s, fresh %s", step, i, roster[i].Name, fresh[i].Name)
			}
		}
	}
	podN := 0
	for step := 0; step < 60; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			podN++
			_, err := c.CreatePod(PodSpec{
				Name:      fmt.Sprintf("inv-%d", podN),
				Image:     "img",
				Resources: resources.New(1, 2048, 100),
				Labels:    map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(2)), "app": "x"},
			})
			if err != nil {
				t.Fatal(err)
			}
		case 2:
			if pods := c.ListPods(nil); len(pods) > 0 {
				_ = c.DeletePod(pods[rng.Intn(len(pods))].Name)
			}
		case 3:
			var run []Pod
			for _, p := range c.ListPods(nil) {
				if p.Phase == PodRunning {
					run = append(run, p)
				}
			}
			if len(run) > 0 {
				_ = c.MarkPodSucceeded(run[rng.Intn(len(run))].Name)
			}
		case 4:
			if names := c.ReadyNodeNames(); len(names) > 1 {
				_ = c.PreemptNode(names[rng.Intn(len(names))])
			}
		}
		eng.RunFor(time.Duration(rng.Intn(15)+1) * time.Second)
		check(step)
	}
}
