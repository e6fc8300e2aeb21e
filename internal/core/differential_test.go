package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/wq"
)

// randomEstimateInput builds an adversarial Algorithm 1 snapshot:
// mixed known/unknown/oversized categories, zero and equal execution
// times (stressing completion-event tie-breaking in the heap), tasks
// on ghost workers, declared-resource overrides, capacity discounts,
// and occasionally no estimator at all.
func randomEstimateInput(rng *rand.Rand) EstimateInput {
	est := &mapEstimator{
		res: map[string]resources.Vector{
			"a":    resources.New(1, 3800, 0),
			"b":    resources.New(0.5, 1024, 10),
			"big":  resources.New(2, 8192, 0),
			"huge": resources.New(64, 1, 1), // never fits anywhere
			"zero": {},                      // zero estimate = unknown size
		},
		dur: map[string]time.Duration{
			"a":       60 * time.Second,
			"b":       60 * time.Second, // same as a: equal-time events
			"big":     0,                // completes instantly on dispatch
			"huge":    time.Hour,
			"zero":    45 * time.Second,
			"nores":   90 * time.Second, // exec known, size unknown
			"mystery": 0,
		},
	}
	delete(est.dur, "mystery") // truly unmeasured category
	in := EstimateInput{
		Now:            t0,
		InitTime:       time.Duration(10+rng.Intn(300)) * time.Second,
		DefaultCycle:   time.Duration(5+rng.Intn(60)) * time.Second,
		WorkerTemplate: nodeCap,
		Estimator:      est,
	}
	if rng.Intn(10) == 0 {
		in.Estimator = nil
	}
	switch rng.Intn(4) {
	case 0:
		in.CapacityDiscount = 0.25
	case 1:
		in.CapacityDiscount = 0.5
	}
	cats := []string{"a", "b", "big", "huge", "zero", "nores", "mystery"}
	for i := rng.Intn(31); i > 0; i-- {
		cap := nodeCap
		if rng.Intn(4) == 0 {
			cap = resources.New(8, 32768, 200000)
		}
		in.Workers = append(in.Workers, WorkerInfo{ID: fmt.Sprintf("w%d", len(in.Workers)), Capacity: cap})
	}
	for i := rng.Intn(61); i > 0; i-- {
		wid := "ghost"
		if len(in.Workers) > 0 && rng.Intn(8) != 0 {
			wid = in.Workers[rng.Intn(len(in.Workers))].ID
		}
		in.Running = append(in.Running, wq.Task{
			TaskSpec:  wq.TaskSpec{Category: cats[rng.Intn(len(cats))]},
			WorkerID:  wid,
			StartedAt: t0.Add(-time.Duration(rng.Intn(200)) * time.Second),
			Allocated: resources.New(1, 3800, 0),
		})
	}
	for i := rng.Intn(201); i > 0; i-- {
		task := wq.Task{TaskSpec: wq.TaskSpec{Category: cats[rng.Intn(len(cats))]}}
		if rng.Intn(6) == 0 {
			task.Resources = resources.New(float64(1+rng.Intn(3)), 2048, 0)
		}
		in.Waiting = append(in.Waiting, task)
	}
	return in
}

// TestDifferentialEstimateIdentical pins the tentpole's contract: the
// grouped planner returns Decisions byte-identical to the retained
// per-task reference on randomized queues, with one Planner reused
// across every iteration so stale scratch state would be caught too,
// and on the benchmark's block-structured snapshot at a tenth of its
// size (the full 1000×10000 reference pass takes seconds).
func TestDifferentialEstimateIdentical(t *testing.T) {
	var p Planner
	bench := scaleBenchInput(100, 1000)
	if got, want := p.EstimateScale(bench), ReferenceEstimateScale(bench); got != want || got.ScaleChange <= 0 {
		t.Fatalf("bench snapshot: planner %+v, reference %+v, want equal scale-ups", got, want)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 25; iter++ {
			in := randomEstimateInput(rng)
			want := ReferenceEstimateScale(in)
			got := p.EstimateScale(in)
			if got != want {
				t.Fatalf("seed %d iter %d: planner %+v, reference %+v\ninput: init=%v cycle=%v workers=%d running=%d waiting=%d discount=%v estimator=%v",
					seed, iter, got, want, in.InitTime, in.DefaultCycle,
					len(in.Workers), len(in.Running), len(in.Waiting),
					in.CapacityDiscount, in.Estimator != nil)
			}
		}
	}
}

// TestPackageFuncMatchesPlanner keeps the convenience wrapper honest.
func TestPackageFuncMatchesPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var p Planner
	for i := 0; i < 50; i++ {
		in := randomEstimateInput(rng)
		if got, want := EstimateScale(in), p.EstimateScale(in); got != want {
			t.Fatalf("iter %d: wrapper %+v, planner %+v", i, got, want)
		}
	}
}

// TestPlannerZeroAllocSteadyState pins the scratch-reuse satellite: a
// warmed planner re-evaluating a busy snapshot allocates nothing.
func TestPlannerZeroAllocSteadyState(t *testing.T) {
	in := baseInput()
	for i := 0; i < 50; i++ {
		in.Workers = append(in.Workers, WorkerInfo{ID: fmt.Sprintf("w%d", i), Capacity: nodeCap})
	}
	alloc := resources.New(1, 3800, 0)
	for i := 0; i < 120; i++ {
		in.Running = append(in.Running, running(fmt.Sprintf("w%d", i%50), "c", t0.Add(-time.Duration(i)*time.Second), alloc))
	}
	in.Waiting = waiting(1000, "c")
	var p Planner
	p.EstimateScale(in) // warm the scratch state
	if avg := testing.AllocsPerRun(20, func() { p.EstimateScale(in) }); avg != 0 {
		t.Errorf("steady-state EstimateScale allocates %.1f times per run, want 0", avg)
	}
}
