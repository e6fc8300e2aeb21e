package arbiter

import (
	"testing"
)

// BenchmarkArbiterCycle measures one arbitration planning pass at 1000
// tenants, steady state: every tenant holds a queue of declared tasks
// and nothing changes between cycles, so the incremental path serves
// every digest from the memo while the reference re-plans all 1000
// tenants from fresh snapshots. The incremental-1000 and
// reference-1000 sub-benchmarks are the pair the speedup is read from.
func BenchmarkArbiterCycle(b *testing.B) {
	b.Run("incremental-1000", func(b *testing.B) {
		_, a := newTestFleet(b, 1000, 8, 4000)
		a.PlanOnly() // warm the digests
		before := a.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.PlanOnly()
		}
		b.StopTimer()
		if d := a.Stats().Replans - before.Replans; d != 0 {
			b.Fatalf("steady-state cycles re-planned %d digests, want 0", d)
		}
	})
	b.Run("reference-1000", func(b *testing.B) {
		_, a := newTestFleet(b, 1000, 8, 4000)
		a.SetNaiveArbitration(true)
		a.PlanOnly()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.PlanOnly()
		}
	})
	// Smaller points for scaling curves.
	b.Run("incremental-100", func(b *testing.B) {
		_, a := newTestFleet(b, 100, 8, 400)
		a.PlanOnly()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.PlanOnly()
		}
	})
	b.Run("reference-100", func(b *testing.B) {
		_, a := newTestFleet(b, 100, 8, 400)
		a.SetNaiveArbitration(true)
		a.PlanOnly()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.PlanOnly()
		}
	})
}

// BenchmarkArbiterRestore measures one full crash/restore round at
// 1000 tenants with live pod books: snapshot capture, state wipe,
// restore, per-tenant reconcile against the cluster and label-based
// re-adoption. This is the recovery-latency half of the robustness
// story.
func BenchmarkArbiterRestore(b *testing.B) {
	_, a := newTestFleet(b, 1000, 8, 4000)
	a.RunCycle() // create pods, warm digests
	a.RunCycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, ok := a.Crash()
		if !ok {
			b.Fatal("crash refused")
		}
		a.Restore(snap)
	}
	b.StopTimer()
	if a.Stats().Restores != b.N {
		b.Fatalf("Restores = %d, want %d", a.Stats().Restores, b.N)
	}
}
