package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// profiler collects CPU-profile stacks over the traced repetitions. It
// can pause around the benchmark's own forced collections so they do
// not count against any layer.
type profiler struct {
	buf     bytes.Buffer
	running bool
	raw     [][]byte // each profiled stretch, gzipped
	stacks  []stack
	cpu     time.Duration // CPU time the stacks cover
	err     error         // the first start or decode failure
}

func (p *profiler) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	p.running = true
}

// stop ends the current stretch, if one is running, and decodes it.
func (p *profiler) stop() {
	if !p.running {
		return
	}
	p.running = false
	pprof.StopCPUProfile()
	raw := append([]byte(nil), p.buf.Bytes()...)
	p.raw = append(p.raw, raw)
	st, err := parseProfile(raw)
	if err != nil && p.err == nil {
		p.err = err
	}
	p.stacks = append(p.stacks, st...)
	for _, s := range st {
		p.cpu += time.Duration(s.ns)
	}
}

// tracedRun is the traced run. After the warm-up, its first half
// repeats the workload untraced, for the overhead baseline; its second
// half repeats it with spans, hot-call timing and the CPU profile, and
// reports the per-layer metrics. The trace and the profiles are written
// under outDir.
func tracedRun(out io.Writer, w benchWorkload, cfg config, budget time.Duration, outDir string) (result, error) {
	want, warm, err := warmUp(out, w, cfg)
	if err != nil {
		return result{}, err
	}
	plain, err := measureReps(w, cfg, budget/2, minReps, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	hw := watchHeap()
	traced, err := measureReps(w, cfg, budget/2, minReps, tr)
	peak := hw.done()
	if err != nil {
		return result{}, err
	}
	if tr.prof.err != nil {
		return result{}, fmt.Errorf("CPU profile: %w", tr.prof.err)
	}
	fmt.Fprintln(out, "untraced repetitions:")
	printReps(out, plain)
	fmt.Fprintln(out, "traced repetitions:")
	printReps(out, traced)
	attempted, failed, problems := checkReps(append(append(warm, plain...), traced...))
	problems = append(problems, checkRows(w, want, plain[0].out)...)

	a := attribute(tr.prof.stacks)
	m := perLayer(plain, traced, tr, a, peak)
	problems = append(problems, checkMetrics(m, perLayerNames(), false)...)
	printMetrics(out, m, perLayerNames())
	printOutcome(out, traced[0].seed, traced[0].out)

	if err := writeTraceFiles(tr, w, cfg, outDir, out); err != nil {
		return result{}, err
	}
	return finish(out, m, attempted, failed, problems), nil
}

// writeTraceFiles writes the Chrome trace and the raw CPU profiles.
func writeTraceFiles(tr *tracer, w benchWorkload, cfg config, outDir string, out io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	for i, raw := range tr.prof.raw {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i+1), raw, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "trace: %s.trace.json (%d spans), CPU profiles: %s.cpu*.pprof (%.2f s of CPU)\n",
		base, len(tr.spans), base, tr.prof.cpu.Seconds())
	return nil
}

// cellKeys names every cell of every workload; a workload reports 0
// for the cells it does not have.
var cellKeys = []string{"storm", "hta", "hpa", "hta-panic", "fair-share", "quota", "shared"}

// perLayerNames lists the per-layer metrics in report order; it must
// match BENCHMARK.json (the package's tests check it).
func perLayerNames() []string {
	var names []string
	for _, b := range buckets {
		names = append(names, b+".self_frac", b+".ns_per_task")
	}
	names = append(names,
		"runtime.alloc_mb", "runtime.gc_frac", "runtime.alloc_frac", "gc.count", "gc.pause_ms", "runtime.peak_live_heap_mb",
		"tasks.completed", "trace.overhead_frac",
		"simclock.events", "simclock.events_per_task", "simclock.ns_per_event",
		"simclock.step_ns_p50", "simclock.step_ns_p99",
		"wq.submit_ns", "wq.add_worker_ns", "wq.dispatches", "wq.requeues", "wq.shed",
		"wq.peak_waiting", "wq.retained_bytes_per_task",
		"wq.sojourn_p50_s", "wq.sojourn_p99_s", "wq.sojourn_samples", "wq.failed_frac",
		"kubesim.peak_nodes", "hpa.scaling_actions", "core.panics", "core.scaling_actions",
		"netsim.avg_mbps",
		"arbiter.cycles", "arbiter.replans_per_cycle", "arbiter.ns_per_cycle", "arbiter.jain_index",
	)
	for _, c := range cellKeys {
		names = append(names, "cell."+c+".host_s")
	}
	return names
}

// perLayer computes the per-layer metrics from the traced repetitions'
// profile, spans and counters; the untraced repetitions give the
// baseline for the tracing overhead.
func perLayer(plain, traced []rep, tr *tracer, a attribution, peakHeap uint64) map[string]metric {
	o := traced[0].out
	// The profile covers every traced repetition; its per-task,
	// per-event and per-cycle figures divide by the work of all of them.
	var tasks, events, cycles float64
	for _, r := range traced {
		tasks += float64(r.out.completed)
		events += float64(r.out.events)
		cycles += float64(r.out.arbCycles)
	}
	m := map[string]metric{}
	for _, b := range buckets {
		m[b+".self_frac"] = metric{a.frac(a.self[b]), "ratio"}
		m[b+".ns_per_task"] = metric{float64(a.self[b]) / tasks, "ns"}
	}
	var gcs, pause, alloc []float64
	for _, r := range plain {
		alloc = append(alloc, float64(r.alloc)/(1<<20))
	}
	for _, r := range traced {
		gcs = append(gcs, float64(r.gcs))
		pause = append(pause, float64(r.pause)/1e6)
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("runtime.alloc_mb", median(alloc), "MB")
	set("runtime.gc_frac", a.frac(a.gc), "ratio")
	set("runtime.alloc_frac", a.frac(a.alloc), "ratio")
	set("gc.count", median(gcs), "count")
	set("gc.pause_ms", median(pause), "ms")
	set("runtime.peak_live_heap_mb", float64(peakHeap)/(1<<20), "MB")
	set("tasks.completed", float64(o.completed), "count")
	set("trace.overhead_frac", 1-throughput(traced)/throughput(plain), "ratio")

	set("simclock.events", float64(o.events), "count")
	set("simclock.events_per_task", float64(o.events)/float64(o.completed), "count")
	nsEvent := 0.0
	if events > 0 { // the harness's engines are not visible on io-fleet and stream-day
		nsEvent = float64(a.self["simclock"]) / events
	}
	set("simclock.ns_per_event", nsEvent, "ns")
	set("simclock.step_ns_p50", tr.callPercentile(callStep, 0.50), "ns")
	set("simclock.step_ns_p99", tr.callPercentile(callStep, 0.99), "ns")

	set("wq.submit_ns", tr.callPercentile(callSubmit, 0.50), "ns")
	set("wq.add_worker_ns", tr.callPercentile(callAddWorker, 0.50), "ns")
	set("wq.dispatches", float64(o.dispatches), "count")
	set("wq.requeues", float64(o.requeues), "count")
	set("wq.shed", float64(o.shed), "count")
	set("wq.peak_waiting", float64(o.peakWaiting), "count")
	set("wq.retained_bytes_per_task", o.retained/float64(o.submitted), "B")
	s := o.sys
	set("wq.sojourn_p50_s", s.sojournP50.Seconds(), "s")
	set("wq.sojourn_p99_s", s.sojournP99.Seconds(), "s")
	set("wq.sojourn_samples", float64(s.sojournN), "count")
	set("wq.failed_frac", s.failedFrac(), "ratio")

	set("kubesim.peak_nodes", float64(o.peakNodes), "count")
	set("hpa.scaling_actions", float64(o.hpaActions), "count")
	set("core.panics", float64(o.panics), "count")
	set("core.scaling_actions", float64(o.coreActions), "count")
	set("netsim.avg_mbps", o.avgMBps, "MB/s")

	set("arbiter.cycles", float64(o.arbCycles), "count")
	replans, nsCycle := 0.0, 0.0
	if o.arbCycles > 0 {
		replans = float64(o.arbReplans) / float64(o.arbCycles)
		nsCycle = float64(a.self["arbiter"]) / cycles
	}
	set("arbiter.replans_per_cycle", replans, "count")
	set("arbiter.ns_per_cycle", nsCycle, "ns")
	jain := 0.0
	if s.hasJain {
		jain = s.jain
	}
	set("arbiter.jain_index", jain, "ratio")

	for _, c := range cellKeys {
		var hosts []float64
		for _, r := range traced {
			for _, ct := range r.out.cells {
				if ct.name == c {
					hosts = append(hosts, ct.host.Seconds())
				}
			}
		}
		v := 0.0
		if len(hosts) > 0 {
			v = median(hosts)
		}
		set("cell."+c+".host_s", v, "s")
	}
	return m
}
