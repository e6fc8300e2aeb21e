package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tracer records, in memory, spans around the calls the benchmark makes
// into each layer, and per-call durations of the hot calls. A nil
// *tracer records nothing; its span method still times the call.
type tracer struct {
	epoch time.Time
	spans []span
	calls [numCalls][]time.Duration
	// baseHeap is the live heap before the current repetition's
	// set-up, for wq.retained_bytes_per_task.
	baseHeap uint64
	prof     *profiler
}

// span is one timed call into a layer, in Chrome trace-event terms a
// complete event on the layer's track.
type span struct {
	layer, name string
	start, dur  time.Duration // start is relative to the tracer's epoch
}

// hotCall names a call made too often to keep every span.
type hotCall int

const (
	callAddWorker hotCall = iota
	callSubmit
	callStep
	numCalls
)

var hotCalls = [numCalls]struct{ layer, name string }{
	callAddWorker: {"wq", "Master.AddWorker"},
	callSubmit:    {"wq", "Master.Submit"},
	callStep:      {"simclock", "Engine.Step"},
}

// keepEvery is the sampling stride for hot-call spans written to the
// trace file; every call's duration still enters its percentiles.
const keepEvery = 4096

func newTracer() *tracer { return &tracer{epoch: time.Now(), prof: &profiler{}} }

// span times fn and, when tracing, records it on layer's track.
func (t *tracer) span(layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t != nil {
		t.spans = append(t.spans, span{layer, name, start.Sub(t.epoch), d})
	}
	return d
}

// start returns the start time of a hot call, or the zero time when
// not tracing, so untraced repetitions skip the clock read.
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// call records a hot call that began at t0.
func (t *tracer) call(c hotCall, t0 time.Time) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	if len(t.calls[c])%keepEvery == 0 {
		t.spans = append(t.spans, span{hotCalls[c].layer, hotCalls[c].name, t0.Sub(t.epoch), d})
	}
	t.calls[c] = append(t.calls[c], d)
}

// callPercentile returns the q-quantile of a hot call's durations in
// nanoseconds, 0 when the workload never made the call.
func (t *tracer) callPercentile(c hotCall, q float64) float64 {
	ds := t.calls[c]
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1))])
}

// endRun stops the CPU profile once a repetition's run body is over,
// so the benchmark's checks on the finished stack do not count against
// the layers they read.
func (t *tracer) endRun() {
	if t != nil {
		t.prof.stop()
	}
}

// settle forces a collection between the cells of a repetition, as
// measureReps does between repetitions, so one cell's garbage is not
// collected on the next cell's time. The profile pauses over it.
func (t *tracer) settle() {
	if t == nil {
		runtime.GC()
		return
	}
	t.prof.stop()
	runtime.GC()
	t.prof.start()
}

// retainedHeap forces a collection and returns the heap the set-up
// left live, in bytes; 0 when not tracing. The profile pauses over the
// collection, which is the benchmark's work, not a layer's.
func (t *tracer) retainedHeap() float64 {
	if t == nil {
		return 0
	}
	t.prof.stop()
	live := liveHeap()
	t.prof.start()
	return float64(live) - float64(t.baseHeap)
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// traceLayers orders the tracks of the trace file.
var traceLayers = []string{"perfbench", "workload", "flow", "experiments", "arbiter", "wq", "simclock"}

// writeChrome writes the spans as Chrome trace-event JSON, one track
// (thread) per layer, viewable offline in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat,omitempty"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	tid := map[string]int{}
	var events []event
	for i, l := range traceLayers {
		tid[l] = i + 1
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]string{"name": l}})
	}
	for _, s := range t.spans {
		id, ok := tid[s.layer]
		if !ok {
			return fmt.Errorf("span %q on unknown layer %q", s.name, s.layer)
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: id,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapWatch samples the heap's live objects every few milliseconds on
// its own goroutine, for runtime.peak_live_heap_mb.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler, waits for it and returns the peak in bytes.
func (h *heapWatch) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
