package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a boundary the harness owns. Parent is
// the ID of the span that caused it (-1 for a root); spans of one
// workload run share Workload.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

const noSpan int32 = -1

// maxSampledSpans bounds the sampled-call spans kept per layer. Counts
// and busy time keep aggregating past it; only the per-call records
// stop, so a trace file stays a few MB however long the run.
const maxSampledSpans = 2048

// tracer collects spans and per-layer call counters for the traced
// pass. Spans stay in memory and are written once, at exit. A nil
// *tracer is the untraced pass: every method is a no-op, so the harness
// calls them unconditionally.
type tracer struct {
	workload string
	base     time.Time
	// clockNS is the calibrated cost of one sampled timing (two clock
	// reads), subtracted from every layer's mean sampled duration.
	clockNS float64
	// shared makes the layer counters atomic: set for workloads whose
	// wrapped layers are called from two goroutines (the parallel drain,
	// the two-worker sweep).
	shared bool

	mu     sync.Mutex
	spans  []span
	layers map[string]*layer
}

func newTracer(workload string, shared bool) *tracer {
	t := &tracer{workload: workload, base: time.Now(), shared: shared, layers: map[string]*layer{}}
	t.clockNS = t.calibrateClock()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// stamp opens a sampled timing. It reads the clock twice and returns the
// second reading: taken once in sampleEvery calls, the clock's own code
// and data have left the caches, and the throw-away read pays for
// bringing them back — otherwise that cost (tens of nanoseconds, times
// tens of millions of calls) would be booked to the layer being timed.
func (t *tracer) stamp() int64 {
	t.now()
	return t.now()
}

// identity is the no-op the clock calibration wraps; calling it through
// an interface keeps the compiler from folding the call away.
type identity interface{ id(uint) uint }

type nop struct{}

func (nop) id(x uint) uint { return x }

// calibrateClock measures what a sampled timing costs when it wraps
// nothing: a layer around a no-op is driven exactly as the decorators
// are driven — sampleEvery-1 untimed calls between two timed ones — and
// its mean sampled duration is the cost of the closing clock read.
func (t *tracer) calibrateClock() float64 {
	const samples = 2048
	l := &layer{name: "trace.calibration", tr: t, shared: t.shared}
	var f identity = nop{}
	for i := uint(0); i < samples*sampleEvery; i++ {
		if l.tick(i) {
			t0 := t.stamp()
			sink += uint64(f.id(i))
			l.observe(t0)
			continue
		}
		sink += uint64(f.id(i))
	}
	return float64(l.sampledNS) / float64(l.samples)
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNS: now, EndNS: now})
	return id
}

// end closes the span opened as id.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// record appends an already finished span and returns its ID.
func (t *tracer) record(name string, parent int32, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(start.Sub(t.base)), EndNS: int64(end.Sub(t.base)),
	})
	return id
}

// layer returns the named layer's counter, creating it on first use.
func (t *tracer) layer(name string) *layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.layers[name]
	if !ok {
		l = &layer{name: name, tr: t, shared: t.shared}
		if t.shared {
			l.mask = uint(len(l.stripes) - 1)
		}
		t.layers[name] = l
	}
	return l
}

// layerStat is a layer's aggregate over the traced pass.
type layerStat struct {
	calls   int64
	samples int64
	// busyS estimates the time spent inside the layer: the mean sampled
	// call duration, less the clock-read cost, times the call count.
	busyS float64
}

// stat returns the named layer's aggregate (zero when never wrapped).
func (t *tracer) stat(name string) layerStat {
	if t == nil {
		return layerStat{}
	}
	t.mu.Lock()
	l := t.layers[name]
	t.mu.Unlock()
	if l == nil {
		return layerStat{}
	}
	return l.stat()
}

// sampleEvery is the sampling period of the counting wrappers: one call
// in this many is timed. It must be a power of two.
const sampleEvery = 1024

// stripe is one cache line of a layer's call counter.
type stripe struct {
	n uint64
	_ [56]byte
}

// layer counts the calls into one wrapped interface and times one in
// sampleEvery of them. Under a shared tracer the counter is striped by
// the call's key and atomic, so two goroutines rarely contend on one
// line; otherwise it is a single plain word.
type layer struct {
	name    string
	tr      *tracer
	shared  bool
	mask    uint
	stripes [64]stripe

	mu        sync.Mutex
	samples   int64
	sampledNS int64
	// kept counts the sampled-call spans recorded; guarded by tr.mu.
	kept int
}

// tick counts one call and reports whether to time it.
func (l *layer) tick(key uint) bool {
	s := &l.stripes[key&l.mask]
	if l.shared {
		return atomic.AddUint64(&s.n, 1)&(sampleEvery-1) == 0
	}
	s.n++
	return s.n&(sampleEvery-1) == 0
}

// interruptedNS separates a slow call from an interrupted one. Nothing a
// decorator wraps — an array lookup, a parent walk of a few dozen steps,
// a histogram increment — takes 2 µs even on cold caches (the slowest
// seen is a few hundred ns); a sample that long caught a preemption or a
// GC assist, and a handful of those among a few thousand samples would
// shift a nanosecond-scale mean by tens of nanoseconds.
const interruptedNS = 2_000

// observe closes a timed call that started at startNS and reports its
// end and whether it counts: interrupted samples are dropped.
func (l *layer) observe(startNS int64) (endNS int64, ok bool) {
	endNS = l.tr.now()
	if endNS-startNS >= interruptedNS {
		return endNS, false
	}
	l.mu.Lock()
	l.samples++
	l.sampledNS += endNS - startNS
	l.mu.Unlock()
	return endNS, true
}

// sample records a timed call that started at startNS, as a span under
// parent while the layer's span budget lasts.
func (l *layer) sample(startNS int64, parent int32) {
	endNS, ok := l.observe(startNS)
	if !ok {
		return
	}
	t := l.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if l.kept < maxSampledSpans {
		l.kept++
		t.spans = append(t.spans, span{
			ID: int32(len(t.spans)), Parent: parent, Name: l.name,
			Workload: t.workload, StartNS: startNS, EndNS: endNS,
		})
	}
}

func (l *layer) stat() layerStat {
	var calls uint64
	for i := range l.stripes {
		calls += atomic.LoadUint64(&l.stripes[i].n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := layerStat{calls: int64(calls), samples: l.samples}
	if l.samples > 0 {
		st.busyS = busyEstimate(float64(l.sampledNS)/float64(l.samples), l.tr.clockNS, st.calls)
	}
	return st
}

// busyEstimate turns a mean sampled duration into a layer's busy time:
// the clock-read cost comes off the mean (never below zero — a layer
// cheaper than the clock reads as free, not as negative), and the rest
// scales by the call count.
func busyEstimate(meanSampledNS, clockNS float64, calls int64) float64 {
	return max(0, meanSampledNS-clockNS) * float64(calls) * 1e-9
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its direct children cover. Overlapping children (two sweep workers
// under one sweep span) are merged first, so covered time is never
// counted twice and self time is never negative.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		ids := kids[s.ID]
		sort.Slice(ids, func(i, j int) bool { return spans[ids[i]].StartNS < spans[ids[j]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, id := range ids {
			lo, hi := max(spans[id].StartNS, reach), min(spans[id].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// traceDoc is the on-disk form of one workload's traced pass.
type traceDoc struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	ClockNS  float64 `json:"clock_read_ns"`
	Sampling int     `json:"sampled_one_call_in"`
	Spans    []span  `json:"spans"`
	// SelfNS is index-aligned with Spans.
	SelfNS []int64 `json:"self_ns"`
}

const traceSchema = "arrowbench/trace/v1"

// write stores the spans as DIR/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := traceDoc{
		Schema: traceSchema, Workload: t.workload, ClockNS: t.clockNS,
		Sampling: sampleEvery, Spans: spans, SelfNS: selfTimes(spans),
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := fmt.Sprintf("%s/trace-%s.json", dir, t.workload)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
