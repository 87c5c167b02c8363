package main

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/obs"
	"pmgard/internal/storage"
)

// layers records per-layer work during a traced phase. It measures from
// outside the program: spans and counters the program already emits into
// obs (Config.Obs, Session.Instrument), plus timers on the two public
// seams the benchmark hands in — the core.SegmentSink given to
// core.CompressTo and the core.SegmentSource given to core.NewSession.
// lossless.Codec is deliberately not wrapped: lossless.AppendCompress
// type-switches on the concrete deflate codec, and a wrapper would measure
// its slower generic path instead of the program.
type layers struct {
	obs *obs.Obs
	// spanNs totals finished spans by name; harvest moves them out of the
	// bounded tracer after every operation.
	spanNs map[string]int64

	writeNs                           atomic.Int64
	readNs, reads, readBytes, rawRead atomic.Int64
	sessionSetupNs, sessions          int64
}

// traceLimit bounds the spans one operation may leave in the tracer before
// harvest; a 65³ compression or refinement emits well under a thousand.
const traceLimit = 1 << 16

func newLayers() *layers {
	o := obs.New()
	o.Trace = obs.NewTracer(traceLimit)
	return &layers{obs: o, spanNs: map[string]int64{}}
}

// harvest folds the tracer's finished spans into the per-name totals and
// starts an empty tracer, so memory stays bounded over a long phase. Call
// only between operations.
func (l *layers) harvest() {
	for _, s := range l.obs.Trace.Stages() {
		l.spanNs[s.Name] += s.TotalNs
	}
	l.obs.Trace = obs.NewTracer(traceLimit)
}

// spanMs is the total duration of the named spans in milliseconds.
func (l *layers) spanMs(name string) float64 { return float64(l.spanNs[name]) / 1e6 }

// histSeconds sums the histograms whose names have the given prefix and
// suffix, returning total observed seconds.
func (l *layers) histSeconds(prefix, suffix string) float64 {
	var t float64
	for name, h := range l.obs.Metrics.Snapshot().Histograms {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			t += h.Sum
		}
	}
	return t
}

func (l *layers) counter(name string) int64 { return l.obs.Metrics.Snapshot().Counters[name] }

// spanNames lists the recorded span names, for the trace summary line.
func (l *layers) spanNames() []string {
	out := make([]string, 0, len(l.spanNs))
	for n := range l.spanNs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// timedSink is the storage seam of the write path: it times every segment
// write the pipeline hands to the artifact file.
type timedSink struct {
	sink core.SegmentSink
	l    *layers
}

func (s timedSink) WriteSegment(id storage.SegmentID, payload []byte) error {
	start := time.Now()
	err := s.sink.WriteSegment(id, payload)
	s.l.writeNs.Add(time.Since(start).Nanoseconds())
	return err
}

// timedSource is the storage seam of the read path: it times and counts
// every segment read a session makes, and adds up the decompressed size of
// the planes read so the lossless ratio of fetched data can be reported.
type timedSource struct {
	src core.SegmentSource
	h   *core.Header
	l   *layers
}

func (s timedSource) Segment(level, plane int) ([]byte, error) {
	start := time.Now()
	b, err := s.src.Segment(level, plane)
	s.l.readNs.Add(time.Since(start).Nanoseconds())
	s.l.reads.Add(1)
	s.l.readBytes.Add(int64(len(b)))
	if level >= 0 && level < len(s.h.Levels) {
		s.l.rawRead.Add(int64(s.h.Levels[level].RawPlaneSize))
	}
	return b, err
}

// perLayer is the fixed set of per-layer metrics every traced run prints.
// A layer a workload never enters reports 0; LAYERS.md says which layer
// should move which end-to-end metric on which workload.
var perLayer = []struct{ name, unit string }{
	{"decompose.forward_ms", "ms"},
	{"bitplane.encode_ms", "ms"},
	{"lossless.compress_ms", "ms"},
	{"lossless.compress_ratio", "ratio"},
	{"pool.wait_ms", "ms"},
	{"pool.task_ms", "ms"},
	{"storage.write_ms", "ms"},
	{"core.session_setup_ms", "ms"},
	{"retrieval.plan_ms", "ms"},
	{"storage.read_ms", "ms"},
	{"storage.reads", "count"},
	{"storage.read_bytes", "bytes"},
	{"lossless.decompress_ms", "ms"},
	{"servecache.hit_ratio", "ratio"},
	{"servecache.get_ms", "ms"},
	{"bitplane.decode_ms", "ms"},
	{"decompose.recompose_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.admission_ms", "ms"},
}

// setLayers reports every per-layer metric: the values in got, 0 for the
// rest. notes annotate individual values.
func setLayers(r *report, got map[string]float64, notes map[string]string) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, got[m.name], notes[m.name])
	}
}
