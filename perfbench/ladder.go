package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/grid"
)

// artifact is a generated field and the file its compression lives in.
type artifact struct {
	in   input
	path string
	// oracle[k] is the oracle's bytes for rungs[k]; see oracleBytes.
	oracle []int64
}

// storedRatio reports stored_ratio: artifact file bytes over raw field
// bytes, an exact count for a seed.
func storedRatio(r *report, arts []artifact) error {
	var stored, raw int64
	for _, a := range arts {
		size, err := fileSize(a.path)
		if err != nil {
			return err
		}
		stored += size
		raw += a.in.rawBytes()
	}
	setFigures(r, []figure{{name: "stored_ratio", unit: "ratio", v: float64(stored) / float64(raw),
		note: fmt.Sprintf("%d of %d bytes over %d fields", stored, raw, len(arts))}}, "")
	return nil
}

// withOracles computes every artifact's oracle bytes, two artifacts at a
// time.
func withOracles(arts []artifact) error {
	errs := make([]error, len(arts))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := range arts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			arts[i].oracle, errs[i] = oracleBytes(arts[i])
			<-sem
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ladderRun is one session's walk down the rungs.
type ladderRun struct {
	open, newSession time.Duration
	steps            []time.Duration
	// bytes[k] is the session's cumulative payload after rung k.
	bytes []int64
}

// walkLadder opens a file-backed session with no shared cache and refines
// it rung by rung with the header's naive TheoryEstimator — the estimator
// cmd/serve's /refine uses — checking every reconstruction against orig.
// Every rung is one attempted operation.
func walkLadder(path string, orig *grid.Tensor, l *layers, r *report) (ladderRun, bool) {
	var run ladderRun
	start := time.Now()
	h, st, err := core.OpenFile(path)
	if err != nil {
		r.op()
		r.fail(err)
		return run, false
	}
	defer st.Close()
	var src core.SegmentSource = core.StoreSource{Store: st}
	if l != nil {
		src = timedSource{src: src, h: h, l: l}
	}
	opened := time.Now()
	sess, err := core.NewSession(h, src)
	run.open, run.newSession = opened.Sub(start), time.Since(opened)
	if err != nil {
		r.op()
		r.fail(err)
		return run, false
	}
	if l != nil {
		sess.Instrument(l.obs)
		l.sessions++
		l.sessionSetupNs += run.newSession.Nanoseconds()
	}
	est := h.TheoryEstimator()
	for _, rel := range rungs {
		tol := h.AbsTolerance(rel)
		t0 := time.Now()
		rec, _, deg, err := sess.Refine(est, tol)
		d := time.Since(t0)
		r.op()
		if err != nil {
			r.fail(fmt.Errorf("%s rel %g: %w", path, rel, err))
			return run, false
		}
		run.steps = append(run.steps, d)
		run.bytes = append(run.bytes, sess.BytesFetched())
		if l != nil {
			l.harvest()
		}
		got := grid.MaxAbsDiff(orig, rec)
		if !r.check(deg == nil && got <= tol, "%s rel %g: achieved L∞ %g, tolerance %g, degraded %v", path, rel, got, tol, deg != nil) {
			return run, false
		}
	}
	return run, true
}

// readSamples accumulates refinement steps.
type readSamples struct {
	ms   []float64
	busy time.Duration
	// bytes[i] is artifact i's cumulative bytes per rung; every session on
	// an artifact must fetch exactly these.
	bytes map[int][]int64
}

// ladderPhase runs closed-loop analyst sessions until the deadline: one
// analyst, a seeded order of artifacts, each session a full ladder. The
// first round over all artifacts always completes, so the byte counts
// cover every artifact whatever the deadline.
func ladderPhase(seed int64, deadline time.Time, arts []artifact, l *layers, r *report) *readSamples {
	rng := rand.New(rand.NewSource(seed))
	s := &readSamples{bytes: map[int][]int64{}}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, i := range rng.Perm(len(arts)) {
			if round > 0 && !time.Now().Before(deadline) {
				break
			}
			run, ok := walkLadder(arts[i].path, arts[i].in.t, l, r)
			s.busy += run.open + run.newSession
			for _, d := range run.steps {
				s.busy += d
				s.ms = append(s.ms, ms(d))
			}
			if !ok {
				continue
			}
			if prev, seen := s.bytes[i]; seen {
				r.check(slices.Equal(prev, run.bytes), "%s: session fetched %v bytes per rung, an earlier one %v", arts[i].path, run.bytes, prev)
			} else {
				s.bytes[i] = run.bytes
			}
		}
	}
	return s
}

// latencyFigures are the timing figures of a refine workload.
func latencyFigures(msSamples []float64, perSec float64) []figure {
	tv, tnote := tail(msSamples)
	return []figure{
		{name: "refine_p50_ms", unit: "ms", v: median(msSamples), note: fmt.Sprintf("n=%d", len(msSamples))},
		{name: "refine_tail_ms", unit: "ms", v: tv, note: tnote},
		{name: "refines_per_s", unit: "1/s", v: perSec},
	}
}

// byteFigures are the exact byte counts of a set of ladders:
// bytes_per_refine averages every (artifact, rung) step's delta, and
// overfetch_ratio divides the bytes held at each rung by the oracle's.
func byteFigures(arts []artifact, bytes func(i int) []int64) []figure {
	var held, oracle, final int64
	for i, a := range arts {
		b := bytes(i)
		if len(b) != len(rungs) {
			continue // a failed artifact; its failure is already counted
		}
		for k := range b {
			held += b[k]
			oracle += a.oracle[k]
		}
		final += b[len(b)-1]
	}
	steps := len(arts) * len(rungs)
	return []figure{
		{name: "bytes_per_refine", unit: "bytes", v: float64(final) / float64(steps),
			note: fmt.Sprintf("%d bytes over %d steps", final, steps)},
		{name: "overfetch_ratio", unit: "ratio", v: float64(held) / float64(oracle),
			note: fmt.Sprintf("%d bytes held over %d oracle bytes", held, oracle)},
	}
}

func (s *readSamples) figures() []figure {
	return latencyFigures(s.ms, float64(len(s.ms))/s.busy.Seconds())
}

func runLadder(o options, r *report) error {
	var arts []artifact
	var writes writeSamples
	setup := func() error {
		ws, err := warpxInputs(o.n, o.seed, []string{"Ex", "Jx"}, warpxSteps[:1])
		if err != nil {
			return err
		}
		gs, err := grayScottInputs(o.n, o.seed, grayScottSteps)
		if err != nil {
			return err
		}
		arts = arts[:0]
		for i, in := range append(ws, gs...) {
			a := artifact{in: in, path: artifactPath(o, i)}
			_, d, err := compressFile(in, a.path, nil)
			if err != nil {
				return err
			}
			writes.add(d, in.rawBytes())
			arts = append(arts, a)
		}
		return nil
	}
	if err := repeatSetup(o, r, nil, setup); err != nil {
		return err
	}
	if err := withOracles(arts); err != nil {
		return err
	}
	if err := resetPeakRSS("self"); err != nil {
		return err
	}
	base := ladderPhase(o.seed, time.Now().Add(o.seconds), arts, nil, r)
	if !o.trace {
		if err := reportRSS(r, "self", "benchmark process VmHWM over the timed loop"); err != nil {
			return err
		}
		const source = "secondary: the set-ups' compressions"
		setFigures(r, writes.figures(), source)
		if err := storedRatio(r, arts); err != nil {
			return err
		}
		setFigures(r, base.figures(), "")
		setFigures(r, byteFigures(arts, func(i int) []int64 { return base.bytes[i] }), "")
		return nil
	}
	l := newLayers()
	traced := ladderPhase(o.seed, time.Now().Add(o.seconds), arts, l, r)
	reportOverhead(r, base.figures(), traced.figures())
	steps := float64(len(traced.ms))
	readMs := float64(l.readNs.Load()) / 1e6
	setLayers(r, map[string]float64{
		"lossless.compress_ratio": float64(l.readBytes.Load()) / float64(l.rawRead.Load()),
		"core.session_setup_ms":   float64(l.sessionSetupNs) / 1e6 / float64(l.sessions),
		"retrieval.plan_ms":       l.spanMs("retrieval.plan") / steps,
		"storage.read_ms":         readMs / steps,
		"storage.reads":           float64(l.reads.Load()) / steps,
		"storage.read_bytes":      float64(l.readBytes.Load()) / steps,
		"lossless.decompress_ms":  (l.spanMs("session.fetch_plane") - readMs) / steps,
		"bitplane.decode_ms":      l.spanMs("session.decode") / steps,
		"decompose.recompose_ms":  l.spanMs("session.recompose") / steps,
	}, map[string]string{
		"lossless.compress_ratio": "stored / raw bytes of the planes read",
		"core.session_setup_ms":   fmt.Sprintf("per session, %d sessions of %d steps", l.sessions, len(rungs)),
		"lossless.decompress_ms":  "session.fetch_plane self time beyond the source read: length check and inflate",
	})
	r.infof("traced spans: %v", l.spanNames())
	return nil
}

// reportRSS reports a process's peak resident set since resetPeakRSS.
func reportRSS(r *report, pid, note string) error {
	mb, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", mb, note)
	return nil
}
