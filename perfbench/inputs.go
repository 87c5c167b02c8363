package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/grayscott"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// input is one generated field.
type input struct {
	app   string
	field string
	step  int
	t     *grid.Tensor
}

func (in input) String() string { return fmt.Sprintf("%s/%s@t%d", in.app, in.field, in.step) }

func (in input) rawBytes() int64 { return 8 * int64(in.t.Len()) }

// rungs is the analyst's refinement ladder: relative error bounds, loosest
// first.
var rungs = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}

func warpxInputs(n int, seed int64, names []string, steps []int) ([]input, error) {
	cfg := warpx.Config{Dims: []int{n, n, n}, A0: 3, Density: 1, Duration: 0.08, Seed: seed}
	var out []input
	for _, step := range steps {
		for _, name := range names {
			t, err := cfg.Field(name, step)
			if err != nil {
				return nil, err
			}
			out = append(out, input{app: "warpx", field: name, step: step, t: t})
		}
	}
	return out, nil
}

// grayScottInputs runs a seeded Gray-Scott simulation for steps output
// steps and returns both species.
func grayScottInputs(n int, seed int64, steps int) ([]input, error) {
	cfg := grayscott.DefaultConfig(n)
	cfg.Seed = seed
	sim, err := grayscott.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	var out []input
	for _, name := range grayscott.FieldNames() {
		t, err := sim.Field(name)
		if err != nil {
			return nil, err
		}
		out = append(out, input{app: "grayscott", field: name, step: steps, t: t})
	}
	return out, nil
}

// The seed sets the WarpX turbulence and the Gray-Scott initial noise, not
// the timesteps: the pulse position and pattern age change compressibility
// by tens of percent, which would swamp run-to-run comparisons across
// seeds. These timesteps keep the wake and the pattern developed.
var (
	warpxSteps     = []int{48, 160}
	grayScottSteps = 2
)

// compressFile writes in's artifact to path. Untraced, it calls
// core.CompressToFile. With a layer recorder it takes the same steps
// CompressToFile takes — a storage stream, core.CompressTo, the JSON
// header, Commit — so the sink handed to core.CompressTo can be timed.
func compressFile(in input, path string, l *layers) (*core.Header, time.Duration, error) {
	cfg := core.DefaultConfig()
	start := time.Now()
	if l == nil {
		h, err := core.CompressToFile(in.t, cfg, in.field, in.step, path)
		return h, time.Since(start), err
	}
	cfg.Obs = l.obs
	sw, err := storage.CreateStream(path)
	if err != nil {
		return nil, 0, err
	}
	defer sw.Abort()
	h, err := core.CompressTo(in.t, cfg, in.field, in.step, timedSink{sink: sw, l: l})
	if err != nil {
		return nil, 0, err
	}
	meta, err := json.Marshal(h)
	if err != nil {
		return nil, 0, err
	}
	commit := time.Now()
	if err := sw.Commit(meta); err != nil {
		return nil, 0, err
	}
	l.writeNs.Add(time.Since(commit).Nanoseconds())
	return h, time.Since(start), nil
}

// checkArtifact reopens an artifact through core.OpenFile and checks that
// the header's byte total matches both the segment table and the file size
// (format in internal/storage: 16 fixed bytes, the header, 28 bytes per
// table entry, then the payloads).
func checkArtifact(path string, want *core.Header) error {
	h, st, err := core.OpenFile(path)
	if err != nil {
		return err
	}
	defer st.Close()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	segs := st.Segments()
	var table int64
	for _, id := range segs {
		size, err := st.SegmentSize(id)
		if err != nil {
			return err
		}
		if id.Level >= len(h.Levels) || id.Plane >= len(h.Levels[id.Level].PlaneSizes) ||
			size != h.Levels[id.Level].PlaneSizes[id.Plane] {
			return fmt.Errorf("%s: segment %+v is %d bytes, header disagrees", path, id, size)
		}
		table += size
	}
	total := h.TotalBytes()
	switch {
	case total != want.TotalBytes():
		return fmt.Errorf("%s: reopened header totals %d bytes, compression reported %d", path, total, want.TotalBytes())
	case table != total:
		return fmt.Errorf("%s: segment table totals %d bytes, header %d", path, table, total)
	case fi.Size() != 16+int64(len(st.Meta()))+28*int64(len(segs))+total:
		return fmt.Errorf("%s: file is %d bytes, header and table account for %d",
			path, fi.Size(), 16+int64(len(st.Meta()))+28*int64(len(segs))+total)
	}
	return nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// oracleBytes is the paper's Fig. 2 reference for one artifact: for each
// rung, the bytes of the shortest retrieval.GreedySequence prefix whose
// measured L∞ error against the original meets the tolerance — the walk
// core.ProbeBackends makes, done here incrementally in one session over
// the artifact file instead of a full retrieval per step.
func oracleBytes(a artifact) ([]int64, error) {
	h, st, err := core.OpenFile(a.path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	steps, err := retrieval.GreedySequence(h.LevelInfos())
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(h, core.StoreSource{Store: st})
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(rungs))
	k := -1 // the prefix before steps[0] holds no planes
	achieved := math.Inf(1)
	for i, rel := range rungs {
		tol := h.AbsTolerance(rel)
		for achieved > tol && k+1 < len(steps) {
			k++
			rec, err := sess.RefineTo(steps[k].Planes)
			if err != nil {
				return nil, err
			}
			achieved = grid.MaxAbsDiff(a.in.t, rec)
		}
		if achieved > tol {
			return nil, fmt.Errorf("oracle for %v: full artifact misses rel %g", a.in, rel)
		}
		out[i] = steps[k].Bytes
	}
	return out, nil
}

// resetPeakRSS restarts a process's VmHWM from its current resident set,
// so the peak covers the timed loop and not the set-up's transients. For
// this process it first returns collected memory to the OS.
func resetPeakRSS(pid string) error {
	if pid == "self" {
		debug.FreeOSMemory()
	}
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// repeatSetup runs fn o.setups times, calling teardown (when set) between
// set-ups outside the timer, and reports setup_s as the median duration;
// one set-up is a single sample, too few for a steady figure. A traced run
// prints it as context, since its metrics are per-layer only.
func repeatSetup(o options, r *report, teardown func(), fn func() error) error {
	var secs []float64
	for i := 0; i < o.setups; i++ {
		if teardown != nil && i > 0 {
			teardown()
		}
		// Each set-up starts from a collected heap, so the previous one's
		// garbage neither slows it nor raises the peak resident set.
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	note := fmt.Sprintf("median of %d set-ups", len(secs))
	if o.trace {
		r.infof("setup_s: %.6g s (%s)", median(secs), note)
	} else {
		r.set("setup_s", "s", median(secs), note)
	}
	return nil
}

// writeSamples accumulates timed compressions.
type writeSamples struct {
	ms []float64
	// mbps[i] is compression i's raw MB per second.
	mbps []float64
}

func (w *writeSamples) add(d time.Duration, raw int64) {
	w.ms = append(w.ms, ms(d))
	w.mbps = append(w.mbps, float64(raw)/1e6/d.Seconds())
}

// figures reports the median compression's throughput, which a stray slow
// compression on a shared host moves less than the mean does.
func (w *writeSamples) figures() []figure {
	tv, tnote := tail(w.ms)
	return []figure{
		{name: "refactor_mb_s", unit: "MB/s", v: median(w.mbps), note: fmt.Sprintf("median of %d compressions", len(w.ms))},
		{name: "refactor_tail_ms", unit: "ms", v: tv, note: tnote},
	}
}
