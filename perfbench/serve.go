package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
)

// server is a running cmd/serve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	// drained is closed once the process's stdout reaches EOF, which must
	// happen before cmd.Wait.
	drained chan struct{}
}

// cacheBytes is the server's plane-cache budget, far above the working set
// of three 65³ fields (about 3.3 MB of decompressed planes), so every
// plane stays cached once warm.
const cacheBytes = 256 << 20

// startServer starts cmd/serve over the artifacts on a loopback port and
// waits until /readyz answers 200, polling every millisecond so set-up
// time is not quantized by the poll interval.
func startServer(bin string, paths []string) (*server, error) {
	cmd := exec.Command(bin, "-in", strings.Join(paths, ","), "-addr", "127.0.0.1:0", "-cache-bytes", strconv.Itoa(cacheBytes))
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for s.addr == "" && sc.Scan() {
		// "serving Bx, Ex, Jx on http://127.0.0.1:41234 (cache budget ...)"
		line := sc.Text()
		if i := strings.Index(line, " on http://"); strings.HasPrefix(line, "serving ") && i >= 0 {
			s.addr, _, _ = strings.Cut(line[i+len(" on http://"):], " ")
		}
	}
	go func() {
		io.Copy(io.Discard, out) // keep the pipe drained until the process exits
		close(s.drained)
	}()
	if s.addr == "" {
		s.stop()
		return nil, fmt.Errorf("%s exited without announcing its address", bin)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + s.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server at %s not ready after 30s (last error %v)", s.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the server to drain and exit (SIGINT), kills it if it has not
// exited within ten seconds, and waits for it.
func (s *server) stop() error {
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	return s.cmd.Wait()
}

// refineReply is the part of a /refine response the benchmark checks.
type refineReply struct {
	Planes         []int   `json:"planes"`
	BytesFetched   int64   `json:"bytes_fetched"`
	Degraded       bool    `json:"degraded"`
	Checksum       string  `json:"checksum"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// client is one keep-alive connection to the server.
func client() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// refine sends one /refine request carrying the given trace id and returns
// the reply and the client-side latency up to the last body byte.
func refine(c *http.Client, addr, field string, rel float64, traceID string) (refineReply, time.Duration, error) {
	var reply refineReply
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("http://%s/refine?field=%s&rel=%g", addr, field, rel), nil)
	if err != nil {
		return reply, 0, err
	}
	req.Header.Set("traceparent", "00-"+traceID+"-0000000000000001-01")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return reply, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, d, fmt.Errorf("refine %s rel %g: status %d: %s", field, rel, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return reply, d, fmt.Errorf("refine %s rel %g: %w", field, rel, err)
	}
	return reply, d, nil
}

// checksum is cmd/serve's response checksum: CRC32 (IEEE) over the
// little-endian float64 payload.
func checksum(t *grid.Tensor) string {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// reference computes in-process what /refine must answer for one artifact
// at one rung: a fresh session refined with the header's naive estimator,
// whose reconstruction is also checked against the original.
func reference(a artifact, rel float64) (refineReply, error) {
	h, st, err := core.OpenFile(a.path)
	if err != nil {
		return refineReply{}, err
	}
	defer st.Close()
	sess, err := core.NewSession(h, core.StoreSource{Store: st})
	if err != nil {
		return refineReply{}, err
	}
	tol := h.AbsTolerance(rel)
	rec, plan, deg, err := sess.Refine(h.TheoryEstimator(), tol)
	if err != nil {
		return refineReply{}, err
	}
	if got := grid.MaxAbsDiff(a.in.t, rec); deg != nil || got > tol {
		return refineReply{}, fmt.Errorf("reference %v rel %g: achieved L∞ %g, tolerance %g", a.in, rel, got, tol)
	}
	return refineReply{Planes: plan.Planes, BytesFetched: sess.BytesFetched(), Checksum: checksum(rec)}, nil
}

// matches checks a reply against its reference.
func matches(got, want refineReply) bool {
	return !got.Degraded && got.Checksum == want.Checksum && got.BytesFetched == want.BytesFetched &&
		slices.Equal(got.Planes, want.Planes)
}

// connSamples is what one client connection observed.
type connSamples struct {
	ms, overheadMs []float64
	// elapsed maps a request's trace id to the server's elapsed_seconds.
	elapsed  map[string]float64
	traceIDs []string
	ops      int
	failures []error
}

// serveSamples is one phase of the serve-warm loop.
type serveSamples struct {
	ms, overheadMs []float64
	elapsed        map[string]float64
	// traceIDs holds the last requests of every connection, newest last.
	traceIDs []string
	wall     time.Duration
}

func (s *serveSamples) figures() []figure {
	return latencyFigures(s.ms, float64(len(s.ms))/s.wall.Seconds())
}

// servePhase runs the closed loop: min(2, nproc) connections, each sending
// seeded random (field, rung) one-shot /refine requests until the
// deadline and checking every reply against the in-process reference.
func servePhase(seed int64, phase int, d time.Duration, srv *server, arts []artifact, refs [][]refineReply, r *report) *serveSamples {
	conns := min(2, runtime.NumCPU())
	per := make([]connSamples, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &per[c]
			cs.elapsed = map[string]float64{}
			cl := client()
			defer cl.CloseIdleConnections()
			rng := rand.New(rand.NewSource(seed*31 + int64(c)))
			for seq := 1; time.Now().Before(deadline); seq++ {
				i, k := rng.Intn(len(arts)), rng.Intn(len(rungs))
				id := fmt.Sprintf("%08x%08x%016x", phase+1, c+1, seq)
				reply, lat, err := refine(cl, srv.addr, arts[i].in.field, rungs[k], id)
				cs.ops++
				if err != nil {
					cs.failures = append(cs.failures, err)
					continue
				}
				if !matches(reply, refs[i][k]) {
					cs.failures = append(cs.failures, fmt.Errorf("refine %s rel %g: got %+v, in-process reference %+v",
						arts[i].in.field, rungs[k], reply, refs[i][k]))
					continue
				}
				cs.ms = append(cs.ms, ms(lat))
				cs.overheadMs = append(cs.overheadMs, ms(lat)-1e3*reply.ElapsedSeconds)
				cs.elapsed[id] = reply.ElapsedSeconds
				cs.traceIDs = append(cs.traceIDs, id)
			}
		}(c)
	}
	wg.Wait()
	s := &serveSamples{wall: time.Since(start), elapsed: map[string]float64{}}
	for _, cs := range per {
		r.attempted += cs.ops
		for _, err := range cs.failures {
			r.fail(err)
		}
		s.ms = append(s.ms, cs.ms...)
		s.overheadMs = append(s.overheadMs, cs.overheadMs...)
		for id, e := range cs.elapsed {
			s.elapsed[id] = e
		}
		// The server retains its 256 most recent request traces.
		keep := min(len(cs.traceIDs), 200/conns)
		s.traceIDs = append(s.traceIDs, cs.traceIDs[len(cs.traceIDs)-keep:]...)
	}
	return s
}

// getJSON decodes a GET response body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func runServe(o options, r *report) error {
	if o.serveBin == "" {
		return errors.New("serve-warm needs -serve-bin")
	}
	var arts []artifact
	var writes writeSamples
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// warm holds the last set-up's warm-up replies, one per (field, rung).
	var warm [][]refineReply
	stopPrevious := func() {
		if srv != nil {
			srv.stop()
			srv = nil
		}
	}
	setup := func() error {
		ins, err := warpxInputs(o.n, o.seed, []string{"Bx", "Ex", "Jx"}, warpxSteps[1:])
		if err != nil {
			return err
		}
		arts = arts[:0]
		var paths []string
		for i, in := range ins {
			a := artifact{in: in, path: artifactPath(o, i)}
			_, d, err := compressFile(in, a.path, nil)
			if err != nil {
				return err
			}
			writes.add(d, in.rawBytes())
			arts = append(arts, a)
			paths = append(paths, a.path)
		}
		if srv, err = startServer(o.serveBin, paths); err != nil {
			return err
		}
		// Warm the cache: every (field, rung) once, which fetches every
		// plane any request of the timed loop needs.
		cl := client()
		defer cl.CloseIdleConnections()
		warm = make([][]refineReply, len(arts))
		for i, a := range arts {
			for k, rel := range rungs {
				reply, _, err := refine(cl, srv.addr, a.in.field, rel, fmt.Sprintf("%016x%016x", 0xffff, i*len(rungs)+k+1))
				if err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
				warm[i] = append(warm[i], reply)
			}
		}
		return nil
	}
	if err := repeatSetup(o, r, stopPrevious, setup); err != nil {
		return err
	}
	refs := make([][]refineReply, len(arts))
	for i, a := range arts {
		for k, rel := range rungs {
			ref, err := reference(a, rel)
			if err != nil {
				return err
			}
			refs[i] = append(refs[i], ref)
			r.op()
			r.check(matches(warm[i][k], ref), "warm-up %s rel %g: got %+v, in-process reference %+v", a.in.field, rel, warm[i][k], ref)
		}
	}
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	if err := resetPeakRSS(pid); err != nil {
		return err
	}
	base := servePhase(o.seed, 0, o.seconds, srv, arts, refs, r)
	if !o.trace {
		if err := reportRSS(r, pid, "server process VmHWM over the timed loop"); err != nil {
			return err
		}
		if err := withOracles(arts); err != nil {
			return err
		}
		const source = "secondary: the set-ups' compressions"
		setFigures(r, writes.figures(), source)
		if err := storedRatio(r, arts); err != nil {
			return err
		}
		setFigures(r, base.figures(), "")
		setFigures(r, serveByteFigures(arts, warm), "")
		return nil
	}
	return traceServe(o, r, srv, arts, refs, base)
}

// serveByteFigures are the exact byte counts of the served requests: the
// mean bytes of one (field, rung) request, and the bytes over the oracle's
// for the same tolerances.
func serveByteFigures(arts []artifact, replies [][]refineReply) []figure {
	var total, oracle int64
	for i, a := range arts {
		for k := range rungs {
			total += replies[i][k].BytesFetched
			oracle += a.oracle[k]
		}
	}
	n := len(arts) * len(rungs)
	return []figure{
		{name: "bytes_per_refine", unit: "bytes", v: float64(total) / float64(n),
			note: fmt.Sprintf("%d bytes over %d (field, rung) requests", total, n)},
		{name: "overfetch_ratio", unit: "ratio", v: float64(total) / float64(oracle),
			note: fmt.Sprintf("%d bytes over %d oracle bytes", total, oracle)},
	}
}

// traceServe runs the traced phase and reports the serving tier's layers
// from what the server already exports: /metrics counter and histogram
// deltas over the phase, and the per-request span trees of the phase's
// last requests, which it retains for /debug/obs/trace.
func traceServe(o options, r *report, srv *server, arts []artifact, refs [][]refineReply, base *serveSamples) error {
	var before, after obs.Snapshot
	if err := getJSON("http://"+srv.addr+"/metrics", &before); err != nil {
		return err
	}
	traced := servePhase(o.seed, 1, o.seconds, srv, arts, refs, r)
	if err := getJSON("http://"+srv.addr+"/metrics", &after); err != nil {
		return err
	}
	reportOverhead(r, base.figures(), traced.figures())
	spanMs := map[string]float64{}
	var fetchBytes float64
	var setupMs []float64
	var planMs float64
	for _, id := range traced.traceIDs {
		var rec obs.RequestRecord
		if err := getJSON("http://"+srv.addr+"/debug/obs/trace?id="+id, &rec); err != nil {
			return err
		}
		var refineMs float64
		refines := map[int64]bool{}
		for _, sp := range rec.Spans {
			d := float64(sp.DurNs) / 1e6
			spanMs[sp.Name] += d
			switch sp.Name {
			case "session.refine":
				refineMs += d
				refines[sp.ID] = true
			case "session.fetch_plane":
				if b, ok := sp.Attrs["bytes"].(float64); ok {
					fetchBytes += b
				}
			}
		}
		// The server records retrieval.plan spans in its process-wide
		// tracer, outside the request trees; planning is the bulk of the
		// session.refine span's self time.
		var childMs float64
		for _, sp := range rec.Spans {
			if refines[sp.Parent] {
				childMs += float64(sp.DurNs) / 1e6
			}
		}
		planMs += refineMs - childMs
		setupMs = append(setupMs, 1e3*traced.elapsed[id]-refineMs)
	}
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	histMs := func(name string) float64 { return 1e3 * (after.Histograms[name].Sum - before.Histograms[name].Sum) }
	reqs := float64(len(traced.ms))
	sampled := float64(len(traced.traceIDs))
	hits, misses := counter("servecache.hits"), counter("servecache.misses")
	var stored, raw int64
	for i := range arts {
		h, st, err := core.OpenFile(arts[i].path)
		if err != nil {
			return err
		}
		st.Close()
		for k := range rungs {
			stored += refs[i][k].BytesFetched
			for l, p := range refs[i][k].Planes {
				raw += int64(p * h.Levels[l].RawPlaneSize)
			}
		}
	}
	setLayers(r, map[string]float64{
		"lossless.compress_ratio": float64(stored) / float64(raw),
		"core.session_setup_ms":   sum(setupMs) / sampled,
		"retrieval.plan_ms":       planMs / sampled,
		"storage.read_ms":         spanMs["session.fetch_plane"] / sampled,
		"storage.reads":           misses / reqs,
		"storage.read_bytes":      fetchBytes / sampled,
		"servecache.hit_ratio":    hits / (hits + misses),
		"servecache.get_ms":       (histMs("servecache.fetch_seconds.hit") + histMs("servecache.fetch_seconds.miss")) / reqs,
		"bitplane.decode_ms":      spanMs["session.decode"] / sampled,
		"decompose.recompose_ms":  spanMs["session.recompose"] / sampled,
		"serve.overhead_ms":       sum(traced.overheadMs) / reqs,
		"serve.admission_ms":      spanMs["serve.admission"] / sampled,
	}, map[string]string{
		"lossless.compress_ratio": "stored / raw bytes of the planes each (field, rung) request needs",
		"core.session_setup_ms":   "elapsed_seconds minus the session.refine span",
		"retrieval.plan_ms":       "session.refine self time: planning plus the refine loop's bookkeeping",
		"storage.read_ms":         "session.fetch_plane spans: store read and inflate, not separable in the server",
		"lossless.decompress_ms":  "included in storage.read_ms",
		"serve.overhead_ms":       "client latency minus elapsed_seconds: HTTP, admission, checksum, JSON",
	})
	r.infof("per-request spans from the last %d of %d traced requests; storage.reads, servecache.* and serve.overhead_ms over all", int(sampled), int(reqs))
	return nil
}
