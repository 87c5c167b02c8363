package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pmgard/internal/sim/warpx"
)

// refactorPhase compresses the artifacts' fields to their files one at a
// time, in a fresh seeded order each round, until the deadline; the first
// round always completes so every field has been written. Every artifact
// is reopened and checked, and every rewrite of a field must reproduce its
// first artifact byte for byte. It returns the samples and the digest of
// each artifact.
func refactorPhase(seed int64, deadline time.Time, arts []artifact, l *layers, r *report) (*writeSamples, []string) {
	rng := rand.New(rand.NewSource(seed))
	w := &writeSamples{}
	digests := make([]string, len(arts))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, i := range rng.Perm(len(arts)) {
			if round > 0 && !time.Now().Before(deadline) {
				break
			}
			a := arts[i]
			h, d, err := compressFile(a.in, a.path, l)
			r.op()
			if err != nil {
				r.fail(fmt.Errorf("compress %v: %w", a.in, err))
				continue
			}
			w.add(d, a.in.rawBytes())
			if l != nil {
				l.harvest()
			}
			if err := checkArtifact(a.path, h); err != nil {
				r.fail(err)
				continue
			}
			dg, err := fileDigest(a.path)
			if err != nil {
				r.fail(err)
				continue
			}
			if digests[i] == "" {
				digests[i] = dg
			} else {
				r.check(dg == digests[i], "%v: rewrite digest %.12s differs from first %.12s", a.in, dg, digests[i])
			}
		}
	}
	return w, digests
}

// combinedDigest identifies a run's artifacts: the same seed must give the
// same value on every run and host.
func combinedDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runRefactor(o options, r *report) error {
	var arts []artifact
	setup := func() error {
		ws, err := warpxInputs(o.n, o.seed, warpx.FieldNames(), warpxSteps)
		if err != nil {
			return err
		}
		gs, err := grayScottInputs(o.n, o.seed, grayScottSteps)
		if err != nil {
			return err
		}
		arts = arts[:0]
		for i, in := range append(ws, gs...) {
			arts = append(arts, artifact{in: in, path: artifactPath(o, i)})
		}
		return nil
	}
	if err := repeatSetup(o, r, nil, setup); err != nil {
		return err
	}
	if err := resetPeakRSS("self"); err != nil {
		return err
	}
	base, digests := refactorPhase(o.seed, time.Now().Add(o.seconds), arts, nil, r)
	r.digest = combinedDigest(digests)
	r.infof("artifact digest: %s (%d fields)", r.digest, len(arts))
	if !o.trace {
		if err := reportRSS(r, "self", "benchmark process VmHWM over the timed loop"); err != nil {
			return err
		}
		setFigures(r, base.figures(), "")
		if err := storedRatio(r, arts); err != nil {
			return err
		}
		// The read-path metrics come from ladders over the artifacts after
		// the timed loop, for a third of its length; they also prove that
		// every artifact retrieves within its tolerances.
		if err := withOracles(arts); err != nil {
			return err
		}
		const source = "secondary: ladders over the artifacts after the timed loop"
		ladders := ladderPhase(o.seed, time.Now().Add(o.seconds/3), arts, nil, r)
		setFigures(r, ladders.figures(), source)
		setFigures(r, byteFigures(arts, func(i int) []int64 { return ladders.bytes[i] }), source)
		return nil
	}
	l := newLayers()
	traced, tracedDigests := refactorPhase(o.seed, time.Now().Add(o.seconds), arts, l, r)
	r.check(slices.Equal(tracedDigests, digests), "traced compression wrote different artifacts: digest %s, untraced %s",
		combinedDigest(tracedDigests), r.digest)
	reportOverhead(r, base.figures(), traced.figures())
	n := float64(len(traced.ms))
	setLayers(r, map[string]float64{
		"decompose.forward_ms":    l.spanMs("decompose") / n,
		"bitplane.encode_ms":      l.spanMs("bitplane.encode") / n,
		"lossless.compress_ms":    1e3 * l.histSeconds("pool.lossless.compress.", ".task_seconds") / n,
		"lossless.compress_ratio": float64(l.counter("lossless.compress_bytes_out")) / float64(l.counter("lossless.compress_bytes_in")),
		"pool.wait_ms":            1e3 * l.histSeconds("pool.", ".wait_seconds") / n,
		"pool.task_ms":            1e3 * l.histSeconds("pool.", ".task_seconds") / n,
		"storage.write_ms":        float64(l.writeNs.Load()) / 1e6 / n,
	}, map[string]string{
		"lossless.compress_ms": "deflate task time summed over workers",
		"pool.wait_ms":         "all pool sites, summed over tasks",
		"pool.task_ms":         "all pool sites, summed over tasks",
		"storage.write_ms":     "segment writes plus commit",
	})
	r.infof("traced spans: %v", l.spanNames())
	return nil
}
