package main

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// host is the context every result records: what the machine offered and
// which source was measured. None of it is a gated metric.
type host struct {
	NProc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// EffectiveParallelism is what a spin probe measures: GOMAXPROCS ×
	// (one goroutine's spin time) / (GOMAXPROCS goroutines' spin time).
	// A 2-vCPU host whose siblings are busy reports about 1.
	EffectiveParallelism float64 `json:"effective_parallelism"`
	GoVersion            string  `json:"go_version"`
	// Commit is the VCS revision the binary was built from, marked
	// "+dirty" for a modified tree and "unknown" outside a git checkout.
	Commit string `json:"commit"`
}

func hostRecord() string {
	h := host{
		NProc:                runtime.NumCPU(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		EffectiveParallelism: spinProbe(),
		GoVersion:            runtime.Version(),
		Commit:               commit(),
	}
	b, _ := json.Marshal(h) // a struct of plain fields always marshals
	return string(b)
}

var spinSink atomic.Uint64

// spinTime is the wall time of g goroutines each running the same ALU-only
// loop; the best of three attempts filters out one-off preemption.
func spinTime(g int) time.Duration {
	const iters = 20_000_000
	best := time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 3; attempt++ {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(x uint64) {
				defer wg.Done()
				for j := 0; j < iters; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				spinSink.Add(x)
			}(uint64(i) + 1)
		}
		wg.Wait()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// spinProbe measures effective parallelism after a second of load on every
// core: on a VM whose idle vCPUs are descheduled by the hypervisor, a second
// vCPU can take most of a second to run in parallel again, and a cold probe
// would report that lag instead of what the run gets. The warm-up also
// precedes every set-up.
func spinProbe() float64 {
	p := runtime.GOMAXPROCS(0)
	for start := time.Now(); time.Since(start) < time.Second; {
		spinTime(p)
	}
	return float64(p) * spinTime(1).Seconds() / spinTime(p).Seconds()
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
