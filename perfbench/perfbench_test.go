package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// serveBin is cmd/serve built once for the serve-warm tests.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "serve")
	out, err := exec.Command("go", "build", "-o", serveBin, "pmgard/cmd/serve").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build cmd/serve: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// small runs a workload at 17³ with one set-up and short phases.
func small(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	o := options{
		workload: workload, seed: seed, seconds: 300 * time.Millisecond, trace: trace,
		n: 17, setups: 1, serveBin: serveBin, work: t.TempDir(),
	}
	r, err := run(o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, r.failed, r.attempted, r.failures)
	}
	return r
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: missing %s", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s in %s, declared %s", what, name, m.Unit, unit)
		}
	}
}

// entered lists, per workload, the per-layer metrics of layers the
// workload does work in (LAYERS.md); a traced run must measure each of
// them above 0, or its span, counter or seam has stopped reporting.
var entered = map[string][]string{
	"refactor": {"decompose.forward_ms", "bitplane.encode_ms", "lossless.compress_ms",
		"lossless.compress_ratio", "pool.task_ms", "storage.write_ms"},
	"refine-ladder": {"core.session_setup_ms", "retrieval.plan_ms", "storage.read_ms", "storage.reads",
		"storage.read_bytes", "lossless.decompress_ms", "bitplane.decode_ms", "decompose.recompose_ms"},
	"serve-warm": {"core.session_setup_ms", "retrieval.plan_ms", "servecache.hit_ratio", "servecache.get_ms",
		"bitplane.decode_ms", "decompose.recompose_ms", "serve.overhead_ms", "serve.admission_ms"},
}

func positive(t *testing.T, what string, got map[string]metric, names []string) {
	t.Helper()
	for _, name := range names {
		if v := got[name].Value; v <= 0 {
			t.Errorf("%s: %s = %g, want > 0", what, name, v)
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at small
// scale: every correctness check passes, each run prints exactly the
// metrics BENCHMARK.json declares, the end-to-end metrics are non-zero,
// and so is every per-layer metric of a layer the workload enters.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			r := small(t, name, 1, false)
			sameMetrics(t, name, r.metrics, endToEnd)
			for m, v := range r.metrics {
				if v.Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", name, m, v.Value)
				}
			}
			traced := small(t, name, 1, true).metrics
			sameMetrics(t, name+" traced", traced, perLayer)
			positive(t, name+" traced", traced, entered[name])
		})
	}
}

// TestExactMetricsFollowSeed checks the exact counts: the same seed
// repeats them and the artifact digest exactly, another seed changes them.
func TestExactMetricsFollowSeed(t *testing.T) {
	exact := []string{"stored_ratio", "bytes_per_refine", "overfetch_ratio"}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b, c := small(t, name, 1, false), small(t, name, 1, false), small(t, name, 2, false)
			if a.digest != b.digest {
				t.Errorf("artifact digest %s then %s for one seed", a.digest, b.digest)
			}
			for _, m := range exact {
				if a.metrics[m] != b.metrics[m] {
					t.Errorf("%s: %v then %v for one seed", m, a.metrics[m], b.metrics[m])
				}
				if a.metrics[m] == c.metrics[m] {
					t.Errorf("%s: %v for seeds 1 and 2", m, a.metrics[m])
				}
			}
		})
	}
}
