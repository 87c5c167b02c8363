// Command perfbench is the repository benchmark. It drives the write path,
// the progressive read path and the HTTP serving tier through their public
// entry points, checks every output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
//	perfbench -workload refactor|refine-ladder|serve-warm -seed N \
//	          -seconds S -trace 0|1 -serve-bin path/to/serve
//
// run.sh builds this binary and cmd/serve before it starts the clock. The
// workload seed is the only source of randomness: the same seed generates
// the same fields, request order and artifacts. LAYERS.md records why each
// workload exists and which per-layer metric should move which end-to-end
// metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// n is the grid extent per axis of every generated field: 65 in a
	// benchmark run, smaller in the self-test.
	n int
	// setups is how many times the workload's set-up runs; setup_s is the
	// median, since one set-up is a single sample.
	setups   int
	serveBin string
	work     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, annotations and correctness checks.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	notes             map[string]string
	// info holds context lines printed before the result: host record,
	// artifact digest, tracing overhead.
	info []string
	// digest identifies the refactor workload's artifacts.
	digest string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note is printed beside it (percentile, sample
// count, where a secondary measurement comes from).
func (r *report) set(name, unit string, v float64, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// op counts one attempted operation.
func (r *report) op() { r.attempted++ }

// check records a correctness check of the current operation; a failed
// check counts the operation as failed.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// fail records a failed operation caused by an error.
func (r *report) fail(err error) { r.check(false, "%v", err) }

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) write(w io.Writer) error {
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		line := fmt.Sprintf("%-26s %14.6g %s", name, m.Value, m.Unit)
		if note := r.notes[name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// figure is one end-to-end value with its unit and annotation.
type figure struct {
	name, unit string
	v          float64
	note       string
}

// setFigures reports figs; source, when set, says where a metric outside
// the workload's own timed loop was measured.
func setFigures(r *report, figs []figure, source string) {
	for _, f := range figs {
		note := f.note
		if source != "" {
			if note != "" {
				note += "; "
			}
			note += source
		}
		r.set(f.name, f.unit, f.v, note)
	}
}

// reportOverhead prints each figure of the traced phase against the
// untraced phase of the same run.
func reportOverhead(r *report, base, traced []figure) {
	for i, b := range base {
		t := traced[i]
		r.infof("trace overhead: %-18s untraced %.6g %s, traced %.6g %s (%+.1f%%)",
			b.name, b.v, b.unit, t.v, t.unit, 100*(t.v-b.v)/b.v)
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"refactor":      runRefactor,
	"refine-ladder": runLadder,
	"serve-warm":    runServe,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "refactor, refine-ladder or serve-warm")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "cmd/serve binary for the serve-warm workload")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for artifacts")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.n, o.setups = 65, 5
	o.trace = trace != 0
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload in a fresh scratch directory and returns its
// report; an error means the benchmark itself could not run.
func run(o options) (*report, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have refactor, refine-ladder, serve-warm)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("need -seconds > 0")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.work = dir
	r := newReport()
	r.infof("host: %s", hostRecord())
	r.infof("workload: %s seed=%d seconds=%.0f trace=%v n=%d", o.workload, o.seed, o.seconds.Seconds(), o.trace, o.n)
	if err := drive(o, r); err != nil {
		return nil, err
	}
	return r, nil
}

// artifactPath names the scratch file of artifact i.
func artifactPath(o options, i int) string {
	return filepath.Join(o.work, fmt.Sprintf("a%03d.pmgd", i))
}
