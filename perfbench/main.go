// Command perfbench is the repository benchmark: a single-process load
// generator that serves the spatial engine on loopback through its
// public packages (server, wire, cluster and the spatialtf facade),
// drives one closed-loop workload, checks every answer, and prints one
// JSON result line.
//
//	perfbench -workload star_join -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// telemetry and tracing off. With -trace 1 it carries the per-layer
// metrics: the same queries timed rung by rung down the stack (see
// layers.go), the program's own counters and traces, and the tracing
// overhead. Run it through run.sh, which builds it from the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that generates its
// inputs and oracle answers from the run's seed.
var workloads = map[string]func(*env) (*workload, error){
	"star_join":       starJoin,
	"mixed_serve":     mixedServe,
	"cluster_scatter": clusterScatter,
}

// workload is one benchmark workload: inputs and oracle answers made
// from the seed, and how to start its system under test.
type workload struct {
	// headline is the op kind whose median latency is p50_ms.
	headline int
	// reps is how many systems a run sets up and drives in turn;
	// setup_s is the median set-up time. Cheap set-ups repeat more.
	reps int
	// start sets up one system under test; traced attaches the
	// program's telemetry registries and tracers.
	start func(traced bool) (*system, error)
}

// system is a started system under test.
type system struct {
	// loop drives the workload's closed loop for the given time.
	loop func(time.Duration) *loopResult
	// check, when set, verifies the end state and records end-state
	// metrics after the loop.
	check func(*report) error
	close func()
}

// runWorkload is the untraced run. It sets the system up reps times;
// each system is driven for an equal share of the measured time and
// checked, and the shares are pooled. Pooling several systems averages
// out differences between systems: with one system per run, two runs of
// cluster_scatter on the same seed measured 76 and 63 ms.
func runWorkload(e *env, w *workload) (*report, error) {
	r := newReport()
	reps := w.reps
	if e.short {
		reps = 1
	}
	var setups []float64
	var loops []*loopResult
	for i := 0; i < reps; i++ {
		// The benchmark's own inputs (generated rows, probe pools,
		// statements) are live both here and after the loop, so the
		// difference is the heap the program holds. Every set-up starts
		// after this forced GC, not only the last one measured.
		heap0 := liveHeap()
		t0 := time.Now()
		sys, err := w.start(false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loops = append(loops, sys.loop(e.dur()/time.Duration(reps)))
		if i == reps-1 {
			r.set("live_heap_mb", "MiB", (liveHeap()-heap0)/(1<<20), 1)
		}
		if sys.check != nil {
			err = sys.check(r)
		}
		sys.close()
		if err != nil {
			return nil, err
		}
	}
	r.set("setup_s", "s", median(setups), reps)
	pool(loops).report(r, w.headline)
	return r, nil
}

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  float64
	// root is the checkout holding BENCHMARK.json; scratch is the
	// directory durable databases are created under (removed at exit).
	root, scratch string
	// short shrinks data sizes and repeat counts; only the self-test
	// sets it.
	short bool
	// wrongAnswer corrupts the oracle answers, so the self-test can
	// check that a mismatch lands in failed_frac.
	wrongAnswer bool
}

// dur is the measured time of a closed loop.
func (e *env) dur() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

func main() {
	var e env
	var trace int
	flag.StringVar(&e.workload, "workload", "", "workload name: star_join, mixed_serve, cluster_scatter, or all (each in turn)")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed")
	flag.Float64Var(&e.seconds, "seconds", 10, "measured time per run, seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&e.root, "root", ".", "checkout root (holds BENCHMARK.json)")
	flag.StringVar(&e.scratch, "scratch", ".bench_build", "directory for database files")
	flag.Parse()
	names := []string{e.workload}
	if e.workload == "all" {
		names = []string{"star_join", "mixed_serve", "cluster_scatter"}
	}
	failed := false
	for _, name := range names {
		one := e
		one.workload = name
		if err := run(os.Stdout, &one, trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// run executes one run and prints the report, the host fingerprint and
// the result line.
func run(w io.Writer, e *env, traced bool) error {
	spec, err := loadSpec(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	prepare, ok := workloads[e.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", e.workload)
	}
	if e.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	dir, err := os.MkdirTemp(e.scratch, "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	e.scratch = dir

	var rep *report
	if traced {
		rep, err = runLayers(e)
	} else {
		var w *workload
		if w, err = prepare(e); err == nil {
			rep, err = runWorkload(e, w)
		}
	}
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
		for _, m := range want {
			x, ok := expect(m.Name)
			if !ok {
				return fmt.Errorf("per-layer metric %s has no expectation", m.Name)
			}
			rep.notef("expect %s: moves %s; flat on %s", m.Name, x.moves, orNone(x.flat))
		}
	}
	return rep.print(w, e, want)
}

func orNone(s string) string {
	if s == "" {
		return "(none named)"
	}
	return s
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark checks itself
// against: the metric names each mode must print.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// report accumulates a run's metrics and answer accounting.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// notes are extra human-readable lines (oracle mismatches, layer
	// expectations).
	notes []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{value: v, unit: unit, n: n}
}

// check counts one oracle comparison in the report.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.notef("%s: %v", what, err)
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric as "name value unit (n=samples)", then the
// host fingerprint, then the JSON result holding the metrics want names.
// A declared metric the run did not produce, or produced with another
// unit, is an error: the result line would not meet the spec.
func (r *report) print(w io.Writer, e *env, want []specMetric) error {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Fprintf(w, "metric %-32s %14.6g %-8s (n=%d)\n", k, m.value, m.unit, m.n)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	fmt.Fprintf(w, "metric %-32s %14.6g %-8s (n=%d)\n", "failed_frac",
		float64(r.failed)/float64(attempted), "ratio", r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	fp, err := json.Marshal(fingerprint(e))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", fp)

	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(want)),
	}
	var missing []string
	for _, s := range want {
		m, ok := r.metrics[s.Name]
		if !ok || m.unit != s.Unit {
			missing = append(missing, s.Name)
			continue
		}
		res.Metrics[s.Name] = resultValue{Value: m.value, Unit: m.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not produce %s", e.workload, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

// host is the fingerprint printed with every result, so a change of
// host is never read as a change of code.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// RefMs is the median time of refWork, a host speed index.
	RefMs    float64 `json:"ref_ms"`
	Commit   string  `json:"commit,omitempty"`
	Source   string  `json:"source"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
}

func fingerprint(e *env) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RefMs:      ms(refWork(15)),
		Commit:     gitCommit(e.root),
		Source:     sourceDigest(e.root),
		Workload:   e.workload,
		Seed:       e.seed,
	}
}
