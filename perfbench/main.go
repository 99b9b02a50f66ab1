// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload against the system, checks every answer
// against an oracle, and prints the workload's metrics with their units.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics, taken from spans the benchmark records
// around its own calls into each layer. Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload pagerank-evolve --seed 1 --seconds 20 --trace 0
//
// The command exits non-zero when a check fails. README.md describes the
// workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"i2mapreduce/internal/fsutil"
)

// setups is how many times a run sets the system up; setup_s is the
// median, and the last set-up system is the one measured.
const setups = 5

// deadline bounds one invocation, set-up and checks included.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string  // scratch directory of the system under test
	out      string  // .bench_build directory for records and spans
	tr       *tracer // nil unless traced

	attempted, failed int64
	problems          []string
	e2e, layers       map[string]metric
	sizes             map[string]any
	notes             []string
}

// fail counts n failed operations and keeps the first reasons.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) endToEnd(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *run) layer(name string, v float64, unit string)    { r.layers[name] = metric{v, unit} }
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tracedOp reports whether operation i of a traced run records spans.
// Traced runs alternate traced and untraced operations, so the same run
// measures the tracing overhead.
func (r *run) tracedOp(i int) bool { return r.traced && i%2 == 0 }

// reportOps records the three latency metrics every workload shares: the
// median and a tail percentile of its headline operation, and the median
// of its second operation. tailP is the tail percentile the workload
// reports, fixed per workload so that it does not move with the sample
// count. A traced run also reports the overhead of tracing on the
// headline median.
func (r *run) reportOps(head, headTraced, second samples, tailP float64) {
	all := append(slices.Clone(head), headTraced...)
	r.endToEnd("p50_ms", all.quantile(0.5)*1e3, "ms")
	r.endToEnd("tail_ms", all.quantile(tailP)*1e3, "ms")
	r.endToEnd("second_p50_ms", second.quantile(0.5)*1e3, "ms")
	if r.traced {
		over := 0.0
		if len(head) > 0 && len(headTraced) > 0 {
			over = (headTraced.quantile(0.5)/head.quantile(0.5) - 1) * 100
		}
		r.layer("trace.overhead_pct", over, "%")
		r.note("tracing overhead on the headline median: %+.2f%% (%d traced vs %d untraced operations)",
			over, len(headTraced), len(head))
	}
}

// setup builds the system under test `setups` times and reports the
// median build time as setup_s. Every build but the last is torn down at
// once.
func setup[T any](r *run, build func(i int) (T, error), teardown func(T)) (T, error) {
	var times samples
	var last T
	for i := 0; i < setups; i++ {
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return last, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setups-1 {
			teardown(v)
		}
		last = v
		// Each set-up, and the measurement after the last one, starts
		// quiesced outside the timer: the previous set-up's garbage
		// collected and its unsynced writes flushed, so that work does not
		// land in the next timing.
		runtime.GC()
		syscall.Sync()
	}
	r.endToEnd("setup_s", times.quantile(0.5), "s")
	r.note("setup: %d set-ups, median %.3f s, all %.3f s", len(times), times.quantile(0.5), []float64(times))
	return last, nil
}

var workloads = map[string]func(*run) error{
	"pagerank-evolve":  runPageRank,
	"wordcount-stream": runWordCountStream,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain())
}

func benchMain() int {
	workload := flag.String("workload", "", "workload to run: pagerank-evolve or wordcount-stream")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	fn := workloads[*workload]
	if fn == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		out:    filepath.Join(root, ".bench_build"),
		e2e:    map[string]metric{},
		layers: map[string]metric{},
		sizes:  map[string]any{},
	}
	r.work = filepath.Join(r.out, "work", fmt.Sprintf("%s-%d", r.workload, os.Getpid()))
	if r.traced {
		r.tr = newTracer(1)
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.work)
	// The watchdog keeps a wedged run inside its time limit; children are
	// killed by their parent-death signal.
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %s\n", r.workload, deadline)
		os.RemoveAll(r.work)
		os.Exit(3)
	})
	defer watchdog.Stop()

	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle self-test:", err)
		return 1
	}
	r.note("oracle self-test: every planted wrong answer was caught")
	total0, steal0, wait0 := cpuTicks()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	total1, steal1, wait1 := cpuTicks()
	if dt := total1 - total0; dt > 0 {
		r.note("machine during the run: %.1f%% of CPU time stolen by the hypervisor, %.1f%% waiting for I/O",
			100*(steal1-steal0)/dt, 100*(wait1-wait0)/dt)
	}
	if r.traced {
		if err := r.completeLayers(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return r.finish(root)
}

// finish prints the human-readable report, stores the stamped record and
// prints the result line.
func (r *run) finish(root string) int {
	env := map[string]any{
		"source":     sourceHash(root),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"traced":     r.traced,
		"workload":   r.workload,
		"sizes":      r.sizes,
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envLine)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	metrics := r.e2e
	if r.traced {
		metrics = r.layers
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	res := outcome{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: metrics}
	if err := r.store(env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// store writes the run's stamped record (environment, both metric sets,
// notes) under .bench_build/results, so records from different machines
// or sources are never compared silently.
func (r *run) store(env map[string]any, res outcome) error {
	dir := filepath.Join(r.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(map[string]any{
		"env": env, "result": res, "end_to_end": r.e2e, "per_layer": r.layers,
		"notes": r.notes, "problems": r.problems,
	}, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", r.workload, r.seed, r.traced, time.Now().UnixNano())
	return fsutil.WriteFileAtomic(filepath.Join(dir, name), buf)
}

// writeTrace dumps the run's spans under .bench_build/spans.
func (r *run) writeTrace(spans []span) error {
	dir := filepath.Join(r.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	r.layer("trace.spans", float64(len(spans)), "count")
	r.note("spans: %d written to %s", len(spans), path)
	return writeSpans(path, spans)
}

// sourceHash identifies the benchmarked sources: a digest of every Go
// source and module file under root. The checkout a benchmark runs in
// need not be a git repository, so no commit id is available.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
