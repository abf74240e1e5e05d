// Command perfbench is the repository's benchmark: it times the DVM
// simulator end to end on three workloads, checks every output the
// program produces, and in a separate traced run times the calls into
// each layer of the program from the benchmark's own code.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload pagerank-warm|frontier-cold|serve-jobs \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics named in BENCHMARK.json; with --trace 1
// it holds the per-layer metrics. The lines before it name every metric
// with its unit, including the aliases that apply to one workload only
// (host_ns_per_access, jobs_per_s, job_p50_ms, job_tail_ms) and
// error_rate. README.md in this directory gives each workload's
// rationale and the prediction table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the graph seed the program's own profiles use; the
// sweep workloads' expected outputs for it are committed in
// digests_seed42.json.
const defaultSeed = 42

// outDir holds everything a run writes (job stores, checkpoints, span
// files), relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted, failed int
	e2e               map[string]metric // --trace 0 metrics
	layers            map[string]metric // --trace 1 metrics
	extra             map[string]metric // printed only: aliases, traced end-to-end figures
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}, extra: map[string]metric{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// opts are the settings every workload reads.
type opts struct {
	seed      int64
	seconds   float64
	trace     bool
	jobs      int // -j: cell concurrency and serve clients, nproc
	setupReps int
	// corrupt flips one expected output, which must surface as failed
	// operations; the self-test uses it to prove the checks can fail.
	corrupt      bool
	writeDigests string
}

type workload struct {
	name string
	run  func(ctx context.Context, o opts, r *result) error
}

var workloads = []workload{
	{"pagerank-warm", func(ctx context.Context, o opts, r *result) error { return runSweep(ctx, pagerankWarm(o.seed), o, r) }},
	{"frontier-cold", func(ctx context.Context, o opts, r *result) error { return runSweep(ctx, frontierCold(o.seed), o, r) }},
	{"serve-jobs", runServe},
}

func main() {
	name := flag.String("workload", "", "workload to run: pagerank-warm, frontier-cold or serve-jobs")
	seed := flag.Int64("seed", defaultSeed, "input seed: the graph seed of the sweep workloads, the job-sequence seed of serve-jobs")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	writeDigests := flag.String("write-digests", "", "write the reference digests of this seed to the given file and exit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, jobs: runtime.NumCPU(),
		setupReps: setupReps, writeDigests: *writeDigests}
	prov := provenance(o)
	b, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", b)

	r := newResult()
	if err := w.run(context.Background(), o, r); err != nil {
		fail(fmt.Errorf("%s: %w", w.name, err))
	}
	if o.writeDigests != "" {
		return
	}
	if err := r.write(os.Stdout, o); err != nil {
		fail(err)
	}
}

// write prints the run's notes and every metric by name with its unit,
// then, as the last line, the JSON result: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
func (r *result) write(w io.Writer, o opts) error {
	r.extra["error_rate"] = metric{float64(r.failed) / float64(max(r.attempted, 1)), "fraction"}
	r.extra["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	out := r.layers
	if !o.trace {
		r.e2e["peak_rss_mib"] = r.extra["peak_rss_mib"]
		out = r.e2e
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	printMetrics(w, "metric", r.e2e)
	printMetrics(w, "layer", r.layers)
	printMetrics(w, "info", r.extra)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-40s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// deadlineAfter returns when a measured phase of the given length ends.
func deadlineAfter(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// runDir returns a fresh directory under outDir for one run's files.
func runDir(name string) (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o777)
}
