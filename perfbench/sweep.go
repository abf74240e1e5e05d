package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/runner"
)

// prof is the scale every workload runs at: the registered tiny profile
// (graphs at 1/512 of paper size with the TLB scaled to match), so one
// run holds enough iterations for a steady median.
var prof = core.ProfileTiny

// sweepWorkload is a closed loop with a single caller over a fixed list of
// cells; each cell runs the seven paper modes through RunModesShared
// with the default share policy, as dvmsim does.
type sweepWorkload struct {
	name  string
	cells []core.Workload
	// cold workloads prepare every cell afresh in every iteration (graph
	// generation, layout and table builds), like a dvmsim invocation;
	// warm ones prepare once in set-up.
	cold bool
}

func pagerankWarm(seed int64) sweepWorkload {
	return sweepWorkload{name: "pagerank-warm", cells: cellsOf(seed, "PageRank", "FR", "Wiki", "LJ")}
}

func frontierCold(seed int64) sweepWorkload {
	var cells []core.Workload
	cells = append(cells, cellsOf(seed, "BFS", "FR", "Wiki", "LJ")...)
	cells = append(cells, cellsOf(seed, "SSSP", "FR", "Wiki", "LJ")...)
	cells = append(cells, cellsOf(seed, "CF", "NF", "Bip1")...)
	return sweepWorkload{name: "frontier-cold", cells: cells, cold: true}
}

func cellsOf(seed int64, alg string, datasets ...string) []core.Workload {
	out := make([]core.Workload, len(datasets))
	for i, name := range datasets {
		d, err := graph.DatasetByName(name)
		if err != nil {
			panic(err) // the names above are registry constants
		}
		out[i] = core.Workload{Algorithm: alg, Dataset: d, Scale: prof.Scale,
			PageRankIters: prof.PageRankIters, Seed: seed}
	}
	return out
}

func cellName(w core.Workload) string { return w.Algorithm + "/" + w.Dataset.Name }

func slug(m core.Mode) string {
	if d, ok := mmu.DescriptorOf(m); ok {
		return d.Slug
	}
	return m.String()
}

func modeKey(w core.Workload, m core.Mode) string { return cellName(w) + "/" + slug(m) }

// digest fingerprints a cell's deterministic outcome: the whole
// RunResult (Stats, IOMMU counters, Metrics snapshot...) with the host
// wall time zeroed.
func digest(r core.RunResult) string {
	r.Wall = 0
	b, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

//go:embed digests_seed42.json
var committedDigestsJSON []byte

// committedDigests returns the expected cell digests of the default
// seed, by workload.
func committedDigests() (map[string]map[string]string, error) {
	var out map[string]map[string]string
	if err := json.Unmarshal(committedDigestsJSON, &out); err != nil {
		return nil, fmt.Errorf("digests_seed42.json: %w", err)
	}
	return out, nil
}

// sweepRun is one run of a sweep workload.
type sweepRun struct {
	w        sweepWorkload
	o        opts
	modes    []core.Mode
	budget   *runner.Budget
	cfg      core.SystemConfig // the timed loop's: default share policy, -j workers
	prepared []*core.Prepared  // warm workloads: prepared in set-up
	expected map[string]string // cell digest by modeKey
}

func newSweepRun(w sweepWorkload, o opts) *sweepRun {
	s := &sweepRun{w: w, o: o, modes: core.AllModes, budget: runner.BudgetFor(o.jobs)}
	s.cfg = prof.SystemConfig()
	s.cfg.Workers = s.budget
	return s
}

// setup prepares the workload and runs the reference pass: every cell on
// the sequential independent path (ShareOff, -j 1). The reference
// digests check the timed loop's outputs, and the pass builds every
// table the timed loop's modes need.
func (s *sweepRun) setup(ctx context.Context, tr *tracer) (time.Duration, map[string]string, error) {
	t0 := time.Now()
	sp := tr.begin("perfbench.setup", "", nil)
	defer sp.end()
	ref := map[string]string{}
	refCfg := prof.SystemConfig()
	refCfg.ShareTraces = core.ShareOff
	var prepared []*core.Prepared
	for _, w := range s.w.cells {
		p, err := s.prepare(w, tr, sp, cellName(w))
		if err != nil {
			return 0, nil, err
		}
		c := tr.begin("core.RunModesCtx", cellName(w), sp)
		res, err := p.RunModesCtx(ctx, s.modes, refCfg, 1)
		c.end()
		if err != nil {
			return 0, nil, err
		}
		for m, rr := range res {
			ref[modeKey(w, m)] = digest(rr)
		}
		if !s.w.cold {
			prepared = append(prepared, p)
		}
	}
	s.prepared = prepared
	return time.Since(t0), ref, nil
}

func (s *sweepRun) prepare(w core.Workload, tr *tracer, parent *activeSpan, op string) (*core.Prepared, error) {
	sp := tr.begin("core.PrepareB", op, parent)
	defer sp.end()
	return core.PrepareB(w, s.budget)
}

// cellOut is one operation of an iteration: a cell's seven modes
// through RunModesShared, preceded by its Prepare in a cold workload.
type cellOut struct {
	w    core.Workload
	res  map[core.Mode]core.RunResult
	err  error
	wall time.Duration
}

// iterate runs one pass over every cell at the given concurrency.
func (s *sweepRun) iterate(ctx context.Context, cfg core.SystemConfig, jobs int, tr *tracer, parent *activeSpan, tag string) []cellOut {
	outs := make([]cellOut, 0, len(s.w.cells))
	for i, w := range s.w.cells {
		op := tag + "/" + cellName(w)
		t := time.Now()
		var p *core.Prepared
		var err error
		if s.w.cold {
			p, err = s.prepare(w, tr, parent, op)
		} else {
			p = s.prepared[i]
		}
		var res map[core.Mode]core.RunResult
		if err == nil {
			sp := tr.begin("core.RunModesShared", op, parent)
			res, err = p.RunModesShared(ctx, s.modes, cfg, jobs)
			sp.end()
		}
		outs = append(outs, cellOut{w, res, err, time.Since(t)})
	}
	return outs
}

// loopStats accumulates one timed loop.
type loopStats struct {
	iterWall, iterCPU []time.Duration
	opWall            []time.Duration
	attempted, failed int
	accesses          uint64
	firstErr          string
}

func (st *loopStats) wall() time.Duration {
	var t time.Duration
	for _, d := range st.iterWall {
		t += d
	}
	return t
}

// loop runs iterations until the deadline (at least one) and checks
// every cell of every iteration against the expected digests. Checking
// happens outside the timed part of the iteration.
//
// With a tracer, iterations alternate between untraced (even) and
// traced (odd), so the two halves see the same conditions and their
// difference is the tracing overhead.
func (s *sweepRun) loop(ctx context.Context, seconds float64, tr *tracer) (untraced, traced loopStats) {
	end := deadlineAfter(seconds)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		st, t := &untraced, (*tracer)(nil)
		if tr != nil && i%2 == 1 {
			st, t = &traced, tr
		}
		tag := fmt.Sprintf("i%d", i)
		cpu0, t0 := cpuTime(), time.Now()
		sp := t.begin("perfbench.iteration", tag, nil)
		outs := s.iterate(ctx, s.cfg, s.o.jobs, t, sp, tag)
		sp.end()
		st.iterWall = append(st.iterWall, time.Since(t0))
		st.iterCPU = append(st.iterCPU, cpuTime()-cpu0)
		for _, out := range outs {
			s.check(st, out)
		}
	}
	return untraced, traced
}

// check counts one operation, failed when the call errs or any mode's
// output digest differs from the expected one.
func (s *sweepRun) check(st *loopStats, out cellOut) {
	st.attempted++
	st.opWall = append(st.opWall, out.wall)
	bad := ""
	if out.err != nil {
		bad = fmt.Sprintf("%s: %v", cellName(out.w), out.err)
	}
	for _, m := range s.modes {
		if bad != "" {
			break
		}
		key := modeKey(out.w, m)
		rr := out.res[m]
		st.accesses += rr.Stats.Accesses
		if got := digest(rr); got != s.expected[key] {
			bad = fmt.Sprintf("%s: output digest %s, expected %s", key, got, s.expected[key])
		}
	}
	if bad != "" {
		st.failed++
		if st.firstErr == "" {
			st.firstErr = bad
		}
	}
}

// endToEnd derives the end-to-end metrics of one loop.
func (st *loopStats) endToEnd(r *result, into map[string]metric, prefix string) {
	secs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds()
		}
		return out
	}
	wall := st.wall()
	into["sweep_s"] = metric{median(secs(st.iterWall)), "s"}
	into["sweep_cpu_s"] = metric{median(secs(st.iterCPU)), "s"}
	into["ops_per_s"] = metric{float64(len(st.opWall)) / wall.Seconds(), "1/s"}
	opMS := durationsMS(st.opWall)
	into["op_p50_ms"] = metric{median(opMS), "ms"}
	tv, tl := tail(opMS)
	into["op_tail_ms"] = metric{tv, "ms"}
	r.extra[prefix+"host_ns_per_access"] = metric{float64(wall.Nanoseconds()) / float64(max(st.accesses, 1)), "ns"}
	r.notef("%s%d iterations of %d cells; op_tail_ms is %s of %d cell calls",
		prefix, len(st.iterWall), len(opMS)/max(len(st.iterWall), 1), tl, len(opMS))
}

func runSweep(ctx context.Context, w sweepWorkload, o opts, r *result) error {
	s := newSweepRun(w, o)
	var setups []float64
	var ref map[string]string
	for i := 0; i < o.setupReps; i++ {
		d, dig, err := s.setup(ctx, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if ref != nil {
			countMismatches(r, "set-up repetition", ref, dig)
		}
		ref = dig
		setups = append(setups, d.Seconds())
		runtime.GC() // the repetition's garbage must not set the run's peak RSS
	}
	r.extra["setup.peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	if o.writeDigests != "" {
		return writeDigests(o.writeDigests, w.name, ref)
	}
	s.expected = ref
	if o.seed == defaultSeed {
		all, err := committedDigests()
		if err != nil {
			return err
		}
		if want := all[w.name]; want != nil {
			countMismatches(r, "reference vs committed digest", want, ref)
			s.expected = want
		}
	}
	if o.corrupt {
		s.expected = corruptOne(s.expected)
	}
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.notef("setup_s is the median of %d set-ups (%s)", len(setups), fmtSeconds(setups))

	if !o.trace {
		st, _ := s.loop(ctx, o.seconds, nil)
		st.endToEnd(r, r.e2e, "")
		s.account(r, st)
		return nil
	}
	// Traced run: the timed loop alternates untraced and traced
	// iterations, then the layer probes run.
	tr := newTracer()
	un, traced := s.loop(ctx, o.seconds, tr)
	s.account(r, un)
	s.account(r, traced)
	um, tm := map[string]metric{}, map[string]metric{}
	un.endToEnd(r, um, "untraced.")
	traced.endToEnd(r, tm, "traced.")
	tracingOverhead(r, um, tm)
	if err := probeLayers(ctx, s, tr, r); err != nil {
		return err
	}
	if err := probeServe(ctx, o, tr, r); err != nil {
		return err
	}
	return finishTrace(tr, r, w.name, o.seed)
}

func (s *sweepRun) account(r *result, st loopStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	if st.firstErr != "" {
		r.notef("first failure: %s", st.firstErr)
	}
}

// countMismatches counts every key of want whose digest in got differs
// as one failed operation.
func countMismatches(r *result, what string, want, got map[string]string) {
	for _, k := range sortedKeys(want) {
		r.attempted++
		if got[k] != want[k] {
			r.failed++
			r.notef("%s mismatch at %s: %s != %s", what, k, got[k], want[k])
		}
	}
}

func corruptOne(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	if keys := sortedKeys(m); len(keys) > 0 {
		out[keys[0]] = "corrupted-" + out[keys[0]]
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// writeDigests merges one workload's reference digests into path.
func writeDigests(path, name string, dig map[string]string) error {
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[name] = dig
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

// tracingOverhead reports the untraced and traced end-to-end figures of
// a traced run side by side, and the overhead tracing added to sweep_s.
func tracingOverhead(r *result, um, tm map[string]metric) {
	for k, v := range um {
		r.extra["untraced."+k] = v
	}
	for k, v := range tm {
		r.extra["traced."+k] = v
	}
	r.layers["trace.overhead_pct"] = metric{100 * (tm["sweep_s"].Value/um["sweep_s"].Value - 1), "%"}
}
