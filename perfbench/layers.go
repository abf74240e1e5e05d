package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/dvm-sim/dvm/internal/accel"
	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/memsys"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/pagetable"
	"github.com/dvm-sim/dvm/internal/report"
)

// The layer probes of a traced run. Each times calls into one layer of
// the program from this file, on the workload's own cells, and files
// the result under the layer's name. Every probe runs on every
// workload, so every traced run reports every per-layer metric; the
// prediction table in README.md says on which workload each should
// move an end-to-end metric.

// layers lists the program's modules that spans are attributed to, plus
// the benchmark's own loop code.
var layers = []string{"graph", "osmodel", "pagetable", "core", "accel", "mmu", "memsys", "runner", "checkpoint", "report", "serve", "perfbench"}

const (
	buildReps    = 3    // repetitions of the graph/osmodel/pagetable probe
	compareReps  = 2    // alternating repetitions of the share and -j comparisons
	replayBatch  = 4096 // translations or DRAM accesses per timed batch
	ckptRecords  = 40   // checkpoint appends timed per traced run
	renderReps   = 5    // report renderings timed per traced run
	machineBytes = 32 << 30
)

// tableBuilders are the Process.Build*Table builders by metric suffix.
var tableBuilders = []struct {
	name  string
	build func(*osmodel.Process) (*pagetable.Table, error)
}{
	{"canonical", func(p *osmodel.Process) (*pagetable.Table, error) { return p.BuildCanonicalTable(false) }},
	{"pe", func(p *osmodel.Process) (*pagetable.Table, error) { return p.BuildCanonicalTable(true) }},
	{"2m", func(p *osmodel.Process) (*pagetable.Table, error) { return p.BuildHugeTable(addr.PageSize2M) }},
	{"1g", func(p *osmodel.Process) (*pagetable.Table, error) { return p.BuildHugeTable(addr.PageSize1G) }},
}

// probeLayers runs every probe over s's cells. s must have been set up
// (warm workloads hold their prepared cells).
func probeLayers(ctx context.Context, s *sweepRun, tr *tracer, r *result) error {
	prepared, err := probeBuild(s, tr, r)
	if err != nil {
		return fmt.Errorf("build probe: %w", err)
	}
	runs, err := probeAccel(prepared, tr, r)
	if err != nil {
		return fmt.Errorf("accel probe: %w", err)
	}
	translateNS, memNS, err := probeReplay(prepared, tr, r)
	if err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	for _, m := range core.RegisteredModes() {
		a := runs[m]
		perAccess := float64(a.wall.Nanoseconds()) / float64(max(a.accesses, 1))
		r.layers["accel.ns_per_access."+slug(m)] = metric{perAccess, "ns"}
		dramPerAccess := float64(a.dram) / float64(max(a.accesses, 1))
		self := perAccess - translateNS[m] - memNS*dramPerAccess
		r.layers["accel.self_ns_per_access."+slug(m)] = metric{self, "ns"}
	}
	if err := probeShare(ctx, s, prepared, tr, r); err != nil {
		return fmt.Errorf("share probe: %w", err)
	}
	if err := probeRunner(ctx, s, tr, r); err != nil {
		return fmt.Errorf("runner probe: %w", err)
	}
	var payload []core.RunResult
	for _, m := range core.RegisteredModes() {
		payload = append(payload, runs[m].results...)
	}
	if err := probeCheckpoint(payload, tr, r); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	if err := probeReport(s.o, tr, r); err != nil {
		return fmt.Errorf("report probe: %w", err)
	}
	return nil
}

// probeBuild times graph generation, preparation, the OS layout and
// every page-table builder over the workload's cells, buildReps times,
// and returns the last repetition's prepared cells.
func probeBuild(s *sweepRun, tr *tracer, r *result) ([]*core.Prepared, error) {
	type sums struct {
		gen, prep, layout time.Duration
		edges             int
		tables            map[string]time.Duration
		bytes             map[string]uint64
	}
	var reps []sums
	var prepared []*core.Prepared
	for rep := 0; rep < buildReps; rep++ {
		cur := sums{tables: map[string]time.Duration{}, bytes: map[string]uint64{}}
		prepared = prepared[:0]
		generated := map[string]bool{}
		for _, w := range s.w.cells {
			op := fmt.Sprintf("b%d/%s", rep, cellName(w))
			if !generated[w.Dataset.Name] {
				generated[w.Dataset.Name] = true
				sp := tr.begin("graph.GenerateB", op, nil)
				t := time.Now()
				g, err := w.Dataset.GenerateB(w.Scale, w.Seed, s.budget)
				cur.gen += time.Since(t)
				sp.end()
				if err != nil {
					return nil, err
				}
				cur.edges += g.E()
			}
			t := time.Now()
			p, err := s.prepare(w, tr, nil, op)
			cur.prep += time.Since(t)
			if err != nil {
				return nil, err
			}
			prepared = append(prepared, p)

			sp := tr.begin("osmodel.BuildLayout", op, nil)
			t = time.Now()
			sys, err := osmodel.NewSystem(machineBytes)
			if err != nil {
				return nil, err
			}
			proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true})
			_, err = accel.BuildLayout(proc, p.G, p.Prog.PropBytes)
			cur.layout += time.Since(t)
			sp.end()
			if err != nil {
				return nil, err
			}
			for _, b := range tableBuilders {
				sp := tr.begin("pagetable.Build."+b.name, op, nil)
				t := time.Now()
				tbl, err := b.build(proc)
				cur.tables[b.name] += time.Since(t)
				sp.end()
				if err != nil {
					return nil, err
				}
				cur.bytes[b.name] += tbl.SizeStats().Bytes
			}
		}
		reps = append(reps, cur)
	}
	med := func(f func(sums) time.Duration) float64 {
		xs := make([]float64, len(reps))
		for i, s := range reps {
			xs[i] = ms(f(s))
		}
		return median(xs)
	}
	genMS := med(func(s sums) time.Duration { return s.gen })
	r.layers["graph.generate_ms"] = metric{genMS, "ms"}
	r.layers["graph.generate_ns_per_edge"] = metric{genMS * 1e6 / float64(max(reps[0].edges, 1)), "ns"}
	r.layers["core.prepare_ms"] = metric{med(func(s sums) time.Duration { return s.prep }), "ms"}
	r.layers["osmodel.layout_ms"] = metric{med(func(s sums) time.Duration { return s.layout }), "ms"}
	for _, b := range tableBuilders {
		name := b.name
		r.layers["pagetable.build_ms."+name] = metric{med(func(s sums) time.Duration { return s.tables[name] }), "ms"}
		r.layers["pagetable.bytes."+name] = metric{float64(reps[0].bytes[name]), "bytes"}
	}
	return prepared, nil
}

// modeRuns aggregates one mode's sequential runs.
type modeRuns struct {
	wall           time.Duration
	accesses, dram uint64
	results        []core.RunResult
}

// probeAccel runs every registered mode of every cell sequentially
// through Prepared.Run, twice: the first pass builds the tables, the
// second is timed.
func probeAccel(prepared []*core.Prepared, tr *tracer, r *result) (map[core.Mode]*modeRuns, error) {
	cfg := prof.SystemConfig()
	runs := map[core.Mode]*modeRuns{}
	var cellMS []float64
	for pass := 0; pass < 2; pass++ {
		for _, p := range prepared {
			for _, m := range core.RegisteredModes() {
				sp := tr.begin("core.Run", fmt.Sprintf("a%d/%s", pass, modeKey(p.Workload, m)), nil)
				t := time.Now()
				res, err := p.Run(m, cfg)
				d := time.Since(t)
				sp.end()
				if err != nil {
					return nil, err
				}
				if pass == 0 {
					continue
				}
				a := runs[m]
				if a == nil {
					a = &modeRuns{}
					runs[m] = a
				}
				a.wall += d
				a.accesses += res.Stats.Accesses
				a.dram += res.DRAM.Accesses
				a.results = append(a.results, res)
				cellMS = append(cellMS, ms(d))
			}
		}
	}
	r.layers["core.cell_ms.p50"] = metric{median(cellMS), "ms"}
	tv, tl := tail(cellMS)
	r.layers["core.cell_ms.tail"] = metric{tv, "ms"}
	r.notef("core.cell_ms.tail is %s of %d sequential Prepared.Run walls", tl, len(cellMS))
	return runs, nil
}

// probeReplay records each cell's access stream (Engine.RunRecorded on
// a machine assembled from public constructors) and replays it through
// a fresh IOMMU of every registered backend, then replays the stream's
// physical addresses through a memory controller. It returns the
// median ns per translation by mode and per DRAM access.
func probeReplay(prepared []*core.Prepared, tr *tracer, r *result) (map[core.Mode]float64, float64, error) {
	batchNS := map[core.Mode][]float64{}
	walk := map[core.Mode]uint64{}
	translations := map[core.Mode]uint64{}
	lookups := map[core.Mode]float64{}
	misses := map[core.Mode]float64{}
	var memBatchNS []float64
	var streamLen int
	for _, p := range prepared {
		op := cellName(p.Workload)
		sys, err := osmodel.NewSystem(machineBytes)
		if err != nil {
			return nil, 0, err
		}
		proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true})
		lay, err := accel.BuildLayout(proc, p.G, p.Prog.PropBytes)
		if err != nil {
			return nil, 0, err
		}
		recs, err := record(p, lay, tr, op)
		if err != nil {
			return nil, 0, err
		}
		streamLen += len(recs)
		var pas []addr.PA
		for _, m := range core.RegisteredModes() {
			u, err := freshIOMMU(proc, m)
			if err != nil {
				return nil, 0, err
			}
			var plan mmu.Plan
			sp := tr.begin("mmu.TranslateInto", op+"/"+slug(m), nil)
			for i := 0; i < len(recs); i += replayBatch {
				batch := recs[i:min(i+replayBatch, len(recs))]
				t := time.Now()
				for _, rec := range batch {
					u.TranslateInto(rec.VA, rec.Kind, &plan)
				}
				batchNS[m] = append(batchNS[m], float64(time.Since(t).Nanoseconds())/float64(len(batch)))
			}
			sp.end()
			c := u.Counters()
			walk[m] += c.WalkMemRefs
			translations[m] += c.Accesses
			bs := u.Stats()
			lookups[m] += float64(bs.TLBLookups)
			misses[m] += bs.TLBMissRate * float64(bs.TLBLookups)
			if m == core.ModeConv4K {
				// The conventional backend translates every access with
				// the real table: its PAs feed the memory probe.
				pas = physical(u, recs)
			}
		}
		mem, err := memsys.NewController(memsys.Config{})
		if err != nil {
			return nil, 0, err
		}
		sp := tr.begin("memsys.Access", op, nil)
		var now uint64
		for i := 0; i < len(pas); i += replayBatch {
			batch := pas[i:min(i+replayBatch, len(pas))]
			t := time.Now()
			for _, pa := range batch {
				mem.Access(pa, now)
				now++
			}
			memBatchNS = append(memBatchNS, float64(time.Since(t).Nanoseconds())/float64(len(batch)))
		}
		sp.end()
	}
	out := map[core.Mode]float64{}
	for _, m := range core.RegisteredModes() {
		out[m] = median(batchNS[m])
		r.layers["mmu.translate_ns."+slug(m)] = metric{out[m], "ns"}
		r.layers["mmu.walk_memrefs_per_access."+slug(m)] = metric{float64(walk[m]) / float64(max(translations[m], 1)), "ratio"}
		rate := 0.0
		if lookups[m] > 0 {
			rate = misses[m] / lookups[m]
		}
		r.layers["mmu.tlb_miss_rate."+slug(m)] = metric{rate, "fraction"}
	}
	memNS := median(memBatchNS)
	r.layers["memsys.access_ns"] = metric{memNS, "ns"}
	r.notef("replayed %d recorded accesses per backend, in batches of %d", streamLen, replayBatch)
	return out, memNS, nil
}

// record runs the cell once under Ideal with its access stream recorded
// and returns the stream without its phase barriers.
func record(p *core.Prepared, lay accel.Layout, tr *tracer, op string) ([]accel.TraceRecord, error) {
	u, err := mmu.New(mmu.Config{Mode: core.ModeIdeal, TLBEntries: prof.TLBEntries}, nil, nil)
	if err != nil {
		return nil, err
	}
	mem, err := memsys.NewController(memsys.Config{})
	if err != nil {
		return nil, err
	}
	eng, err := accel.NewEngine(accel.Config{}, p.G, p.Prog, lay, u, mem)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := accel.NewTraceWriter(&buf)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("accel.RunRecorded", op, nil)
	_, err = eng.RunRecorded(tw)
	sp.end()
	if err != nil {
		return nil, err
	}
	rd, err := accel.NewTraceReader(&buf)
	if err != nil {
		return nil, err
	}
	var recs []accel.TraceRecord
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		if !rec.IsBarrier() {
			recs = append(recs, rec)
		}
	}
}

// freshIOMMU builds mode's backend over the OS-model state its
// descriptor declares, as core does for a cell.
func freshIOMMU(proc *osmodel.Process, m core.Mode) (*mmu.IOMMU, error) {
	d, ok := mmu.DescriptorOf(m)
	if !ok {
		return nil, fmt.Errorf("unregistered mode %v", m)
	}
	var st mmu.State
	var err error
	switch d.Table {
	case mmu.TableCanonical:
		st.Table, err = proc.BuildCanonicalTable(false)
	case mmu.TablePE:
		st.Table, err = proc.BuildCanonicalTable(true)
	case mmu.TableHuge:
		st.Table, err = proc.BuildHugeTable(d.PageSize)
	}
	if err != nil {
		return nil, err
	}
	if d.NeedsBitmap {
		st.Bitmap = mmu.NewPermBitmap()
		proc.ForEachIdentityPage(st.Bitmap.Set)
	}
	if d.NeedsBlocks {
		st.Blocks = mmu.NewBlockTable()
		proc.ForEachBlock(st.Blocks.Add)
		st.Blocks.Seal()
	}
	return mmu.NewState(mmu.Config{Mode: m, TLBEntries: prof.TLBEntries}, st)
}

// physical translates the stream again (untimed) to collect the PAs of
// the accesses that do not fault.
func physical(u *mmu.IOMMU, recs []accel.TraceRecord) []addr.PA {
	pas := make([]addr.PA, 0, len(recs))
	var plan mmu.Plan
	for _, rec := range recs {
		u.TranslateInto(rec.VA, rec.Kind, &plan)
		if !plan.Fault {
			pas = append(pas, plan.PA)
		}
	}
	return pas
}

// probeShare times RunModesShared over the prepared cells with the
// default share policy and with sharing off, alternating, at -j.
func probeShare(ctx context.Context, s *sweepRun, prepared []*core.Prepared, tr *tracer, r *result) error {
	coll := obs.NewCollector()
	auto, off := s.cfg, s.cfg
	auto.Volatile = coll
	off.ShareTraces = core.ShareOff
	var autoS, offS []float64
	for rep := 0; rep < compareReps; rep++ {
		for _, c := range []struct {
			name string
			cfg  core.SystemConfig
			into *[]float64
		}{{"auto", auto, &autoS}, {"off", off, &offS}} {
			t := time.Now()
			for _, p := range prepared {
				sp := tr.begin("core.RunModesShared", fmt.Sprintf("share-%s%d/%s", c.name, rep, cellName(p.Workload)), nil)
				_, err := p.RunModesShared(ctx, s.modes, c.cfg, s.o.jobs)
				sp.end()
				if err != nil {
					return err
				}
			}
			*c.into = append(*c.into, time.Since(t).Seconds())
		}
	}
	r.layers["accel.share_ratio"] = metric{median(autoS) / median(offS), "ratio"}
	for _, k := range []struct{ metric, hist string }{
		{"shared", "accel.trace.shared"},
		{"regen", "accel.trace.regen"},
		{"detached", "accel.trace.detached"},
		{"spilled", "accel.trace.spilled.chunks"},
	} {
		r.layers["accel.share."+k.metric] = metric{float64(coll.VolatileSnapshot().Hists[k.hist].Sum) / compareReps, "count"}
	}
	return nil
}

// probeRunner times one iteration of the workload at -j 1 and at -j,
// alternating, and reports how much the parallel workers speed it up.
func probeRunner(ctx context.Context, s *sweepRun, tr *tracer, r *result) error {
	seq := *s
	seq.budget = nil
	seq.cfg.Workers = nil
	var oneS, manyS []float64
	for rep := 0; rep < compareReps; rep++ {
		for _, c := range []struct {
			run  *sweepRun
			jobs int
			into *[]float64
		}{{&seq, 1, &oneS}, {s, s.o.jobs, &manyS}} {
			sp := tr.begin("runner.iteration", fmt.Sprintf("j%d-%d", c.jobs, rep), nil)
			t := time.Now()
			outs := c.run.iterate(ctx, c.run.cfg, c.jobs, tr, sp, fmt.Sprintf("j%d-%d", c.jobs, rep))
			*c.into = append(*c.into, time.Since(t).Seconds())
			sp.end()
			for _, out := range outs {
				if out.err != nil {
					return out.err
				}
			}
		}
	}
	r.layers["runner.j_speedup"] = metric{median(oneS) / median(manyS), "ratio"}
	return nil
}

// probeCheckpoint times core.Checkpoint.Record with an fsync per cell
// (the daemon's default cadence) over the probe's cell results, then
// Lookup of every record after a resume.
func probeCheckpoint(payload []core.RunResult, tr *tracer, r *result) error {
	dir, err := runDir("checkpoint")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cells.ckpt")
	ck, err := core.OpenCheckpoint(path, prof.Name, false)
	if err != nil {
		return err
	}
	ck.SetSyncEvery(1)
	var recUS []float64
	for i := 0; i < ckptRecords; i++ {
		v := payload[i%len(payload)]
		v.Wall = 0
		key := fmt.Sprintf("cell/%d", i)
		sp := tr.begin("checkpoint.Record", key, nil)
		t := time.Now()
		err := ck.Record(key, v)
		recUS = append(recUS, us(time.Since(t)))
		sp.end()
		if err != nil {
			ck.Close()
			return err
		}
	}
	if err := ck.Close(); err != nil {
		return err
	}
	ck, err = core.OpenCheckpoint(path, prof.Name, true)
	if err != nil {
		return err
	}
	defer ck.Close()
	sp := tr.begin("checkpoint.Lookup", "all", nil)
	t := time.Now()
	for i := 0; i < ckptRecords; i++ {
		var v core.RunResult
		if ok, err := ck.Lookup(fmt.Sprintf("cell/%d", i), &v); err != nil || !ok {
			sp.end()
			return fmt.Errorf("lookup cell/%d: found %v, %v", i, ok, err)
		}
	}
	lookup := time.Since(t)
	sp.end()
	r.layers["checkpoint.record_us.p50"] = metric{median(recUS), "us"}
	tv, tl := tail(recUS)
	r.layers["checkpoint.record_us.tail"] = metric{tv, "us"}
	r.layers["checkpoint.lookup_us"] = metric{us(lookup) / ckptRecords, "us"}
	r.notef("checkpoint.record_us.tail is %s of %d fsync'd appends", tl, len(recUS))
	return nil
}

// probeReport renders the serve-jobs artifacts with report.Sweep over a
// fully restored checkpoint, so only lookup and rendering run.
func probeReport(o opts, tr *tracer, r *result) error {
	dir, err := runDir("report")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cells.ckpt")
	ck, err := core.OpenCheckpoint(path, prof.Name, false)
	if err != nil {
		return err
	}
	cache := core.NewPreparedCache()
	var want bytes.Buffer
	err = report.Sweep(prof, &want, report.Options{Jobs: o.jobs, Prepared: cache, Checkpoint: ck}, jobArtifacts, nil)
	cache.Close()
	if cerr := ck.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	ck, err = core.OpenCheckpoint(path, prof.Name, true)
	if err != nil {
		return err
	}
	defer ck.Close()
	var renderMS []float64
	for i := 0; i < renderReps; i++ {
		var got bytes.Buffer
		sp := tr.begin("report.Sweep", fmt.Sprintf("render%d", i), nil)
		t := time.Now()
		err := report.Sweep(prof, &got, report.Options{Jobs: o.jobs, Checkpoint: ck}, jobArtifacts, nil)
		renderMS = append(renderMS, ms(time.Since(t)))
		sp.end()
		if err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("restored rendering differs from the computed one")
		}
	}
	r.layers["report.render_ms"] = metric{median(renderMS), "ms"}
	return nil
}

// finishTrace reports self time per layer and writes the spans out.
func finishTrace(tr *tracer, r *result, name string, seed int64) error {
	self := tr.selfTimes()
	for _, l := range layers {
		lt := self[l]
		r.layers[l+".self_ms"] = metric{ms(lt.Self), "ms"}
		r.extra[l+".spans"] = metric{float64(lt.Calls), "count"}
		r.extra[l+".span_total_ms"] = metric{ms(lt.Total), "ms"}
	}
	if err := os.MkdirAll(outDir, 0o777); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return err
	}
	r.notef("spans written to %s", path)
	return nil
}
