package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/report"
	"github.com/dvm-sim/dvm/internal/runner"
	"github.com/dvm-sim/dvm/internal/serve"
)

// jobArtifacts is what every serve-jobs job asks for: table1, whose
// cells hit the daemon's shared prepared cache once warm, and the
// static table5.
var jobArtifacts = map[string]bool{"table1": true, "table5": true}

const (
	// historyJobs finished job records are in the store before the
	// scheduler starts, so status reads of finished jobs are priced at
	// a known store size.
	historyJobs = 1000
	// jobsPerSecond sets a run's job count: jobsPerSecond × --seconds.
	// The count is fixed rather than the run's length, because every
	// job grows the store and so the price of the next finished read.
	jobsPerSecond = 30
	batchJobs     = 20        // jobs per batch; sweep_s of serve-jobs is a batch
	probeJobs     = batchJobs // traced jobs of the serve probe in the sweep workloads' traced runs
	historyReads  = 20        // timed status reads of finished history jobs per traced run
	pollInterval  = 2 * time.Millisecond
)

// jobSpecs derives the run's job sequence from the seed. The seed
// varies each request body (artifact order, mode spelling) but not the
// work a job asks for, so every job renders the same tables.
func jobSpecs(seed int64, n int) []serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]serve.JobSpec, n)
	for i := range specs {
		arts := []string{"table1", "table5"}
		rng.Shuffle(len(arts), func(a, b int) { arts[a], arts[b] = arts[b], arts[a] })
		specs[i] = serve.JobSpec{Profile: prof.Name, Artifacts: arts, Modes: []string{"", "paper"}[rng.Intn(2)]}
	}
	return specs
}

// daemon is the serve stack (store, scheduler, HTTP API) running
// in-process behind a loopback listener.
type daemon struct {
	dir     string
	sched   *serve.Scheduler
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	history []string // IDs of the history fixture's jobs
}

// startDaemon writes the history fixture through Store.Put and starts
// the scheduler and the API over it.
func startDaemon(dir string, seed int64, jobs int) (*daemon, error) {
	store, err := serve.NewStore(dir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cells := report.CellCount(prof, report.Options{}, jobArtifacts)
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	d := &daemon{dir: dir}
	for i := 0; i < historyJobs; i++ {
		spec := jobSpecs(rng.Int63(), 1)[0]
		spec.Client = fmt.Sprintf("history-%d", rng.Intn(8))
		j := &serve.Job{ID: store.NextID(), Spec: spec, State: serve.StateDone,
			TotalCells: cells, CellsDone: cells, CreatedUnix: epoch + int64(i), FinishedUnix: epoch + int64(i) + 1}
		if err := store.Put(j); err != nil {
			return nil, err
		}
		d.history = append(d.history, j.ID)
	}
	d.sched, err = serve.NewScheduler(store, serve.Config{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	api := serve.NewAPI(d.sched, obs.HTTPOptions{}, obs.NewLogger(io.Discard, "perfbench", true))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.sched.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: api.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: jobs, MaxIdleConnsPerHost: jobs}}
	return d, nil
}

// stop drains the scheduler, shuts the listener down, waits for the
// server goroutine and removes the store.
func (d *daemon) stop() error {
	d.sched.Drain()
	d.sched.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// call makes one HTTP request and returns the status code and body.
func (d *daemon) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) status(ctx context.Context, id string) (serve.Status, error) {
	var st serve.Status
	code, b, err := d.call(ctx, http.MethodGet, "/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /jobs/%s: %d %s", id, code, b)
	}
	return st, json.Unmarshal(b, &st)
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	latency time.Duration // POST until the result is fetched
	submit  time.Duration
	// queue and run run from the POST's return until a status poll
	// first shows the job past queued, and terminal.
	queue, run time.Duration
	result     time.Duration
	statusLive []time.Duration
	err        error
}

func terminal(s serve.State) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCancelled
}

// runJob submits one job, polls it to a terminal state, fetches its
// result and compares it to want.
func (d *daemon) runJob(ctx context.Context, spec serve.JobSpec, want []byte, tr *tracer, op string) jobTiming {
	var jt jobTiming
	root := tr.begin("perfbench.job", op, nil)
	defer root.end()
	t0 := time.Now()
	body, err := json.Marshal(spec)
	if err != nil {
		jt.err = err
		return jt
	}
	sp := tr.begin("serve.submit", op, root)
	code, b, err := d.call(ctx, http.MethodPost, "/jobs", body)
	jt.submit = time.Since(t0)
	sp.end()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs: %d %s", code, b)
	}
	var job serve.Job
	if err == nil {
		err = json.Unmarshal(b, &job)
	}
	if err != nil {
		jt.err = err
		return jt
	}
	posted := time.Now()
	var started, ended time.Time // first observed past queued; terminal
	var st serve.Status
	for {
		sp := tr.begin("serve.status", op, root)
		t := time.Now()
		st, err = d.status(ctx, job.ID)
		dt := time.Since(t)
		sp.end()
		if err != nil {
			jt.err = err
			return jt
		}
		if st.State != serve.StateQueued && started.IsZero() {
			started = time.Now()
		}
		if terminal(st.State) {
			ended = time.Now()
			break
		}
		jt.statusLive = append(jt.statusLive, dt)
		time.Sleep(pollInterval)
	}
	jt.queue, jt.run = started.Sub(posted), ended.Sub(posted)
	if st.State != serve.StateDone {
		jt.err = fmt.Errorf("job %s ended %s: %s", job.ID, st.State, st.Error)
		return jt
	}
	sp = tr.begin("serve.result", op, root)
	t := time.Now()
	code, got, err := d.call(ctx, http.MethodGet, "/jobs/"+job.ID+"/result", nil)
	jt.result = time.Since(t)
	jt.latency = time.Since(t0)
	sp.end()
	switch {
	case err != nil:
		jt.err = err
	case code != http.StatusOK:
		jt.err = fmt.Errorf("GET /jobs/%s/result: %d %s", job.ID, code, got)
	case !bytes.Equal(got, want):
		jt.err = fmt.Errorf("job %s: result.txt differs from the in-process rendering", job.ID)
	}
	return jt
}

// driveStats accumulates closed-loop batches of serve-jobs.
type driveStats struct {
	batchWall, batchCPU []time.Duration
	jobs                []jobTiming
	attempted, failed   int
	firstErr            error
}

// drive runs specs in batches of batchJobs, each through a closed loop
// of clients with their own tenant names: a client submits its next job
// only after the previous one's result is checked, and a batch ends
// when its last job does. With a tracer, batches alternate between
// untraced (even) and traced (odd), so both halves see the same store
// growth and their difference is the tracing overhead.
func (d *daemon) drive(ctx context.Context, specs []serve.JobSpec, clients int, want []byte, tr *tracer) (untraced, traced *driveStats) {
	untraced, traced = &driveStats{}, &driveStats{}
	for b := 0; b*batchJobs < len(specs); b++ {
		st, t := untraced, (*tracer)(nil)
		if tr != nil && b%2 == 1 {
			st, t = traced, tr
		}
		lo := b * batchJobs
		d.batch(ctx, specs[lo:min(lo+batchJobs, len(specs))], lo, clients, want, t, st)
	}
	return untraced, traced
}

// batch runs one batch of jobs, numbered from first, into st.
func (d *daemon) batch(ctx context.Context, specs []serve.JobSpec, first, clients int, want []byte, tr *tracer, st *driveStats) {
	t0, cpu0 := time.Now(), cpuTime()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(specs) {
					return
				}
				spec := specs[n]
				spec.Client = fmt.Sprintf("client-%d", c)
				jt := d.runJob(ctx, spec, want, tr, fmt.Sprintf("job%d", first+n))
				mu.Lock()
				st.attempted++
				if jt.err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = jt.err
					}
				}
				st.jobs = append(st.jobs, jt)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.batchWall = append(st.batchWall, time.Since(t0))
	st.batchCPU = append(st.batchCPU, cpuTime()-cpu0)
}

// endToEnd derives the end-to-end metrics: an iteration (sweep_s,
// sweep_cpu_s) is a batch.
func (st *driveStats) endToEnd(r *result, into map[string]metric, prefix string) {
	var wall time.Duration
	batchS := make([]float64, len(st.batchWall))
	batchCPU := make([]float64, len(st.batchCPU))
	for i := range st.batchWall {
		wall += st.batchWall[i]
		batchS[i] = st.batchWall[i].Seconds()
		batchCPU[i] = st.batchCPU[i].Seconds()
	}
	var lat []float64
	for _, jt := range st.jobs {
		if jt.err == nil {
			lat = append(lat, ms(jt.latency))
		}
	}
	rate := float64(len(st.jobs)) / wall.Seconds()
	p50 := median(lat)
	tv, tl := tail(lat)
	into["sweep_s"] = metric{median(batchS), "s"}
	into["sweep_cpu_s"] = metric{median(batchCPU), "s"}
	into["ops_per_s"] = metric{rate, "1/s"}
	into["op_p50_ms"] = metric{p50, "ms"}
	into["op_tail_ms"] = metric{tv, "ms"}
	r.extra[prefix+"jobs_per_s"] = metric{rate, "1/s"}
	r.extra[prefix+"job_p50_ms"] = metric{p50, "ms"}
	r.extra[prefix+"job_tail_ms"] = metric{tv, "ms"}
	r.notef("%s%d jobs in %d batches of up to %d; job_tail_ms is %s of %d latencies; store history %d jobs",
		prefix, len(st.jobs), len(batchS), batchJobs, tl, len(lat), historyJobs)
}

func (st *driveStats) account(r *result) {
	r.attempted += st.attempted
	r.failed += st.failed
	if st.firstErr != nil {
		r.notef("first failure: %v", st.firstErr)
	}
}

// serveLayers files the client-side per-call serve timings of a traced
// phase, then times status reads of finished history jobs, which the
// daemon serves from the store.
func (d *daemon) serveLayers(ctx context.Context, st *driveStats, tr *tracer, r *result) error {
	var submit, queue, run, live, finished, res []float64
	for _, jt := range st.jobs {
		submit = append(submit, ms(jt.submit))
		queue = append(queue, ms(jt.queue))
		run = append(run, ms(jt.run))
		live = append(live, durationsMS(jt.statusLive)...)
		res = append(res, ms(jt.result))
	}
	for i := 0; i < historyReads; i++ {
		id := d.history[(i*7919)%len(d.history)]
		sp := tr.begin("serve.status", "history/"+id, nil)
		t := time.Now()
		_, err := d.status(ctx, id)
		finished = append(finished, ms(time.Since(t)))
		sp.end()
		if err != nil {
			return err
		}
	}
	r.layers["serve.submit_ms"] = metric{median(submit), "ms"}
	r.layers["serve.queue_ms"] = metric{median(queue), "ms"}
	r.layers["serve.run_ms"] = metric{median(run), "ms"}
	r.layers["serve.status_ms.live"] = metric{median(live), "ms"}
	r.layers["serve.status_ms.finished"] = metric{median(finished), "ms"}
	r.layers["serve.result_ms"] = metric{median(res), "ms"}
	r.extra["serve.history_jobs"] = metric{historyJobs, "count"}
	r.notef("serve.status_ms.finished is the median of %d reads of history jobs; the store held %d history jobs and %d jobs of the run",
		historyReads, historyJobs, len(st.jobs))
	return nil
}

// renderExpected renders the jobs' artifacts in-process, the bytes every
// job's result.txt must equal.
func renderExpected(o opts) ([]byte, error) {
	cache := core.NewPreparedCache()
	defer cache.Close()
	var buf bytes.Buffer
	err := report.Sweep(prof, &buf, report.Options{Jobs: o.jobs, Workers: runner.BudgetFor(o.jobs), Prepared: cache}, jobArtifacts, nil)
	return buf.Bytes(), err
}

// setupServe starts a daemon over a fresh store with the history
// fixture, renders the expected result and runs one warm-up job.
func setupServe(ctx context.Context, o opts, rep int) (*daemon, []byte, time.Duration, error) {
	t0 := time.Now()
	dir, err := runDir(fmt.Sprintf("serve%d", rep))
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := startDaemon(dir, o.seed, o.jobs)
	if err != nil {
		return nil, nil, 0, err
	}
	want, err := renderExpected(o)
	if err == nil {
		warm := jobSpecs(o.seed, 1)[0]
		warm.Client = "warm-up"
		err = d.runJob(ctx, warm, want, nil, "warm-up").err
	}
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, want, time.Since(t0), nil
}

func runServe(ctx context.Context, o opts, r *result) error {
	var d *daemon
	var want []byte
	var setups []float64
	for i := 0; i < o.setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var took time.Duration
		var err error
		if d, want, took, err = setupServe(ctx, o, i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
		runtime.GC() // the repetition's garbage must not set the run's peak RSS
	}
	r.extra["setup.peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	defer d.stop()
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.notef("setup_s is the median of %d set-ups (%s)", len(setups), fmtSeconds(setups))
	if o.corrupt {
		want = append([]byte("corrupted "), want...)
	}
	specs := jobSpecs(o.seed, max(int(jobsPerSecond*o.seconds), 2*o.jobs))

	if !o.trace {
		st, _ := d.drive(ctx, specs, o.jobs, want, nil)
		st.endToEnd(r, r.e2e, "")
		st.account(r)
		return nil
	}
	tr := newTracer()
	un, traced := d.drive(ctx, specs, o.jobs, want, tr)
	un.account(r)
	traced.account(r)
	um, tm := map[string]metric{}, map[string]metric{}
	un.endToEnd(r, um, "untraced.")
	traced.endToEnd(r, tm, "traced.")
	tracingOverhead(r, um, tm)
	if err := d.serveLayers(ctx, traced, tr, r); err != nil {
		return err
	}

	// The layer probes run on the first graph and the first bipartite
	// input of the jobs' table1, at the seed the daemon prepares them with.
	s := newSweepRun(sweepWorkload{name: "serve-probe",
		cells: append(cellsOf(defaultSeed, "PageRank", "FR"), cellsOf(defaultSeed, "CF", "NF")...)}, o)
	if _, _, err := s.setup(ctx, nil); err != nil {
		return err
	}
	if err := probeLayers(ctx, s, tr, r); err != nil {
		return err
	}
	return finishTrace(tr, r, "serve-jobs", o.seed)
}

// probeServe gives the sweep workloads' traced runs the serve layer's
// metrics: a short traced closed loop over the same daemon set-up.
func probeServe(ctx context.Context, o opts, tr *tracer, r *result) error {
	d, want, _, err := setupServe(ctx, o, 0)
	if err != nil {
		return err
	}
	defer d.stop()
	un, st := d.drive(ctx, jobSpecs(o.seed, 2*probeJobs), o.jobs, want, tr)
	for _, e := range []error{un.firstErr, st.firstErr} {
		if e != nil {
			return fmt.Errorf("serve probe: %w", e)
		}
	}
	return d.serveLayers(ctx, st, tr, r)
}
