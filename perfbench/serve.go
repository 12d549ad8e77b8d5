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
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alice"
	"alice/internal/jobq"
	"alice/serve"
)

// Request classes of the serve workload.
const (
	classHit  = "hit"  // an exact repeat: answered from the memo store
	classWarm = "warm" // a new memo key over an already characterized design
	classCold = "cold" // a design and flow seed the daemon has not seen
)

// serveClients is the closed-loop client count (the machine has two
// cores).
const serveClients = 2

// serveDesigns are the small paper designs the serve workload draws
// from; client c owns the designs at positions c, c+serveClients, ...
// so no memo key or characterization is shared between clients and
// each client's hit/miss sequence is fixed by the seed.
var serveDesigns = []string{"gcd", "usb_phy", "sasc", "fir", "sha256", "iir"}

// hitsPerKey is how often each miss key is repeated; with two cold and
// two warm keys per design it gives the 8:1:1 hit:warm:cold mix.
const hitsPerKey = 4

// serveReq is one generated job request.
type serveReq struct {
	client     int
	class      string
	bench      string
	cfg        int
	structural bool
	flowSeed   int64
	scale      int // alpha = beta = scale; powers of two keep the ranking exact
}

// key identifies the request's memoization record.
func (r serveReq) key() string {
	return fmt.Sprintf("%s/cfg%d/s%t/seed%d/x%d", r.bench, r.cfg, r.structural, r.flowSeed, r.scale)
}

// job renders the request body. The configuration is always explicit
// YAML: the paper's cfg pin and instance budgets, the seed's flow seed
// (a new one means new characterizations) and the selection weights.
func (r serveReq) job() serve.JobRequest {
	pins, inst := 64, 2
	if r.cfg == 2 {
		pins, inst = 96, 1
	}
	return serve.JobRequest{
		Name:  r.key(),
		Bench: r.bench,
		ConfigYAML: fmt.Sprintf("efpga:\n  max_io_pins: %d\n  max_instances: %d\nscore:\n  alpha: %d\n  beta: %d\nflow:\n  seed: %d\n",
			pins, inst, r.scale, r.scale, r.flowSeed),
		Structural: r.structural,
	}
}

// genRequests draws each client's request sequence from the seed. Per
// owned design a client sends two cold misses (cfg1 and cfg2, each with
// a fresh flow seed), one warm miss per cold key (the same design, cfg
// and flow seed with the selection weights doubled), and hitsPerKey
// repeats of each of those four keys. The order is random, except that
// a warm miss follows its cold key and a hit follows the miss it
// repeats. Every seed gives the same multiset of work.
func genRequests(seed int64) [][]serveReq {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{1: true}
	freshSeed := func() int64 {
		for {
			s := 2 + rng.Int63n(1<<30)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	out := make([][]serveReq, serveClients)
	for c := range out {
		type item struct {
			req serveReq
			dep int // index of the request that must come first, -1 for none
		}
		var items []item
		for i := c; i < len(serveDesigns); i += serveClients {
			for _, cfg := range []int{1, 2} {
				cold := serveReq{client: c, class: classCold, bench: serveDesigns[i], cfg: cfg,
					structural: rng.Intn(2) == 1, flowSeed: freshSeed(), scale: 1}
				items = append(items, item{cold, -1})
				coldIdx := len(items) - 1
				warm := cold
				warm.class, warm.scale = classWarm, 2
				items = append(items, item{warm, coldIdx})
				warmIdx := len(items) - 1
				for _, dep := range []int{coldIdx, warmIdx} {
					hit := items[dep].req
					hit.class = classHit
					for h := 0; h < hitsPerKey; h++ {
						items = append(items, item{hit, dep})
					}
				}
			}
		}
		emitted := make([]bool, len(items))
		for len(out[c]) < len(items) {
			var eligible []int
			for i, it := range items {
				if !emitted[i] && (it.dep < 0 || emitted[it.dep]) {
					eligible = append(eligible, i)
				}
			}
			pick := eligible[rng.Intn(len(eligible))]
			emitted[pick] = true
			out[c] = append(out[c], items[pick].req)
		}
	}
	return out
}

// stageEvent is a flow stage end observed inside the daemon.
type stageEvent struct {
	design string
	stage  string
	start  time.Time
	end    time.Time
}

// serveWorkload is the operator's daemon: serve.New in-process behind a
// loopback listener, and two closed-loop clients that each submit a job
// and long-poll it to a terminal state.
// Every pass starts a fresh daemon on an empty store, so every pass
// does the same work.
type serveWorkload struct {
	seed int64
	exp  *expectations
	reqs [][]serveReq
	tops map[string]string // bench -> top module (the observer's design name)

	passes  int
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	tracing atomic.Bool
	evMu    sync.Mutex
	events  []stageEvent
}

func newServeWorkload(seed int64, exp *expectations) (*serveWorkload, error) {
	w := &serveWorkload{seed: seed, exp: exp, reqs: genRequests(seed), tops: make(map[string]string)}
	for _, name := range serveDesigns {
		b, ok := alice.BenchmarkByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		ch, err := alice.Characterize(b.Source())
		if err != nil {
			return nil, err
		}
		w.tops[name] = ch.Design
	}
	return w, nil
}

func (w *serveWorkload) setupEachPass() bool { return true }

// setup starts a daemon on an empty data directory and waits until it
// answers its health check.
func (w *serveWorkload) setup() error {
	w.passes++
	w.dir = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("serve-%d-%d", os.Getpid(), w.passes))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	observer := alice.WithObserver(func(ev alice.Event) {
		if ev.Kind != alice.EventStageEnd || !w.tracing.Load() {
			return
		}
		end := time.Now()
		w.evMu.Lock()
		w.events = append(w.events, stageEvent{ev.Design, string(ev.Stage), end.Add(-ev.Duration), end})
		w.evMu.Unlock()
	})
	// The store writes every record but skips the per-commit fsync: on
	// a shared virtual disk fsync latency swings by an order of
	// magnitude from minute to minute, which made whole passes vary by
	// +-20% and buried every other layer in disk noise.
	srv, err := serve.New(serve.Options{DataDir: w.dir, EngineOptions: []alice.Option{observer}, NoSync: true})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
	}
	resp, err := w.client.Get(w.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon health check: HTTP %d", resp.StatusCode)
	}
	return nil
}

// teardown stops the listener and the daemon and deletes its store.
func (w *serveWorkload) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping listener:", err)
	}
	<-w.served
	w.client.CloseIdleConnections()
	if err := w.srv.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping daemon:", err)
	}
	if err := os.RemoveAll(w.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing store:", err)
	}
	w.srv = nil
}

// jobOutcome is one finished job as its client saw it.
type jobOutcome struct {
	req    serveReq
	start  time.Time
	end    time.Time
	status serve.JobStatus
	err    error
}

func (w *serveWorkload) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	w.tracing.Store(tr != nil)
	defer w.tracing.Store(false)
	w.evMu.Lock()
	w.events = nil
	w.evMu.Unlock()
	pr := &passResult{
		start:    time.Now(),
		counters: make(map[string]float64),
		layer:    make(map[string]float64),
	}
	results := make([][]jobOutcome, serveClients)
	var wg sync.WaitGroup
	for c := range w.reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range w.reqs[c] {
				results[c] = append(results[c], w.runJob(ctx, r))
			}
		}(c)
	}
	wg.Wait()
	pr.wall = time.Since(pr.start).Seconds()

	var waits, runHit, runMiss, httpMs []float64
	for c := range results {
		for _, o := range results[c] {
			opID := len(pr.ops) + 1
			set := set2
			if o.req.class == classHit {
				set = set1
			}
			err := o.err
			if err == nil {
				err = w.check(o)
			}
			pr.ops = append(pr.ops, opSample{name: o.req.class + " " + o.req.key(), set: set,
				seconds: o.end.Sub(o.start).Seconds(), err: err})
			st := o.status
			if st.StartedAt.IsZero() || st.FinishedAt.IsZero() {
				continue
			}
			waits = append(waits, ms(st.StartedAt.Sub(st.SubmittedAt)))
			run := ms(st.FinishedAt.Sub(st.StartedAt))
			if set == set1 {
				runHit = append(runHit, run)
			} else {
				runMiss = append(runMiss, run)
			}
			httpMs = append(httpMs, ms(o.end.Sub(o.start)-st.FinishedAt.Sub(st.SubmittedAt)))
			w.traceJob(tr, opID, o)
		}
	}
	if err := w.addStats(pr); err != nil {
		return nil, err
	}
	pr.layer["jobq.wait_p50_ms"] = median(waits)
	if p90, _, err := percentile(waits, 0.9); err == nil {
		pr.layer["jobq.wait_p90_ms"] = p90
	}
	pr.layer["serve.run_hit_ms"] = median(runHit)
	pr.layer["serve.run_miss_ms"] = median(runMiss)
	pr.layer["serve.http_ms"] = median(httpMs)
	return pr, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// runJob submits one request and long-polls it to a terminal state.
func (w *serveWorkload) runJob(ctx context.Context, r serveReq) jobOutcome {
	o := jobOutcome{req: r, start: time.Now()}
	o.err = w.submitAndWait(ctx, r, &o.status)
	o.end = time.Now()
	return o
}

func (w *serveWorkload) submitAndWait(ctx context.Context, r serveReq, st *serve.JobStatus) error {
	body, err := json.Marshal(r.job())
	if err != nil {
		return err
	}
	if err := w.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusCreated, st); err != nil {
		return err
	}
	for !st.State.Terminal() {
		if err := w.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"?wait=30s", nil, http.StatusOK, st); err != nil {
			return err
		}
	}
	return nil
}

// call makes one API request and decodes the JSON response into out.
func (w *serveWorkload) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// check is the correctness gate on one job: it must succeed, be served
// from the memo store exactly when it repeats an earlier request, and
// report the Table-2 fields of the flow workload's run of the same
// design and cfg (a new flow seed or doubled weights change neither).
func (w *serveWorkload) check(o jobOutcome) error {
	st := o.status
	if st.State != jobq.StateSucceeded || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if want := o.req.class == classHit; st.Result.Cached != want {
		return fmt.Errorf("cached = %t, want %t", st.Result.Cached, want)
	}
	var rep struct {
		table2
		Solution *struct {
			Fabrics []struct {
				Arch string `json:"arch"`
			} `json:"fabrics"`
		} `json:"solution"`
	}
	if err := json.Unmarshal(st.Result.Report, &rep); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	got := rep.table2
	var archs []string
	if rep.Solution != nil {
		for _, f := range rep.Solution.Fabrics {
			archs = append(archs, f.Arch)
		}
	}
	got.Fabrics = strings.Join(archs, ", ")
	if err := w.exp.checkTable2(fmt.Sprintf("%s/cfg%d", o.req.bench, o.req.cfg), got); err != nil {
		return err
	}
	if o.req.structural && len(st.Result.Structural) != len(archs) {
		return fmt.Errorf("%d structural verdicts for %d fabrics", len(st.Result.Structural), len(archs))
	}
	return nil
}

// traceJob records a finished job's spans: the client's round trip,
// the queue wait and handler run from the job's own timestamps, and
// the flow stages the daemon's engine reported for this job (each
// client owns its designs and has one job in flight, so a stage event
// of the job's design inside its run belongs to it).
func (w *serveWorkload) traceJob(tr *tracer, opID int, o jobOutcome) {
	if tr == nil {
		return
	}
	st := o.status
	root := tr.add("serve.http", 0, opID, o.start, o.end)
	tr.add("jobq.wait", root, opID, st.SubmittedAt, st.StartedAt)
	run := tr.add("serve.run", root, opID, st.StartedAt, st.FinishedAt)
	top := w.tops[o.req.bench]
	w.evMu.Lock()
	defer w.evMu.Unlock()
	for _, ev := range w.events {
		if ev.design == top && !ev.end.Before(st.StartedAt) && !ev.end.After(st.FinishedAt) {
			tr.add("core."+ev.stage, run, opID, ev.start, ev.end)
		}
	}
}

// addStats reads the daemon's /v1/stats into the pass's counters and
// per-layer metrics.
func (w *serveWorkload) addStats(pr *passResult) error {
	var s serve.StatsResponse
	if err := w.call(context.Background(), http.MethodGet, "/v1/stats", nil, http.StatusOK, &s); err != nil {
		return err
	}
	pr.counters["serve.memo_hits"] = float64(s.MemoHits)
	pr.counters["serve.flow_runs"] = float64(s.FlowRuns)
	pr.counters["store.puts"] = float64(s.Store.Puts)
	pr.counters["cache.mem_hits"] = float64(s.Cache.MemHits)
	pr.counters["cache.mem_misses"] = float64(s.Cache.MemMisses)
	pr.counters["jobq.succeeded"] = float64(s.JobTotals.Succeeded)
	pr.layer["jobq.retries"] = float64(s.JobTotals.Retries)
	pr.layer["store.puts"] = float64(s.Store.Puts)
	pr.layer["store.log_bytes"] = float64(s.Store.LogBytes)
	pr.layer["store.rollbacks"] = float64(s.Store.Rollbacks)
	pr.layer["serve.flow_runs"] = float64(s.FlowRuns)
	pr.layer["serve.rejected"] = float64(s.Rejected)
	pr.layer["cache.mem_hits"] = float64(s.Cache.MemHits)
	pr.layer["cache.disk_hits"] = float64(s.Cache.DiskHits)
	if n := s.MemoHits + s.FlowRuns; n > 0 {
		pr.layer["serve.memo_hit_ratio"] = float64(s.MemoHits) / float64(n)
	}
	if n := s.Cache.MemHits + s.Cache.MemMisses; n > 0 {
		pr.layer["cache.hit_ratio"] = float64(int64(s.Cache.MemHits)+s.Cache.DiskHits) / float64(n)
	}
	return nil
}

// named prints the serve metrics under their own names, each latency
// with its sample count.
func (w *serveWorkload) named(passes []*passResult) {
	var hits, misses []float64
	jobs, secs := 0, 0.0
	for _, p := range passes {
		secs += p.wall
		for _, op := range p.ops {
			jobs++
			if op.set == set1 {
				hits = append(hits, op.seconds*1e3)
			} else {
				misses = append(misses, op.seconds*1e3)
			}
		}
	}
	fmt.Printf("serve.jobs_per_s %.2f (%d jobs in %.3fs, %d passes)\n", float64(jobs)/secs, jobs, secs, len(passes))
	report := func(name string, xs []float64, p float64) {
		v, n, err := percentile(xs, p)
		if err != nil {
			fmt.Printf("%s n/a: %v\n", name, err)
			return
		}
		fmt.Printf("%s %.3f (n=%d)\n", name, v, n)
	}
	report("serve.hit_p50_ms", hits, 0.5)
	report("serve.hit_p90_ms", hits, 0.9)
	report("serve.miss_p50_ms", misses, 0.5)
}
