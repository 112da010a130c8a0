package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stringloops/internal/cir"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/obs"
	"stringloops/internal/service"
	"stringloops/internal/vocab"
)

// defectDeadline is the request deadline of the known-defect probe: a
// daemon without a node envelope gives the full rung the whole deadline,
// so a miss often exhausts it before the lower rungs run and the request
// fails with 422 "resilient ladder cancelled: context deadline exceeded".
const defectDeadline = 300 * time.Millisecond

// daemon is an in-process loopsumd: a service.Server behind an HTTP
// server on a loopback port.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	cpu    *cpuMeter
	base   string
	served chan error
	m      *obs.Metrics
}

// cpuMeter wraps the daemon's handler: each request is served with its
// goroutine locked to a thread, and the thread's CPU time is handed to the
// client that sent the request, keyed by its propagated trace id. The
// pipeline runs on the handler's goroutine, so this is the request's
// server-side work.
type cpuMeter struct {
	next http.Handler
	mu   sync.Mutex
	got  map[string]chan time.Duration
}

func (m *cpuMeter) slot(trace string) chan time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.got[trace]
	if !ok {
		// One value per attempt; the service client makes at most five.
		c = make(chan time.Duration, 8)
		m.got[trace] = c
	}
	return c
}

func (m *cpuMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cpu := onThreadCPU(func() { m.next.ServeHTTP(w, r) })
	if tc, err := obs.ParseTraceParent(r.Header.Get(obs.TraceHeader)); err == nil {
		select {
		case m.slot(tc.TraceIDString()) <- cpu:
		default: // more attempts than slots: the request's total is an undercount
		}
	}
}

// take returns the server CPU time of the request with the given trace id,
// summed over its attempts, waiting for the handler to record it.
func (m *cpuMeter) take(trace string) (time.Duration, error) {
	c := m.slot(trace)
	var total time.Duration
	select {
	case total = <-c:
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("no CPU time recorded for request %s", trace)
	}
	for drained := false; !drained; {
		select {
		case d := <-c:
			total += d
		default:
			drained = true
		}
	}
	m.mu.Lock()
	delete(m.got, trace)
	m.mu.Unlock()
	return total, nil
}

// startDaemon serves cfg on a fresh loopback port. The daemon owns
// cfg.Cache: draining it closes the tier, and so does a failed start.
func startDaemon(cfg service.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cfg.Cache.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	cfg.Metrics = obs.NewMetrics()
	d := &daemon{srv: service.New(cfg), base: "http://" + ln.Addr().String(), served: make(chan error, 1), m: cfg.Metrics}
	d.cpu = &cpuMeter{next: d.srv.Handler(), got: map[string]chan time.Duration{}}
	d.hs = &http.Server{Handler: d.cpu}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, which flushes its cache tier, then shuts the
// HTTP server down and waits for it to exit.
func (d *daemon) stop(ln *lane) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ln.begin("diskcache.flush")
	err := d.srv.Drain(ctx)
	ln.end()
	err = errors.Join(err, d.hs.Shutdown(ctx))
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// daemonConfig is the benchmark's daemon: loopsumd's defaults, two slots,
// and a node envelope (loopsumd -nodes) that carves table3's per-loop
// limit for each slot. A miss stops at the limit, twice (the ladder's
// retry cannot escalate past the carve), and the ladder answers it with the
// memorylessness verdict; no request reaches its deadline.
func daemonConfig(tier *diskcache.Tier) service.Config {
	return service.Config{
		MaxInFlight:  workers,
		Cache:        tier,
		GlobalLimits: engine.Limits{Nodes: loopNodes * workers},
	}
}

func openTier(dir string, ln *lane) (*diskcache.Tier, error) {
	ln.begin("diskcache.open")
	defer ln.end()
	return diskcache.Open(dir, nil)
}

// reqRun is one request and its reply.
type reqRun struct {
	c    *loopCase
	resp *service.Response
	err  error
	// lat is the latency the client saw; cpu the server's CPU time.
	lat, cpu time.Duration
}

// verdict names the reply in the per-loop rows.
func (r reqRun) verdict() string {
	if r.err != nil {
		return "error"
	}
	return r.resp.Rung
}

// decided reports a found summary, or a no-summary the pipeline decided
// rather than one the node budget cut off (read from the provenance).
func (r reqRun) decided() bool {
	if r.err != nil {
		return false
	}
	for _, a := range r.resp.Provenance.Attempts {
		if strings.Contains(a.Err, engine.ErrBudget.Error()) {
			return false
		}
	}
	return true
}

// check compares a reply with the ground truth: a summary at the full
// rung, or the memorylessness verdict after the search ran out.
func (r reqRun) check(k *checker) error {
	if r.err != nil {
		return fmt.Errorf("%s: request failed: %w", r.c.Name, r.err)
	}
	switch r.resp.Rung {
	case "full":
		s := r.resp.Summary
		if err := checkVerdict(r.c, true, s.Memoryless); err != nil {
			return err
		}
		prog, err := vocab.Decode(s.Encoded)
		if err != nil {
			return fmt.Errorf("%s: undecodable summary %q: %w", r.c.Name, s.Encoded, err)
		}
		return k.summary(r.c, prog, s.C)
	case "memoryless":
		return checkVerdict(r.c, false, r.resp.Memoryless.Memoryless)
	}
	return fmt.Errorf("%s: answered at the %s rung", r.c.Name, r.resp.Rung)
}

// requests has client w send order[w], one request at a time. Every
// request asks for provenance, which says why a loop got no summary. Each
// request's span is split by the times the server reports: its queue wait,
// its handler time after the queue, and the rest — the transport.
func requests(d *daemon, order [][]*loopCase, seed int64, lanes []*lane) ([]reqRun, int64) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer hc.CloseIdleConnections()
	var retries atomic.Int64
	out := make([][]reqRun, len(order))
	engine.Map(len(order), len(order), func(w int) {
		ln := laneOf(lanes, w)
		cl := &service.Client{
			Base: d.base, HTTP: hc, Seed: uint64(seed)*workers + uint64(w), ClientID: fmt.Sprintf("perfbench-%d", w),
			Sleep: func(ctx context.Context, dur time.Duration) error {
				retries.Add(1)
				select {
				case <-time.After(dur):
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		}
		ln.begin("bench.client")
		for _, c := range order[w] {
			ln.begin("service.request")
			start := time.Now()
			resp, err := cl.Summarize(context.Background(), service.Request{Source: c.Source, Func: c.FuncName, Explain: true})
			r := reqRun{c: c, resp: resp, err: err, lat: time.Since(start)}
			if resp != nil {
				ln.charge("service.queue_wait", time.Duration(resp.QueueWaitNs))
				ln.charge("service.handler", time.Duration(resp.ElapsedNs-resp.QueueWaitNs))
				r.cpu, r.err = d.cpu.take(resp.Provenance.TraceID)
			}
			ln.endAs("service.transport")
			out[w] = append(out[w], r)
		}
		ln.end()
	})
	var runs []reqRun
	for _, o := range out {
		runs = append(runs, o...)
	}
	return runs, retries.Load()
}

// runDaemon serves the 115 loops from an in-process daemon whose cache
// tier was warmed by one untimed pass, to two closed-loop clients.
func runDaemon(o options) (*report, error) {
	rep := &report{workload: "daemon-warm"}
	e := endToEnd{heap: startHeapSampler()}
	defer e.heap.close()
	rng := rand.New(rand.NewSource(o.seed))
	k := newChecker()
	checkAll := func(runs []reqRun) {
		for _, r := range runs {
			rep.check(r.check(k))
		}
	}
	var tr *obs.Tracer
	var main *lane
	var clients []*lane
	if o.trace {
		tr = obs.New()
		main = newLane(tr.Child(workers))
		clients = tracedLanes(tr, workers)
	}

	// Set-up: lower the corpus, warm a fresh tier through the daemon,
	// restart the daemon on the flushed tier. It runs once: the warm pass
	// is most of it.
	dir := filepath.Join(o.dir, fmt.Sprintf("tier-%d-%d", o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var loops []*loopCase
	var d *daemon
	// Clients get requests dealt by cost: first by the ground truth (a
	// miss costs a whole budget, a found loop next to nothing), and after
	// the warm pass by its latencies — the misses differ in cost six-fold,
	// and a split by count alone left one client seconds behind the other
	// on some seeds.
	var cost map[*loopCase]float64
	err := e.setup(func() (err error) {
		main.begin("bench.setup")
		if loops, err = lowerCorpus(main); err != nil {
			return err
		}
		tier, err := openTier(dir, main)
		if err != nil {
			return err
		}
		if d, err = startDaemon(daemonConfig(tier)); err != nil {
			return err
		}
		main.end()
		warm, _ := requests(d, dealByCost(loops, expectedCost(loops), workers, rng), o.seed, clients)
		checkAll(warm)
		cost = map[*loopCase]float64{}
		for _, r := range warm {
			cost[r.c] = ms(r.lat)
		}
		main.begin("bench.setup")
		defer main.end()
		if err := d.stop(main); err != nil {
			return fmt.Errorf("stopping the warm-up daemon: %w", err)
		}
		if tier, err = openTier(dir, main); err != nil {
			return err
		}
		d, err = startDaemon(daemonConfig(tier))
		return err
	})
	if err != nil {
		return nil, err
	}

	if o.trace {
		order := dealByCost(loops, cost, workers, rng)
		t := &traced{lanes: append(clients, main), counts: map[string]float64{}}
		var runs []reqRun
		var retries int64
		t.untracedWall, t.untracedCPU = timed(func() { runs, _ = requests(d, order, o.seed, nil) })
		checkAll(runs)
		t.tracedWall, t.tracedCPU = timed(func() { runs, retries = requests(d, order, o.seed, clients) })
		checkAll(runs)
		t.counts["service.retries"] = float64(retries)
		for _, r := range runs {
			if r.err != nil {
				continue
			}
			t.counts["service.rung_"+r.resp.Rung]++
			t.spend.add(totalsSpend(r.resp.Provenance.Totals))
			rep.rows = append(rep.rows, r.row(nil))
		}
		snap := d.m.Snapshot().Counters
		t.counts["service.shed"] = float64(snap[service.MSvcShedQueueFull] + snap[service.MSvcShedRateLimit] +
			snap[service.MSvcShedDraining] + snap[service.MSvcShedInjected])
		main.begin("bench.setup")
		err := d.stop(main)
		main.end()
		if err != nil {
			return nil, err
		}
		decompose(loops, runs, main)
		n422, probed, err := defectProbe(dir, loops, o.seed, rng)
		if err != nil {
			return nil, err
		}
		t.counts["service.deadline_422"] = float64(n422)
		t.report(rep)
		path, err := validateTrace(o, rep.workload, tr.WriteChromeTrace)
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes,
			"counts cover the traced pass; solver counts come from the replies' provenance",
			fmt.Sprintf("known defect: %d of %d miss requests failed 422 under a %v deadline without a node envelope",
				n422, probed, defectDeadline),
			"chrome trace "+path)
		return rep, nil
	}

	var all []reqRun
	e.measure(o.seconds, func() {
		runs, _ := requests(d, dealByCost(loops, cost, workers, rng), o.seed, nil)
		all = append(all, runs...)
	})
	if err := d.stop(nil); err != nil {
		return nil, err
	}
	checkAll(all)
	times := map[*loopCase][]reqRun{}
	for _, r := range all {
		e.op(r.c, r.lat, r.cpu, r.err == nil && r.resp.Rung == "full", r.decided())
		times[r.c] = append(times[r.c], r)
	}
	for _, r := range all[:len(loops)] {
		rep.rows = append(rep.rows, r.row(times[r.c]))
	}
	e.report(rep)
	return rep, nil
}

// decompose times, for each loop the daemon summarised, the per-hit work
// a memo hit still costs the server: parse, lower, canonical hash, and
// the C emit of the returned summary.
func decompose(loops []*loopCase, runs []reqRun, ln *lane) {
	progs := map[string]vocab.Program{}
	for _, r := range runs {
		if r.err == nil && r.resp.Summary != nil {
			if p, err := vocab.Decode(r.resp.Summary.Encoded); err == nil {
				progs[r.c.Name] = p
			}
		}
	}
	ln.begin("bench.decompose")
	for _, c := range loops {
		f, err := lowerLoop(c.Loop, ln)
		if err != nil {
			continue
		}
		ln.begin("cir.hash")
		cir.CanonicalHash(f)
		ln.end()
		if p, ok := progs[c.Name]; ok {
			ln.begin("vocab.compile")
			vocab.CompileToC(p, c.FuncName+"_summary")
			ln.end()
		}
	}
	ln.end()
}

// defectProbe sends the expected misses to a daemon without a node
// envelope whose deadline is defectDeadline, on the warm tier, and counts
// the 422 replies. It is the known-defect baseline; its requests are not
// part of the workload's operations.
func defectProbe(dir string, loops []*loopCase, seed int64, rng *rand.Rand) (n422, probed int, err error) {
	tier, err := diskcache.Open(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	d, err := startDaemon(service.Config{MaxInFlight: workers, Cache: tier, RequestTimeout: defectDeadline})
	if err != nil {
		return 0, 0, err
	}
	_, misses := byExpectation(loops)
	runs, _ := requests(d, dealByCost(misses, expectedCost(misses), workers, rng), seed, nil)
	if err := d.stop(nil); err != nil {
		return 0, 0, err
	}
	for _, r := range runs {
		var se *service.StatusError
		if errors.As(r.err, &se) && se.Code == http.StatusUnprocessableEntity {
			n422++
		}
	}
	return n422, len(runs), nil
}

// expectedCost ranks the expected misses above the loops with a summary.
func expectedCost(loops []*loopCase) map[*loopCase]float64 {
	cost := map[*loopCase]float64{}
	for _, c := range loops {
		if !c.ExpectSynth {
			cost[c] = 1
		}
	}
	return cost
}

// row is the loop's output line (see synthRun.row).
func (r reqRun) row(all []reqRun) row {
	out := row{Loop: r.c.Name, Program: r.c.Program, Verdict: r.verdict()}
	if all == nil {
		all = []reqRun{r}
	}
	var wall, cpu []float64
	for _, a := range all {
		wall, cpu = append(wall, ms(a.lat)), append(cpu, ms(a.cpu))
	}
	out.MS, out.CPUMS = median(wall), median(cpu)
	if r.err == nil && r.resp.Summary != nil {
		out.Summary = r.resp.Summary.Readable
	}
	return out
}
