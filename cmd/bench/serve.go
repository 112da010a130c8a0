package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/leakcheck"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/service"
)

// serveReport is the BENCH_9.json schema: the daemon under sustained
// concurrent load over the corpus — latency percentiles, shed rate, the
// degradation-rung histogram, and the drain-under-load measurement.
type serveReport struct {
	header
	MaxInFlight int `json:"max_inflight"`
	QueueDepth  int `json:"queue_depth"`
	Concurrency int `json:"concurrency"`

	Requests     int64 `json:"requests"`      // load-phase requests fired
	Answered     int64 `json:"answered"`      // responses received (any status)
	Completed    int64 `json:"completed"`     // 200s
	HighWater    int64 `json:"high_water"`    // max concurrent outstanding requests
	RetriesSpent int64 `json:"retries_spent"` // client-side retries during load

	P50Ns int64   `json:"p50_ns"`
	P99Ns int64   `json:"p99_ns"`
	Shed  int64   `json:"shed"` // 429/503 sheds across both phases
	Rate  float64 `json:"shed_rate"`

	RungHistogram      map[string]int64 `json:"rung_histogram"`
	StartRungHistogram map[string]int64 `json:"start_rung_histogram"`
	ReconcileDrift     int64            `json:"reconcile_drift"`

	DrainPhaseRequests int64 `json:"drain_phase_requests"`
	DrainPhaseAnswered int64 `json:"drain_phase_answered"`
	DrainNs            int64 `json:"drain_ns"`
	DrainClean         bool  `json:"drain_clean"`
	GoroutineLeaks     int   `json:"goroutine_leaks"`
}

// daemon is an in-process loopsumd: the service handler serving a loopback
// listener, with an HTTP client pooling up to idleConns connections to it.
type daemon struct {
	srv    *service.Server
	http   *http.Server
	served chan error
	base   string
	hc     *http.Client
}

func startDaemon(cfg service.Config, idleConns int) *daemon {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("daemon listen: %v", err)
	}
	srv := service.New(cfg)
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: idleConns}},
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d
}

// stop shuts the listener down, closes the client's idle connections and
// returns how many goroutines outlive the daemon.
func (d *daemon) stop() (leaks int) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	d.http.Shutdown(ctx)
	cancel()
	<-d.served
	d.hc.CloseIdleConnections()
	tb := &benchTB{}
	leakcheck.CheckWithin(tb, 10*time.Second)
	return tb.leaks
}

// benchTB adapts leakcheck's TB to the harness: failures print and count.
type benchTB struct{ leaks int }

func (b *benchTB) Helper() {}
func (b *benchTB) Errorf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	b.leaks++
}

// serveLane boots the daemon in-process, sustains `concurrency`
// outstanding requests over the corpus, then triggers a drain while a
// second wave of clients is still firing — the SIGTERM-under-full-load
// scenario — and gates: every request answered, drain inside its
// deadline, zero goroutine leaks.
func serveLane(p params) {
	const concurrency = 200
	requests := int64(1500)
	if p.short {
		requests = 600
	}
	// The global caps scale one request's worth of work by the in-flight cap.
	k := int64(runtime.GOMAXPROCS(0))
	cfg := service.Config{
		MaxInFlight:  int(k),
		QueueDepth:   256,
		GlobalLimits: engine.Limits{Conflicts: 5000 * k, Forks: 20000 * k, Nodes: 500000 * k},
		Metrics:      obs.NewMetrics(),
	}
	d := startDaemon(cfg, concurrency)

	// The corpus head, as client requests for the load phase and as raw
	// bodies for the drain wave.
	reqs := make([]service.Request, 12)
	bodies := make([]string, len(reqs))
	for i, l := range loopdb.Corpus()[:len(reqs)] {
		reqs[i] = service.Request{Source: l.Source, Func: l.FuncName}
		b, err := json.Marshal(reqs[i])
		if err != nil {
			fatal("serve lane request encode: %v", err)
		}
		bodies[i] = string(b)
	}

	rep := serveReport{
		header:      newHeader("BenchmarkServeDaemon", ""),
		MaxInFlight: cfg.MaxInFlight,
		QueueDepth:  cfg.QueueDepth,
		Concurrency: concurrency,
	}

	// Load phase: `concurrency` workers keep one request outstanding each,
	// retrying sheds through the service client so every logical request
	// eventually completes.
	var next, outstanding, highWater, answered, completed, retries atomic.Int64
	latencies := make([][]time.Duration, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, int(requests)/concurrency+1)
			cl := &service.Client{
				Base: d.base, HTTP: d.hc, MaxRetries: 8, Seed: uint64(w + 1),
				ClientID: fmt.Sprintf("bench-%d", w%16),
				Sleep: func(ctx context.Context, d time.Duration) error {
					retries.Add(1)
					if d > 10*time.Millisecond {
						d = 10 * time.Millisecond
					}
					time.Sleep(d)
					return nil
				},
			}
			for {
				i := next.Add(1)
				if i > requests {
					latencies[w] = lat
					return
				}
				if o := outstanding.Add(1); o > highWater.Load() {
					highWater.Store(o)
				}
				began := time.Now()
				_, err := cl.Summarize(context.Background(), reqs[int(i)%len(reqs)])
				lat = append(lat, time.Since(began))
				outstanding.Add(-1)
				answered.Add(1)
				if err == nil {
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	rep.Requests = requests
	rep.Answered = answered.Load()
	rep.Completed = completed.Load()
	rep.HighWater = highWater.Load()
	rep.RetriesSpent = retries.Load()

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		rep.P50Ns = int64(all[len(all)/2])
		rep.P99Ns = int64(all[len(all)*99/100])
	}

	// Drain phase: a second wave keeps firing while Drain runs. Every
	// request in flight when the drain begins must be answered — at a
	// lower rung or with a clean retryable 503, never a broken connection.
	stop := make(chan struct{})
	var drainFired, drainAnswered atomic.Int64
	var wave sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wave.Add(1)
		go func(w int) {
			defer wave.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				drainFired.Add(1)
				resp, err := d.hc.Post(d.base+"/summarize", "application/json",
					strings.NewReader(bodies[w%len(bodies)]))
				if err != nil {
					continue // a broken connection stays unanswered
				}
				resp.Body.Close()
				drainAnswered.Add(1)
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	drainDeadline := 60 * time.Second
	dctx, dcancel := context.WithTimeout(context.Background(), drainDeadline)
	drainStart := time.Now()
	drainErr := d.srv.Drain(dctx)
	rep.DrainNs = int64(time.Since(drainStart))
	dcancel()
	close(stop)
	wave.Wait()
	rep.DrainPhaseRequests = drainFired.Load()
	rep.DrainPhaseAnswered = drainAnswered.Load()
	rep.DrainClean = drainErr == nil
	rep.GoroutineLeaks = d.stop()

	snap := cfg.Metrics.Snapshot()
	rep.RungHistogram = map[string]int64{}
	rep.StartRungHistogram = map[string]int64{}
	for name, v := range snap.Counters {
		if r, ok := strings.CutPrefix(name, service.MSvcRungPrefix); ok {
			rep.RungHistogram[r] = v
		}
		if r, ok := strings.CutPrefix(name, service.MSvcStartPrefix); ok {
			rep.StartRungHistogram[r] = v
		}
	}
	rep.Shed = snap.Counters[service.MSvcShedQueueFull] + snap.Counters[service.MSvcShedRateLimit] +
		snap.Counters[service.MSvcShedDraining] + snap.Counters[service.MSvcShedInjected]
	if total := snap.Counters[service.MSvcRequests]; total > 0 {
		rep.Rate = float64(rep.Shed) / float64(total)
	}
	rep.ReconcileDrift = snap.Counters[service.MSvcReconcileDrift]

	emit(rep, p.out)
	if p.check {
		if rep.Answered != rep.Requests {
			fatal("serve check failed: %d of %d load requests answered", rep.Answered, rep.Requests)
		}
		if rep.Completed != rep.Requests {
			fatal("serve check failed: %d of %d load requests completed after retries", rep.Completed, rep.Requests)
		}
		if rep.HighWater < int64(concurrency)*9/10 {
			fatal("serve check failed: high-water concurrency %d never approached %d", rep.HighWater, concurrency)
		}
		if !rep.DrainClean {
			fatal("serve check failed: drain under load: %v", drainErr)
		}
		if rep.DrainNs >= int64(drainDeadline) {
			fatal("serve check failed: drain took %v (deadline %v)", time.Duration(rep.DrainNs), drainDeadline)
		}
		if rep.DrainPhaseAnswered != rep.DrainPhaseRequests {
			fatal("serve check failed: %d of %d drain-phase requests answered (broken connections)",
				rep.DrainPhaseAnswered, rep.DrainPhaseRequests)
		}
		if rep.ReconcileDrift != 0 {
			fatal("serve check failed: %d requests with budget<->metrics drift", rep.ReconcileDrift)
		}
		if rep.GoroutineLeaks != 0 {
			fatal("serve check failed: %d leaked goroutines", rep.GoroutineLeaks)
		}
		fmt.Printf("serve check ok: %d requests, high-water %d, p50 %v, p99 %v, shed rate %.3f, drain %v\n",
			rep.Requests, rep.HighWater, time.Duration(rep.P50Ns), time.Duration(rep.P99Ns),
			rep.Rate, time.Duration(rep.DrainNs))
	}
}
