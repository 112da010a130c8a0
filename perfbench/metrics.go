package main

import (
	"strings"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/obs"
	"stringloops/internal/service"
)

// endToEnd collects one workload's untraced measurements. An operation is
// one loop handed to the workload's entry point: a pipeline call (table3),
// a loop's three kleebench runs (symex), or an HTTP request (daemon-warm).
//
// The gated metrics are CPU times and allocation: a shared virtual
// machine's hypervisor moved wall-clock times by half from run to run (see
// cpuClock). The wall-clock twins are printed as extra lines.
type endToEnd struct {
	heap                *heapSampler
	setupWall, setupCPU []float64 // s
	passWall, passCPU   []float64 // s
	passAlloc           []float64 // MiB
	ops                 map[*loopCase]*loopOps
	attempted, decided  int
}

// loopOps are one loop's operation times over the passes, in ms.
type loopOps struct {
	wall, cpu []float64
	// summary marks a loop whose operations end with a summary: a found
	// one (table3), one served at the full rung (daemon-warm), or, in
	// symex, every loop — each operation runs its loop's summary.
	summary bool
}

// setup runs one set-up and records its wall and CPU time.
func (e *endToEnd) setup(fn func() error) error {
	t0, c0 := time.Now(), processCPU()
	err := fn()
	e.setupCPU = append(e.setupCPU, secs(processCPU()-c0))
	e.setupWall = append(e.setupWall, secs(time.Since(t0)))
	return err
}

// measure runs pass until the next one would end after the measuring
// window, always at least once, recording each pass's wall time, CPU time
// and allocation.
func (e *endToEnd) measure(seconds float64, pass func()) {
	window := time.Duration(seconds * float64(time.Second))
	var spent time.Duration
	for {
		t0, c0, a0 := time.Now(), processCPU(), allocatedBytes()
		pass()
		d := time.Since(t0)
		e.passCPU = append(e.passCPU, secs(processCPU()-c0))
		e.passAlloc = append(e.passAlloc, float64(allocatedBytes()-a0)/(1<<20))
		e.passWall = append(e.passWall, secs(d))
		spent += d
		if spent+d > window {
			return
		}
	}
}

// op records one operation on loop c.
func (e *endToEnd) op(c *loopCase, wall, cpu time.Duration, summary, decided bool) {
	if e.ops == nil {
		e.ops = map[*loopCase]*loopOps{}
	}
	o := e.ops[c]
	if o == nil {
		o = &loopOps{}
		e.ops[c] = o
	}
	o.wall, o.cpu = append(o.wall, ms(wall)), append(o.cpu, ms(cpu))
	o.summary = o.summary || summary
	e.attempted++
	if decided {
		e.decided++
	}
}

// report adds every end-to-end metric, in BENCHMARK.json order, and the
// wall-clock and memory figures as extra lines. Operation percentiles are
// taken over the loops, each at its median over the passes: pooling every
// pass put the 95th percentile of symex on the slowest four loops or on the
// next five depending on how many passes a run fitted, and it read 200 or
// 300 ms.
func (e *endToEnd) report(rep *report) {
	var wall, cpu, sumWall, sumCPU []float64
	for _, o := range e.ops {
		w, c := median(o.wall), median(o.cpu)
		wall, cpu = append(wall, w), append(cpu, c)
		if o.summary {
			sumWall, sumCPU = append(sumWall, w), append(sumCPU, c)
		}
	}
	var passWall float64
	for _, d := range e.passWall {
		passWall += d
	}
	failed := float64(len(rep.wrong)) / float64(rep.attempted)
	rep.add("setup_s", median(e.setupCPU), "s", len(e.setupCPU))
	rep.add("ok_share", 1-failed, "share", rep.attempted)
	rep.add("decided_share", float64(e.decided)/float64(e.attempted), "share", e.attempted)
	rep.add("alloc_mb", median(e.passAlloc), "MB", len(e.passAlloc))
	rep.add("sweep_cpu_s", median(e.passCPU), "s", len(e.passCPU))
	rep.add("summary_cpu_p50_ms", quantile(sumCPU, 0.50), "ms", len(sumCPU))
	rep.add("req_cpu_p95_ms", quantile(cpu, 0.95), "ms", len(cpu))
	rep.addExtra("failed_share", failed, "share", rep.attempted)
	rep.addExtra("setup_wall_s", median(e.setupWall), "s", len(e.setupWall))
	rep.addExtra("sweep_s", median(e.passWall), "s", len(e.passWall))
	rep.addExtra("req_per_s", float64(e.attempted)/passWall, "1/s", e.attempted)
	rep.addExtra("req_p50_ms", quantile(wall, 0.50), "ms", len(wall))
	rep.addExtra("req_p95_ms", quantile(wall, 0.95), "ms", len(wall))
	rep.addExtra("summary_p50_ms", quantile(sumWall, 0.50), "ms", len(sumWall))
	rep.addExtra("summary_p85_ms", quantile(sumWall, 0.85), "ms", len(sumWall))
	rep.addExtra("peak_rss_mb", peakRSSMB(), "MB", 1)
	rep.addExtra("peak_heap_mb", e.heap.peakMB(), "MB", 1)
}

// layerShares are the layers whose self time the traced runs report, as
// a share of the traced lane time. bench.glue is the benchmark's own code
// between layer calls. A layer a workload never calls reports 0.
var layerShares = []string{
	"cc.parse", "cir.lower", "cir.hash", "memoryless.verify",
	"cegis.paths", "cegis.search_hit", "cegis.search_miss", "vocab.compile",
	"kleebench.vanilla_enum", "kleebench.vanilla_merged", "kleebench.str",
	"service.handler", "service.queue_wait", "service.transport",
	"diskcache.open", "diskcache.flush", "bench.glue",
}

// layerCounts are the count-valued per-layer metrics and their units.
var layerCounts = []struct{ name, unit string }{
	{"memoryless.proven", "count"},
	{"cegis.skeletons", "count"},
	{"cegis.candidates_run", "count"},
	{"cegis.arg_solves", "count"},
	{"cegis.verify_queries", "count"},
	{"cegis.counterexamples", "count"},
	{"cegis.candidate_yield", "ratio"},
	{"cegis.miss_skeletons_per_s", "1/s"},
	{"symex.paths_enum", "count"},
	{"symex.forks", "count"},
	{"symex.merges", "count"},
	{"symex.merge_ites", "count"},
	{"qcache.queries", "count"},
	{"qcache.hit_rate", "ratio"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"bv.nodes", "count"},
	{"bv.simplify_calls", "count"},
	{"bv.simplify_shrink", "ratio"},
	{"bv.vn_hits", "count"},
	{"bv.blast_hits", "count"},
	{"strsolver.outcomes", "count"},
	{"diskcache.hit_rate", "ratio"},
	{"service.rung_full", "count"},
	{"service.rung_memoryless", "count"},
	{"service.shed", "count"},
	{"service.retries", "count"},
	{"service.deadline_422", "count"},
	{"trace.overhead", "ratio"},
	{"trace.accounted", "share"},
}

// traced collects one workload's traced run.
type traced struct {
	lanes  []*lane
	counts map[string]float64
	spend  spend

	// The same pass without and with spans: its wall and CPU times.
	untracedWall, untracedCPU, tracedWall, tracedCPU time.Duration
}

// report adds every per-layer metric, in BENCHMARK.json order, and the
// layers' absolute self times as extra lines.
func (t *traced) report(rep *report) {
	self := map[string]time.Duration{}
	var laneTime time.Duration
	for _, l := range t.lanes {
		laneTime += l.roots
		for name, d := range l.self {
			if strings.HasPrefix(name, "bench.") {
				name = "bench.glue"
			}
			self[name] += d
		}
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(laneTime) }
	for _, name := range layerShares {
		rep.add(name+"_share", share(self[name]), "share", 1)
	}
	counts := t.spend.counts()
	for k, v := range t.counts {
		counts[k] = v
	}
	counts["trace.overhead"] = float64(t.tracedCPU) / float64(t.untracedCPU)
	counts["trace.accounted"] = 1 - share(self["bench.glue"])
	for _, c := range layerCounts {
		rep.add(c.name, counts[c.name], c.unit, 1)
	}
	for _, name := range layerShares {
		if self[name] > 0 {
			rep.addExtra(name+"_s", secs(self[name]), "s", 1)
		}
	}
	rep.addExtra("trace.lane_s", secs(laneTime), "s", len(t.lanes))
	rep.addExtra("trace.untraced_pass_s", secs(t.untracedWall), "s", 1)
	rep.addExtra("trace.traced_pass_s", secs(t.tracedWall), "s", 1)
	rep.addExtra("trace.untraced_pass_cpu_s", secs(t.untracedCPU), "s", 1)
	rep.addExtra("trace.traced_pass_cpu_s", secs(t.tracedCPU), "s", 1)
}

// spend is solver-stack work in the engine.Budget counters' terms.
type spend struct {
	conflicts, propagations, forks, nodes int64
	qhits, qmisses, diskHits, diskMisses  int64
	vnHits, blastHits, simplify, merges   int64
	mergeItes, simplifyIn, simplifyOut    int64
}

func (s *spend) add(o spend) {
	s.conflicts += o.conflicts
	s.propagations += o.propagations
	s.forks += o.forks
	s.nodes += o.nodes
	s.qhits += o.qhits
	s.qmisses += o.qmisses
	s.diskHits += o.diskHits
	s.diskMisses += o.diskMisses
	s.vnHits += o.vnHits
	s.blastHits += o.blastHits
	s.simplify += o.simplify
	s.merges += o.merges
	s.mergeItes += o.mergeItes
	s.simplifyIn += o.simplifyIn
	s.simplifyOut += o.simplifyOut
}

func budgetSpend(b *engine.Budget) spend {
	return spend{
		conflicts: b.Conflicts(), propagations: b.Propagations(), forks: b.Forks(), nodes: b.Nodes(),
		qhits: b.CacheHits(), qmisses: b.CacheMisses(), diskHits: b.DiskHits(), diskMisses: b.DiskMisses(),
		vnHits: b.VNHits(), blastHits: b.BlastHits(), simplify: b.SimplifyCalls(), merges: b.Merges(),
		mergeItes: b.MergeItes(), simplifyIn: b.SimplifyNodesIn(), simplifyOut: b.SimplifyNodesOut(),
	}
}

// metricsSpend reads the same counters from a registry the budgets of a
// run mirrored their charges into (obs.NewContext).
func metricsSpend(m *obs.Metrics) spend {
	c := m.Snapshot().Counters
	return spend{
		conflicts: c[obs.MSatConflicts], propagations: c[obs.MSatPropagations], forks: c[obs.MSymexForks],
		nodes: c[obs.MBVNodes], qhits: c[obs.MQCacheHits], qmisses: c[obs.MQCacheMisses],
		diskHits: c[obs.MDiskHits], diskMisses: c[obs.MDiskMisses], vnHits: c[obs.MBVVNHits],
		blastHits: c[obs.MBVBlastHits], simplify: c[obs.MBVSimplifyCalls], merges: c[obs.MSymexMerges],
		mergeItes: c[obs.MSymexMergeItes], simplifyIn: c[obs.MBVSimplifyNodesIn], simplifyOut: c[obs.MBVSimplifyNodesOut],
	}
}

// totalsSpend reads a daemon response's provenance totals (which carry no
// simplifier node counts).
func totalsSpend(t service.SpendTotals) spend {
	return spend{
		conflicts: t.Conflicts, propagations: t.Propagations, forks: t.Forks, nodes: t.Nodes,
		qhits: t.QCacheHits, qmisses: t.QCacheMisses, diskHits: t.DiskHits, diskMisses: t.DiskMisses,
		vnHits: t.VNHits, blastHits: t.BlastHits, simplify: t.SimplifyCalls, merges: t.Merges,
		mergeItes: t.MergeItes,
	}
}

func (s spend) counts() map[string]float64 {
	return map[string]float64{
		"symex.forks":        float64(s.forks),
		"symex.merges":       float64(s.merges),
		"symex.merge_ites":   float64(s.mergeItes),
		"qcache.queries":     float64(s.qhits + s.qmisses),
		"qcache.hit_rate":    ratio(s.qhits, s.qhits+s.qmisses),
		"sat.conflicts":      float64(s.conflicts),
		"sat.propagations":   float64(s.propagations),
		"bv.nodes":           float64(s.nodes),
		"bv.simplify_calls":  float64(s.simplify),
		"bv.simplify_shrink": ratio(s.simplifyOut, s.simplifyIn),
		"bv.vn_hits":         float64(s.vnHits),
		"bv.blast_hits":      float64(s.blastHits),
		"diskcache.hit_rate": ratio(s.diskHits, s.diskHits+s.diskMisses),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
