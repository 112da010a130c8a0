// Command bench runs the repo's benchmark lanes. Each lane is one row of the
// lanes table: its name, the BENCH file it writes, and a body that measures
// one workload, emits its report and, under -check, holds it to the lane's
// gate (the obs lane gates always). The lane bodies document their workloads.
//
// Usage:
//
//	bench                        # cache lane, writes BENCH_3.json
//	bench -short -check -out ""  # CI smoke: small length, print only
//	bench -lane merge -check     # merging lane, writes BENCH_6.json
//	bench -lane vn -out vn.json  # an explicit -out path is honoured
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/cliflags"
	"stringloops/internal/engine"
	"stringloops/internal/kleebench"
	"stringloops/internal/obs"
	"stringloops/internal/vocab"
)

// lane is one row of the benchmark table.
type lane struct {
	name string
	file string // the BENCH file written when -out is left unset
	// keepN keeps -n under -short. The merge and vn lanes run the merging
	// executor at 2n, and below the n=8 crossover enumeration is too cheap
	// for their comparisons to mean anything.
	keepN bool
	run   func(p params)
}

// lanes is the benchmark table, one row per BENCH file.
var lanes = []lane{
	{name: "cache", file: "BENCH_3.json", run: cacheLane},
	{name: "obs", file: "BENCH_5.json", run: obsLane},
	{name: "merge", file: "BENCH_6.json", keepN: true, run: mergeLane},
	{name: "persist", file: "BENCH_7.json", run: persistLane},
	{name: "vn", file: "BENCH_8.json", keepN: true, run: vnLane},
	{name: "serve", file: "BENCH_9.json", run: serveLane},
	{name: "telemetry", file: "BENCH_10.json", run: telemetryLane},
}

// params is the parsed command line a lane body runs under.
type params struct {
	n, reps, sample int
	short, check    bool
	out, cacheDir   string
	persistChild    bool
}

func main() {
	l, p, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if p.persistChild {
		persistChildRun(p.cacheDir, p.sample)
		return
	}
	l.run(p)
}

// parseArgs resolves the command line to its lane row and parameters: an
// unset -out becomes the row's BENCH file, and -short drops to one rep and,
// unless the row keeps it, n=6.
func parseArgs(args []string) (lane, params, error) {
	names := make([]string, len(lanes))
	for i, l := range lanes {
		names[i] = l.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var p params
	name := fs.String("lane", "cache", "benchmark lane: "+strings.Join(names, ", "))
	fs.BoolVar(&p.short, "short", false, "CI smoke mode: shorter symbolic string, one rep")
	fs.BoolVar(&p.check, "check", false, "exit 1 unless the lane's gate holds")
	fs.StringVar(&p.out, "out", "", "output JSON path (default: the lane's BENCH file; empty = stdout only)")
	fs.IntVar(&p.n, "n", 8, "symbolic string length")
	fs.IntVar(&p.reps, "reps", 3, "repetitions per configuration")
	fs.IntVar(&p.sample, "sample", 0, "persist lane: only the first N corpus loops (0 = all 115)")
	fs.BoolVar(&p.persistChild, "persist-child", false, "internal: run one corpus sweep over -cache-dir and print verdicts (the persist lane's worker phase)")
	cacheDir := cliflags.CacheDir(fs)
	if err := fs.Parse(args); err != nil {
		return lane{}, p, err
	}
	p.cacheDir = *cacheDir
	for _, l := range lanes {
		if l.name != *name {
			continue
		}
		outSet := false
		fs.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if !outSet {
			p.out = l.file
		}
		if p.short {
			p.reps = 1
			if !l.keepN {
				p.n = 6
			}
		}
		return l, p, nil
	}
	return lane{}, p, fmt.Errorf("unknown lane %q (want one of %s)", *name, strings.Join(names, ", "))
}

// emit prints the report and writes it to out (empty = print only).
func emit(rep any, out string) {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	enc = append(enc, '\n')
	fmt.Print(string(enc))
	if out != "" {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fatal("write %s: %v", out, err)
		}
	}
}

// header opens every report.
type header struct {
	Benchmark string `json:"benchmark"`
	Loop      string `json:"loop,omitempty"`
	GoVersion string `json:"go_version"`
}

func newHeader(benchmark, loop string) header {
	return header{Benchmark: benchmark, Loop: loop, GoVersion: runtime.Version()}
}

// figure1Loop is the paper's running example (Figure 1): skip leading
// whitespace.
const figure1Loop = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

const (
	figure1Name = "figure1/skip_whitespace"
	// figure1Summary is the synthesised summary of figure1Loop.
	figure1Summary = "ZFP \t\x00F"
)

// run is one benchmark configuration's aggregated measurement.
type run struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode"`   // "vanilla" or "str"
	QCache        bool    `json:"qcache"` // query-cache chain enabled
	Length        int     `json:"length"` // symbolic string length
	Reps          int     `json:"reps"`
	NsPerOp       int64   `json:"ns_per_op"`
	SolverQueries int64   `json:"solver_queries_per_op"`
	Conflicts     int64   `json:"sat_conflicts_per_op"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Tests         int     `json:"tests"`           // generated test inputs (last rep)
	Paths         int     `json:"paths,omitempty"` // terminal paths (last rep)
	Merge         bool    `json:"merge,omitempty"` // state-merging executor
	VN            bool    `json:"vn"`              // value-numbering rewrite layer
	VNHits        int64   `json:"vn_hits_per_op,omitempty"`
	IteFusions    int64   `json:"ite_fusions_per_op,omitempty"`
}

// measure runs one configuration reps times and averages the reps into a
// row. A "vanilla" row forks through the Figure 1 loop under cfg, re-lowered
// per rep so each rep gets a fresh interner (matching the per-pipeline cache
// scope); a "str" row runs its summary, the Figure 3 comparison point. Paths,
// the vn flag and the rewrite counts are vanilla-only columns.
func measure(name, mode string, n, reps int, cfg kleebench.Config) run {
	vanilla := mode == "vanilla"
	r := run{Name: name, Mode: mode, QCache: cfg.QCache, Length: n, Reps: reps, Merge: cfg.Merge, VN: vanilla && !cfg.NoVN}
	var ns, queries, conflicts, hits, groups, vnhits, fusions int64
	for i := 0; i < reps; i++ {
		var m kleebench.Measurement
		if vanilla {
			m = kleebench.VanillaWith(lower(), n, 10*time.Minute, cfg)
		} else {
			m = kleebench.StrWith(summary(), n, 10*time.Minute, cfg)
		}
		if m.TimedOut || m.Tests == 0 {
			fatal("%s: run failed: %+v", name, m)
		}
		ns += int64(m.Time)
		queries += int64(m.SolverQueries)
		conflicts += m.Conflicts
		hits += m.Cache.Hits()
		groups += m.Cache.Hits() + m.Cache.Misses
		r.Tests = m.Tests
		if vanilla {
			r.Paths = m.Paths
			vnhits += m.VNHits
			fusions += m.IteFusions
		}
	}
	r.NsPerOp = ns / int64(reps)
	r.SolverQueries = queries / int64(reps)
	r.Conflicts = conflicts / int64(reps)
	r.VNHits = vnhits / int64(reps)
	r.IteFusions = fusions / int64(reps)
	if groups > 0 {
		r.CacheHitRate = float64(hits) / float64(groups)
	}
	return r
}

// cacheReport is the BENCH_3.json schema.
type cacheReport struct {
	header
	Runs          []run   `json:"runs"`
	ConflictRatio float64 `json:"conflict_ratio_off_over_on"`
	NsRatio       float64 `json:"ns_ratio_off_over_on"`
}

// cacheLane measures the query-cache chain: the vanilla run with the cache on
// and off, plus the str run. With check, cache-on must win (>=1.5x fewer
// conflicts or >=1.3x lower ns/op) with a non-zero hit rate.
func cacheLane(p params) {
	on := measure("SolverCacheOn", "vanilla", p.n, p.reps, kleebench.Config{QCache: true})
	off := measure("SolverCacheOff", "vanilla", p.n, p.reps, kleebench.Config{QCache: false})
	str := measure("StrCacheOn", "str", p.n, p.reps, kleebench.Config{QCache: true})
	rep := cacheReport{
		header:        newHeader("BenchmarkSolverCache", figure1Name),
		Runs:          []run{on, off, str},
		ConflictRatio: ratio(off.Conflicts, on.Conflicts),
		NsRatio:       ratio(off.NsPerOp, on.NsPerOp),
	}
	emit(rep, p.out)
	if !p.check {
		return
	}
	if on.CacheHitRate <= 0 {
		fatal("check failed: cache hit rate is zero")
	}
	if rep.ConflictRatio < 1.5 && rep.NsRatio < 1.3 {
		fatal("check failed: conflicts off/on = %.2f (< 1.5) and ns off/on = %.2f (< 1.3)",
			rep.ConflictRatio, rep.NsRatio)
	}
	fmt.Printf("check ok: conflicts off/on = %.2f, ns off/on = %.2f, hit rate = %.3f\n",
		rep.ConflictRatio, rep.NsRatio, on.CacheHitRate)
}

// mergeReport is the BENCH_6.json schema: the enumerating executor at the
// baseline length against the merging executor at double the length, both
// through the query-cache chain.
type mergeReport struct {
	header
	Runs []run `json:"runs"`
	// NsRatioEnumOverMerged compares the enumerated baseline-length run to
	// the merged double-length run; >= 1 means merging absorbed a doubling
	// of the symbolic string for free.
	NsRatioEnumOverMerged float64 `json:"ns_ratio_enum_n_over_merged_2n"`
	// PathRatio is enumerated paths over merged paths at the same length n
	// — the state-explosion factor merging removes.
	PathRatio float64 `json:"path_ratio_enum_over_merged_same_n"`
}

// mergeLane measures state merging: enumeration at n vs merging at n and
// 2n. With check, the merged 2n run must stay under the enumerated n wall
// time (the Figure 1 n=8 -> n=16 push).
func mergeLane(p params) {
	n := p.n
	enum := measure("EnumN", "vanilla", n, p.reps, kleebench.Config{QCache: true})
	mergedSame := measure("MergeN", "vanilla", n, p.reps, kleebench.Config{QCache: true, Merge: true})
	merged2x := measure("MergeTwoN", "vanilla", 2*n, p.reps, kleebench.Config{QCache: true, Merge: true})
	rep := mergeReport{
		header:                newHeader("BenchmarkStateMerging", figure1Name),
		Runs:                  []run{enum, mergedSame, merged2x},
		NsRatioEnumOverMerged: ratio(enum.NsPerOp, merged2x.NsPerOp),
		PathRatio:             ratio(int64(enum.Paths), int64(mergedSame.Paths)),
	}
	emit(rep, p.out)
	if !p.check {
		return
	}
	if rep.NsRatioEnumOverMerged < 1 {
		fatal("merge check failed: merged n=%d took %.2fx the enumerated n=%d wall time",
			2*n, 1/rep.NsRatioEnumOverMerged, n)
	}
	if rep.PathRatio < 1 {
		fatal("merge check failed: merged path count exceeds enumerated at n=%d", n)
	}
	fmt.Printf("merge check ok: merged n=%d at %.2fx under enumerated n=%d; same-length path ratio %.1fx\n",
		2*n, rep.NsRatioEnumOverMerged, n, rep.PathRatio)
}

// vnReport is the BENCH_8.json schema: the merged double-length run (the
// BENCH_6 configuration) with the value-numbering rewrite layer off against
// the same run with it on.
type vnReport struct {
	header
	Runs []run `json:"runs"`
	// NsRatioOffOverOn and QueryRatioOffOverOn compare the vn-off run to the
	// vn-on run at merged length 2n; the gate passes when either the wall
	// time drops >= 1.5x or the solver queries drop >= 2x.
	NsRatioOffOverOn    float64 `json:"ns_ratio_off_over_on"`
	QueryRatioOffOverOn float64 `json:"query_ratio_off_over_on"`
}

// vnLane measures the value-numbering and ite-rewrite layer on the merging
// executor at double length — the exact configuration whose merged guards
// and ite-valued cursors the rewrites target. With check, vn-on must either
// cut wall time >= 1.5x or solver queries >= 2x against vn-off, and must
// actually have exercised the memo table (non-zero hits).
func vnLane(p params) {
	n2 := 2 * p.n
	off := measure("MergeTwoNVnOff", "vanilla", n2, p.reps, kleebench.Config{QCache: true, Merge: true, NoVN: true})
	on := measure("MergeTwoNVn", "vanilla", n2, p.reps, kleebench.Config{QCache: true, Merge: true})
	rep := vnReport{
		header:              newHeader("BenchmarkValueNumbering", figure1Name),
		Runs:                []run{off, on},
		NsRatioOffOverOn:    ratio(off.NsPerOp, on.NsPerOp),
		QueryRatioOffOverOn: ratio(off.SolverQueries, on.SolverQueries),
	}
	emit(rep, p.out)
	if !p.check {
		return
	}
	if on.VNHits == 0 {
		fatal("vn check failed: value-numbering memo recorded zero hits")
	}
	if rep.NsRatioOffOverOn < 1.5 && rep.QueryRatioOffOverOn < 2.0 {
		fatal("vn check failed: ns off/on = %.2f (< 1.5) and queries off/on = %.2f (< 2.0) at merged n=%d",
			rep.NsRatioOffOverOn, rep.QueryRatioOffOverOn, n2)
	}
	fmt.Printf("vn check ok: ns off/on = %.2f, queries off/on = %.2f, vn hits %d, ite rewrites %d at merged n=%d\n",
		rep.NsRatioOffOverOn, rep.QueryRatioOffOverOn, on.VNHits, on.IteFusions, n2)
}

// obsReport is the BENCH_5.json schema: the Figure 1 macro runs with
// instrumentation disabled vs enabled, and the gated hot-path micro numbers.
type obsReport struct {
	header
	// Runs holds the macro measurements: obs disabled (budget without
	// handles — the default every caller gets) vs enabled (tracer + metrics
	// threaded via context).
	Runs []run `json:"runs"`
	// NsRatioEnabledOverDisabled is the macro cost of turning tracing on.
	NsRatioEnabledOverDisabled float64 `json:"ns_ratio_enabled_over_disabled"`
	// The micro lane times the batched-flush hot-path pattern (a plain local
	// counter flushed through the budget mirror every batch) against a bare
	// loop; its overhead is the gated number, since macro wall time at this
	// scale is noisier than the 2% bar.
	MicroIters           int     `json:"micro_iters"`
	MicroBatch           int     `json:"micro_batch"`
	MicroBareNs          int64   `json:"micro_bare_ns"`
	MicroDisabledNs      int64   `json:"micro_disabled_ns"`
	MicroEnabledNs       int64   `json:"micro_enabled_ns"`
	DisabledOverheadPct  float64 `json:"disabled_overhead_pct"`
	DisabledOverheadGate float64 `json:"disabled_overhead_gate_pct"`
}

// obsLane measures the observability instrumentation: macro ns/op on the
// Figure 1 vanilla run with obs off vs on, and the micro hot-path gate.
// Exits non-zero when the disabled-mode micro overhead exceeds 2%.
func obsLane(p params) {
	disabled := measure("ObsDisabled", "vanilla", p.n, p.reps, kleebench.Config{QCache: true})
	enabled := measure("ObsEnabled", "vanilla", p.n, p.reps, kleebench.Config{
		QCache: true,
		Ctx:    obs.NewContext(nil, obs.New(), obs.NewMetrics()),
	})

	iters := microIters(p.short)
	// One flush per 256 hot iterations is still far more frequent than the
	// real layers (sat flushes once per SolveAssuming, symex once per
	// scheduled segment — thousands of iterations each).
	const batch = 256
	bareNs := bestOf(3, func() int64 { return hotPathBare(iters, batch) })
	disabledNs := bestOf(3, func() int64 {
		return hotPathBudget(iters, batch, engine.NewBudget(nil, engine.Limits{}))
	})
	enabledNs := bestOf(3, func() int64 {
		b := engine.NewBudget(nil, engine.Limits{}).SetObs(nil, obs.NewMetrics())
		return hotPathBudget(iters, batch, b)
	})

	rep := obsReport{
		header:                     newHeader("BenchmarkObsOverhead", figure1Name),
		Runs:                       []run{disabled, enabled},
		NsRatioEnabledOverDisabled: ratio(enabled.NsPerOp, disabled.NsPerOp),
		MicroIters:                 iters,
		MicroBatch:                 batch,
		MicroBareNs:                bareNs,
		MicroDisabledNs:            disabledNs,
		MicroEnabledNs:             enabledNs,
		DisabledOverheadPct:        100 * (float64(disabledNs)/float64(bareNs) - 1),
		DisabledOverheadGate:       2.0,
	}
	emit(rep, p.out)
	if rep.DisabledOverheadPct > rep.DisabledOverheadGate {
		fatal("obs check failed: disabled-mode hot-path overhead %.2f%% > %.1f%%",
			rep.DisabledOverheadPct, rep.DisabledOverheadGate)
	}
	fmt.Printf("obs check ok: disabled-mode hot-path overhead %.2f%% (gate %.1f%%), enabled/disabled macro ns ratio %.2f\n",
		rep.DisabledOverheadPct, rep.DisabledOverheadGate, rep.NsRatioEnabledOverDisabled)
}

// microIters is the hot-path microbenchmarks' loop length.
func microIters(short bool) int {
	if short {
		return 5_000_000
	}
	return 50_000_000
}

// hotPathBare is the reference: batch-sized segments of data-dependent work
// with a plain local stat counter — the shape of the sat propagate loop and
// the symex instruction loop, which keep stats loop-local and flush only at
// segment boundaries.
func hotPathBare(iters, batch int) int64 {
	var acc int64
	start := time.Now()
	for done := 0; done < iters; done += batch {
		var local int64
		for i := 0; i < batch && done+i < iters; i++ {
			acc += acc>>1 ^ int64(done+i)
			local++
		}
		acc += local
	}
	sink = acc
	return int64(time.Since(start))
}

// hotPathBudget is the identical segmented loop under the instrumentation
// pattern the solver hot paths use: the local counter is flushed through
// the (nil-checked, mirror-charging) budget once per segment, never per
// iteration.
func hotPathBudget(iters, batch int, budget *engine.Budget) int64 {
	var acc int64
	start := time.Now()
	for done := 0; done < iters; done += batch {
		var local int64
		for i := 0; i < batch && done+i < iters; i++ {
			acc += acc>>1 ^ int64(done+i)
			local++
		}
		acc += local
		budget.Add(engine.Propagations, local)
	}
	sink = acc + budget.Propagations()
	return int64(time.Since(start))
}

// sink defeats dead-code elimination of the measurement loops.
var sink int64

// bestOf returns the minimum of n timings — the standard noise filter for
// micro measurements.
func bestOf(n int, f func() int64) int64 {
	best := f()
	for i := 1; i < n; i++ {
		if t := f(); t < best {
			best = t
		}
	}
	return best
}

func lower() *cir.Func {
	file, err := cc.Parse(figure1Loop)
	if err != nil {
		fatal("parse: %v", err)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		fatal("lower: %v", err)
	}
	return f
}

func summary() vocab.Program {
	prog, err := vocab.Decode(figure1Summary)
	if err != nil {
		fatal("decode summary: %v", err)
	}
	return prog
}

func ratio(off, on int64) float64 {
	if on == 0 {
		if off == 0 {
			return 1
		}
		return float64(off) // cache eliminated the denominator entirely
	}
	return float64(off) / float64(on)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
