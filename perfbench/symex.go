package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/engine"
	"stringloops/internal/kleebench"
	"stringloops/internal/obs"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Symbolic string lengths of the symex workload. Enumerated vanilla
// (the paper's vanilla.KLEE) forks per character, so it runs short; at
// length 8 it takes seconds per loop and hits the cap on some. Merged
// vanilla and str.KLEE grow polynomially and run long.
const (
	symexEnumLen = 6
	symexLongLen = 16
	// symexCap bounds each kleebench call. The slowest loop takes half a
	// second on an idle core, so the cap only stops a run gone wrong; a
	// capped call fails the run.
	symexCap = 30 * time.Second
	// symexWorkers is one: a loop's symbolic execution times depend on
	// which loop a second worker runs beside it, which made the per-loop
	// percentiles vary from seed to seed.
	symexWorkers = 1
)

// symexRun is one summarised loop through the three kleebench modes.
type symexRun struct {
	c                 *loopCase
	enum, merged, str kleebench.Measurement
	// dur and cpu are the wall and the thread CPU time of the loop.
	dur, cpu time.Duration
	layers   map[string]float64
}

// symexLoop runs the loop enumerated and merged, and its ground-truth
// summary through str.KLEE. ctx carries the metrics registry the runs'
// budgets charge (obs.NewContext), or nothing.
func symexLoop(ctx context.Context, c *loopCase, ln *lane) symexRun {
	start := time.Now()
	ln.begin("bench.loop")
	ln.beginRow()
	r := symexRun{c: c}
	ln.begin("kleebench.vanilla_enum")
	r.enum = kleebench.VanillaWith(c.f, symexEnumLen, symexCap, kleebench.Config{QCache: true, Ctx: ctx})
	ln.end()
	ln.begin("kleebench.vanilla_merged")
	r.merged = kleebench.VanillaWith(c.f, symexLongLen, symexCap, kleebench.Config{QCache: true, Merge: true, Ctx: ctx})
	ln.end()
	ln.begin("kleebench.str")
	r.str = kleebench.StrWith(c.want, symexLongLen, symexCap, kleebench.Config{QCache: true, Ctx: ctx})
	ln.end()
	ln.end()
	r.layers = ln.endRow()
	r.dur = time.Since(start)
	return r
}

// replayed holds how many tests each mode produced for one loop when its
// tests were replayed; every later kleebench run must produce as many.
type replayed struct{ enum, merged, str int }

// checkRun compares one pass's measurements with the replayed counts.
func (want replayed) checkRun(r symexRun) error {
	for _, m := range []struct {
		name string
		got  kleebench.Measurement
		want int
	}{{"enumerated", r.enum, want.enum}, {"merged", r.merged, want.merged}, {"str", r.str, want.str}} {
		if m.got.TimedOut {
			return fmt.Errorf("%s: %s run hit the %v cap", r.c.Name, m.name, symexCap)
		}
		if m.got.Tests != m.want {
			return fmt.Errorf("%s: %s run produced %d tests, replay produced %d", r.c.Name, m.name, m.got.Tests, m.want)
		}
	}
	return nil
}

// replayTests regenerates each mode's tests the way kleebench does — one
// solver model per feasible path or summary outcome — and replays every
// test on Loop.Ref and on the loop's IR under cir.Exec: both must return
// what the path or outcome claims.
func replayTests(c *loopCase) (replayed, error) {
	var out replayed
	var err error
	if out.enum, err = replayVanilla(c, symexEnumLen, false); err != nil {
		return out, err
	}
	if out.merged, err = replayVanilla(c, symexLongLen, true); err != nil {
		return out, err
	}
	out.str, err = replayStr(c, symexLongLen)
	return out, err
}

func replayVanilla(c *loopCase, n int, merge bool) (int, error) {
	bvin := bv.NewInterner()
	cache := qcache.New(bvin)
	buf := symex.SymbolicString(bvin, "s", n)
	eng := &symex.Engine{Objects: [][]*bv.Term{buf}, CheckFeasibility: true, Merge: merge, In: bvin, Cache: cache}
	paths, err := eng.Run(c.f, []symex.Value{symex.PtrValue(0, bvin.Int32(0))}, bv.True)
	if err != nil {
		return 0, fmt.Errorf("%s: replay symex (merge=%v): %w", c.Name, merge, err)
	}
	tests := 0
	for _, p := range paths {
		st, model := cache.CheckSat(nil, 0, p.Cond)
		if st != sat.Sat {
			continue
		}
		tests++
		ev := bv.NewEvaluator(model)
		in := make([]byte, len(buf))
		for i, t := range buf {
			in[i] = byte(ev.Term(t))
		}
		want := vocab.InvalidResult()
		switch {
		case p.Err != nil:
		case p.Ret.IsNull():
			want = vocab.NullResult()
		case p.Ret.IsPtr && p.Ret.Obj == 0:
			want = vocab.PtrResult(int(int32(ev.Term(p.Ret.Off))))
		}
		if err := replayOne(c, in, want); err != nil {
			return 0, fmt.Errorf("vanilla (merge=%v) %w", merge, err)
		}
	}
	return tests, nil
}

func replayStr(c *loopCase, n int) (int, error) {
	bvin := bv.NewInterner()
	cache := qcache.New(bvin)
	s := strsolver.New(bvin, "s", n)
	tests := 0
	for _, o := range vocab.RunSymbolic(vocab.Symbolize(bvin, c.want), s) {
		st, model := cache.CheckSat(nil, 0, o.Guard)
		if st != sat.Sat {
			continue
		}
		tests++
		if err := replayOne(c, s.Concretize(model), o.Res); err != nil {
			return 0, fmt.Errorf("str %w", err)
		}
	}
	return tests, nil
}

func replayOne(c *loopCase, in []byte, want vocab.Result) error {
	if got := c.Ref(in); got != want {
		return fmt.Errorf("test %q: Loop.Ref = %+v, symbolic run claims %+v", c.Name+" "+string(in), got, want)
	}
	if got := execFunc(c.f, in); got != want {
		return fmt.Errorf("test %q: cir.Exec = %+v, symbolic run claims %+v", c.Name+" "+string(in), got, want)
	}
	return nil
}

// runSymex runs the 77 summarised loops through kleebench in a seeded
// order. Before the measured passes, every
// loop's tests are regenerated and replayed once (untimed).
func runSymex(o options) (*report, error) {
	rep := &report{workload: "symex"}
	e := endToEnd{heap: startHeapSampler()}
	defer e.heap.close()
	var tr *obs.Tracer
	var lanes []*lane
	if o.trace {
		tr = obs.New()
		lanes = tracedLanes(tr, symexWorkers)
	}
	all, err := setUp(&e, laneOf(lanes, 0))
	if err != nil {
		return nil, err
	}
	loops, _ := byExpectation(all)
	want := map[*loopCase]replayed{}
	for _, c := range loops {
		r, err := replayTests(c)
		rep.check(err)
		want[c] = r
	}
	rng := rand.New(rand.NewSource(o.seed))
	pass := func(order []*loopCase, ctx context.Context, lanes []*lane) []symexRun {
		runs := make([]symexRun, len(order))
		engine.MapWorker(symexWorkers, len(order), func(w, i int) {
			cpu := onThreadCPU(func() { runs[i] = symexLoop(ctx, order[i], laneOf(lanes, w)) })
			runs[i].cpu = cpu
		})
		return runs
	}
	checkAll := func(runs []symexRun) {
		for _, r := range runs {
			rep.check(want[r.c].checkRun(r))
		}
	}

	if o.trace {
		order := shuffled(loops, rng)
		t := &traced{lanes: lanes, counts: map[string]float64{}}
		var runs []symexRun
		t.untracedWall, t.untracedCPU = timed(func() { runs = pass(order, context.Background(), nil) })
		checkAll(runs)
		m := obs.NewMetrics()
		t.tracedWall, t.tracedCPU = timed(func() { runs = pass(order, obs.NewContext(context.Background(), nil, m), lanes) })
		checkAll(runs)
		t.spend = metricsSpend(m)
		for _, r := range runs {
			t.counts["symex.paths_enum"] += float64(r.enum.Paths)
			t.counts["strsolver.outcomes"] += float64(r.str.Paths)
			rep.rows = append(rep.rows, r.row(nil))
		}
		t.report(rep)
		path, err := validateTrace(o, rep.workload, tr.WriteChromeTrace)
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "counts cover all three kleebench modes", "chrome trace "+path)
		return rep, nil
	}

	var done []symexRun
	var enum, merged, str []float64
	e.measure(o.seconds, func() {
		runs := pass(shuffled(loops, rng), context.Background(), nil)
		var en, me, st time.Duration
		for _, r := range runs {
			en += r.enum.Time
			me += r.merged.Time
			st += r.str.Time
		}
		enum, merged, str = append(enum, secs(en)), append(merged, secs(me)), append(str, secs(st))
		done = append(done, runs...)
	})
	checkAll(done)
	times := map[*loopCase][]symexRun{}
	for _, r := range done {
		// checkAll failed the run if any mode hit its cap: every loop is
		// decided, and every operation runs its loop's summary.
		e.op(r.c, r.dur, r.cpu, true, true)
		times[r.c] = append(times[r.c], r)
	}
	for _, r := range done[:len(loops)] {
		rep.rows = append(rep.rows, r.row(times[r.c]))
	}
	e.report(rep)
	rep.addExtra("symex_vanilla_s", median(enum), "s", len(enum))
	rep.addExtra("symex_merged_s", median(merged), "s", len(merged))
	rep.addExtra("symex_str_s", median(str), "s", len(str))
	return rep, nil
}

// row is the loop's output line (see synthRun.row).
func (r symexRun) row(all []symexRun) row {
	out := row{Loop: r.c.Name, Program: r.c.Program, Verdict: fmt.Sprintf("tests %d/%d/%d", r.enum.Tests, r.merged.Tests, r.str.Tests),
		Summary: r.c.want.String(), LayersMS: r.layers}
	if all == nil {
		all = []symexRun{r}
	}
	var wall, cpu []float64
	for _, a := range all {
		wall, cpu = append(wall, ms(a.dur)), append(cpu, ms(a.cpu))
	}
	out.MS, out.CPUMS = median(wall), median(cpu)
	return out
}
