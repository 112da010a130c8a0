package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/engine"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
	"stringloops/internal/vocab"
)

// loopNodes is the per-loop limit: a budget of interned expression nodes,
// shared by the memorylessness check and the synthesis as core.Summarize
// shares Options.Budget. The found loops intern at most about 2,500, so a
// loaded machine cannot turn one into a miss, as a time limit did (a found
// loop that takes 0.06 s on an idle core took over 0.4 s under load);
// each of the 38 misses stops when it has interned loopNodes nodes. The
// daemon-warm workload gives each request the same budget.
const loopNodes = 5000

// synthOpts are the paper's settings: programs up to size 9, sets of up
// to 3 characters, bounded equivalence on strings up to length 3.
func synthOpts(b *engine.Budget) cegis.Options {
	return cegis.Options{MaxProgSize: 9, MaxSetLen: 3, MaxExSize: refMaxLen, Budget: b}
}

// synthRun is one loop through the summarisation pipeline.
type synthRun struct {
	c          *loopCase
	found      bool
	prog       vocab.Program
	memoryless bool
	// budgetMiss marks a no-summary caused by engine.ErrBudget — the
	// node limit, not a decision.
	budgetMiss bool
	err        error
	// csrc is the C replacement vocab.CompileToC emitted.
	csrc string
	// dur and cpu are the wall and the thread CPU time of the loop.
	dur, cpu time.Duration
	stats    cegis.Stats
	budget   *engine.Budget
	layers   map[string]float64
}

// summarize runs one loop through the stages of core.Summarize without a
// cache tier — memoryless.VerifyWith, cegis.New, Synthesize and, for a
// found program, vocab.CompileToC — each inside its own span.
func summarize(c *loopCase, ln *lane) synthRun {
	start := time.Now()
	ln.begin("bench.loop")
	ln.beginRow()
	b := engine.NewBudget(nil, engine.Limits{Nodes: loopNodes})
	r := synthRun{c: c, budget: b}

	ln.begin("memoryless.verify")
	rep := memoryless.VerifyWith(c.f, memoryless.VerifyOptions{MaxLen: refMaxLen, Budget: b})
	ln.end()
	r.memoryless = rep.Memoryless

	ln.begin("cegis.paths")
	syn, err := cegis.New(c.f, synthOpts(b))
	ln.end()
	if err == nil {
		ln.begin("cegis.search")
		var out cegis.Outcome
		out, err = syn.Synthesize()
		layer := "cegis.search_miss"
		if out.Found {
			layer = "cegis.search_hit"
		}
		ln.endAs(layer)
		r.found, r.prog, r.stats = out.Found, out.Program, out.Stats
	}
	switch {
	case errors.Is(err, engine.ErrBudget):
		r.budgetMiss = true
	case err != nil && !errors.Is(err, cegis.ErrUnsupportedLoop):
		r.err = err
	}
	if r.found {
		ln.begin("vocab.compile")
		r.csrc = vocab.CompileToC(r.prog, c.f.Name+"_summary")
		ln.end()
	}
	ln.end()
	r.layers = ln.endRow()
	r.dur = time.Since(start)
	return r
}

// verdict names a run's outcome in the per-loop rows.
func (r synthRun) verdict() string {
	switch {
	case r.err != nil:
		return "error"
	case r.found:
		return "found"
	case r.budgetMiss:
		return "budget"
	}
	return "no-summary"
}

// check compares one run with the ground truth; nil means correct.
func (r synthRun) check(k *checker) error {
	if r.err != nil {
		return fmt.Errorf("%s: pipeline error: %w", r.c.Name, r.err)
	}
	if err := checkVerdict(r.c, r.found, r.memoryless); err != nil {
		return err
	}
	if r.found {
		return k.summary(r.c, r.prog, r.csrc)
	}
	return nil
}

// runTable3 sweeps all 115 corpus loops through the pipeline on two
// workers, each taking the next loop of a seeded order (see missesFirst).
func runTable3(o options) (*report, error) {
	rep := &report{workload: "table3"}
	e := endToEnd{heap: startHeapSampler()}
	defer e.heap.close()
	var tr *obs.Tracer
	var lanes []*lane
	if o.trace {
		tr = obs.New()
		lanes = tracedLanes(tr, workers)
	}
	loops, err := setUp(&e, laneOf(lanes, 0))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	k := newChecker()
	pass := func(order []*loopCase, lanes []*lane) []synthRun {
		runs := make([]synthRun, len(order))
		engine.MapWorker(workers, len(order), func(w, i int) {
			cpu := onThreadCPU(func() { runs[i] = summarize(order[i], laneOf(lanes, w)) })
			runs[i].cpu = cpu
		})
		return runs
	}
	checkAll := func(runs []synthRun) {
		for _, r := range runs {
			rep.check(r.check(k))
		}
	}

	if o.trace {
		order := missesFirst(loops, rng)
		t := &traced{lanes: lanes, counts: map[string]float64{}}
		var runs []synthRun
		t.untracedWall, t.untracedCPU = timed(func() { runs = pass(order, nil) })
		checkAll(runs)
		t.tracedWall, t.tracedCPU = timed(func() { runs = pass(order, lanes) })
		checkAll(runs)
		var hits, skeletons, missSkeletons int
		var missSearch float64
		for _, r := range runs {
			rep.rows = append(rep.rows, r.row(nil))
			if r.memoryless {
				t.counts["memoryless.proven"]++
			}
			if !r.found {
				missSkeletons += r.stats.Skeletons
				missSearch += r.layers["cegis.search_miss"] / 1000
				continue
			}
			hits++
			skeletons += r.stats.Skeletons
			t.counts["cegis.candidates_run"] += float64(r.stats.CandidatesRun)
			t.counts["cegis.arg_solves"] += float64(r.stats.ArgSolverCalls)
			t.counts["cegis.verify_queries"] += float64(r.stats.VerifyQueries)
			t.counts["cegis.counterexamples"] += float64(r.stats.Counterexamples)
			t.spend.add(budgetSpend(r.budget))
		}
		t.counts["cegis.skeletons"] = float64(skeletons)
		t.counts["cegis.candidate_yield"] = float64(hits) / t.counts["cegis.candidates_run"]
		if missSearch > 0 {
			t.counts["cegis.miss_skeletons_per_s"] = float64(missSkeletons) / missSearch
		}
		t.report(rep)
		path, err := validateTrace(o, rep.workload, tr.WriteChromeTrace)
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "counts cover the found loops",
			"chrome trace "+path)
		return rep, nil
	}

	var all []synthRun
	e.measure(o.seconds, func() {
		all = append(all, pass(missesFirst(loops, rng), nil)...)
	})
	checkAll(all)
	times := map[*loopCase][]synthRun{}
	for _, r := range all {
		e.op(r.c, r.dur, r.cpu, r.found, r.err == nil && !r.budgetMiss)
		times[r.c] = append(times[r.c], r)
	}
	for _, r := range all[:len(loops)] {
		rep.rows = append(rep.rows, r.row(times[r.c]))
	}
	e.report(rep)
	return rep, nil
}

// row is the loop's output line: its median times over the runs of the
// loop in all, or the run's own times and layer self times when all is
// nil (the traced pass).
func (r synthRun) row(all []synthRun) row {
	out := row{Loop: r.c.Name, Program: r.c.Program, Verdict: r.verdict(), LayersMS: r.layers}
	if all == nil {
		all = []synthRun{r}
	}
	var wall, cpu []float64
	for _, a := range all {
		wall, cpu = append(wall, ms(a.dur)), append(cpu, ms(a.cpu))
	}
	out.MS, out.CPUMS = median(wall), median(cpu)
	if r.found {
		out.Summary = r.prog.String()
	}
	return out
}
