package core

import (
	"errors"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/supervise"
)

// SweepItem is one loop's scope inside a Sweep: its corpus position, the
// loop, and the session item's tracer and registry (nil, which every layer
// treats as off, when the session collects nothing).
type SweepItem struct {
	Index   int
	Loop    loopdb.Loop
	Tracer  *obs.Tracer
	Metrics *obs.Metrics

	budgets []*engine.Budget
}

// Budget returns a budget under lim that carries the item's tracer and
// registry, tracked for the item's spend reconcile.
func (it *SweepItem) Budget(lim engine.Limits) *engine.Budget {
	b := engine.NewBudget(nil, lim).SetObs(it.Tracer, it.Metrics)
	it.Track(b)
	return b
}

// Track adds a budget made elsewhere (the ladder's attempt budgets, through
// ResilientOptions.OnBudget) to the item's spend reconcile.
func (it *SweepItem) Track(b *engine.Budget) { it.budgets = append(it.budgets, b) }

// SweepResult is one loop's result.
type SweepResult[T any] struct {
	// Value is what fn returned; it stays zero when fn panicked, so a
	// half-built result never leaks.
	Value T
	// Outcome labels the run in the report: fn's verdict when fn returned
	// no error, otherwise "budget" (the error wraps engine.ErrBudget),
	// "panic" (a *supervise.PanicError) or "error".
	Outcome string
	// Err is fn's error or the recovered panic.
	Err error
}

// Sweep runs fn over every loop on a bounded pool of workers (workers < 1
// means one per CPU, 1 runs serially on the calling goroutine) and returns
// the results in corpus order. Each loop owns its whole pipeline, so results
// do not depend on the worker count. Each loop runs in its own session item
// under supervise.Guard, so a panic stays that loop's *supervise.PanicError.
// fn returns its value, the verdict of a run that reached one ("ok",
// "found", a rung name, ...) and the error of one that did not, which Sweep
// labels. When the session keeps a report, each loop's summed spend over
// the budgets made by Budget or passed to Track is checked against its
// registry; Session.Finish returns a drift as an error naming the loop and
// the counter.
func Sweep[T any](loops []loopdb.Loop, workers int, sess *obs.Session, fn func(*SweepItem) (T, string, error)) []SweepResult[T] {
	results := make([]SweepResult[T], len(loops))
	engine.MapWorker(workers, len(loops), func(worker, i int) {
		l := loops[i]
		item := sess.Item(l.Name, l.Program, worker)
		it := &SweepItem{Index: i, Loop: l, Tracer: item.Tracer(), Metrics: item.Metrics()}
		r := &results[i]
		r.Err = supervise.Guard(func() (err error) {
			r.Value, r.Outcome, err = fn(it)
			return err
		})
		var pe *supervise.PanicError
		switch {
		case errors.As(r.Err, &pe):
			r.Outcome = "panic"
		case errors.Is(r.Err, engine.ErrBudget):
			r.Outcome = "budget"
		case r.Err != nil:
			r.Outcome = "error"
		}
		var drift error
		if item != nil {
			drift = engine.SumSpend(it.budgets).Check(it.Metrics.Snapshot().Counters)
		}
		item.Finish(r.Outcome, drift)
	})
	return results
}
