package main

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
)

// TestCorpusOutcome: the run report tells a miss the budget stopped from a
// decided miss, so a starved sweep never reads as an exhaustive one.
func TestCorpusOutcome(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"found", nil, "ok"},
		{"decided miss", core.ErrNotFound, "notfound"},
		{"budget miss", fmt.Errorf("%w: %w", core.ErrNotFound, engine.ErrBudget), "budget"},
		{"failure", errors.New("core: lowering failed"), "error"},
	} {
		res := core.Sweep(loopdb.Corpus()[:1], 1, nil, func(*core.SweepItem) (*core.Summary, string, error) {
			return summaryVerdict(nil, c.err)
		})
		if got := res[0].Outcome; got != c.want {
			t.Errorf("%s: sweep labels %v %q, want %q", c.name, c.err, got, c.want)
		}
	}
}

// TestCorpusOutcomeBudgetStop: a real summarisation stopped by its budget
// is labelled "budget", not "notfound".
func TestCorpusOutcomeBudgetStop(t *testing.T) {
	res := core.Sweep(loopdb.Corpus()[:1], 1, nil, func(it *core.SweepItem) (*core.Summary, string, error) {
		return summarizeItem(it, core.Options{Budget: engine.NewBudget(nil, engine.Limits{Nodes: 1})})
	})
	if got := res[0].Outcome; got != "budget" {
		t.Fatalf("budget-stopped run (%v) labelled %q, want \"budget\"", res[0].Err, got)
	}
}

// TestCorpusOutcomePanic: a loop whose pipeline panics reads "panic" in the
// report while the other loops of the sweep complete and reconcile.
func TestCorpusOutcomePanic(t *testing.T) {
	sess, err := (&obs.Flags{Report: true}).Start()
	if err != nil {
		t.Fatal(err)
	}
	res := core.Sweep(loopdb.Corpus()[:3], 2, sess, func(it *core.SweepItem) (*core.Summary, string, error) {
		opts := core.Options{Timeout: time.Minute}
		if it.Index == 1 {
			opts.Faults = faultpoint.New(faultpoint.Config{
				Seed: 7, Rates: map[faultpoint.Site]float64{faultpoint.SymexPanic: 1},
			})
		}
		return summarizeItem(it, opts)
	})
	for i, r := range res {
		want := "ok"
		if i == 1 {
			want = "panic"
		}
		if r.Outcome != want {
			t.Errorf("loop %d labelled %q (%v), want %q", i, r.Outcome, r.Err, want)
		}
	}
	var pe *core.PanicError
	if !errors.As(res[1].Err, &pe) || res[1].Value != nil {
		t.Errorf("panicked loop: err %v, summary %v; want a PanicError and no summary", res[1].Err, res[1].Value)
	}
	rows := map[string]string{}
	for _, row := range sess.Report.Rows() {
		rows[row.Loop] = row.Outcome
	}
	if got := rows[loopdb.Corpus()[1].Name]; got != "panic" {
		t.Errorf("report row reads %q, want \"panic\"", got)
	}
	if err := sess.Finish(io.Discard, io.Discard); err != nil {
		t.Errorf("reconcile: %v", err)
	}
}
