package main

import (
	"errors"
	"fmt"
	"testing"

	"stringloops/internal/core"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
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
		if got := corpusOutcome(c.err); got != c.want {
			t.Errorf("%s: corpusOutcome(%v) = %q, want %q", c.name, c.err, got, c.want)
		}
	}
}

// TestCorpusOutcomeBudgetStop: a real summarisation stopped by its budget
// is labelled "budget", not "notfound".
func TestCorpusOutcomeBudgetStop(t *testing.T) {
	l := loopdb.Corpus()[0]
	budget := engine.NewBudget(nil, engine.Limits{Nodes: 1})
	_, err := core.Summarize(l.Source, l.FuncName, core.Options{Budget: budget})
	if got := corpusOutcome(err); got != "budget" {
		t.Fatalf("budget-stopped run (%v) labelled %q, want \"budget\"", err, got)
	}
}
