package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
)

// sourceLoops wraps C sources as sweep loops; an empty FuncName picks the
// first char *f(char *) function, as in Summarize.
func sourceLoops(srcs ...string) []loopdb.Loop {
	loops := make([]loopdb.Loop, len(srcs))
	for i, src := range srcs {
		loops[i] = loopdb.Loop{Name: fmt.Sprintf("item%d", i), Source: src}
	}
	return loops
}

// batchResult is one Summarize run of summarizeSweep: Index is the position
// the item ran as, so tests can check results land in input order.
type batchResult struct {
	Index   int
	Summary *Summary
}

// summarizeSweep sweeps Summarize over loops on the given worker count,
// item i under opts(i).
func summarizeSweep(loops []loopdb.Loop, workers int, opts func(i int) Options) []SweepResult[batchResult] {
	return Sweep(loops, workers, nil, func(it *SweepItem) (batchResult, string, error) {
		s, err := Summarize(it.Loop.Source, it.Loop.FuncName, opts(it.Index))
		return batchResult{Index: it.Index, Summary: s}, "ok", err
	})
}

// minuteBudget gives each item its own Timeout-derived budget.
func minuteBudget(int) Options { return Options{Timeout: time.Minute} }

// batchItems is a small corpus of quick loops (plus one malformed item so
// error outcomes are exercised too).
func batchItems() []loopdb.Loop {
	return sourceLoops(
		figure1,
		`char *f(char *s) { while (*s == ' ') s++; return s; }`,
		`char *f(char *s) { while (*s == 'a') s++; return s; }`,
		`char *f(char *s) { while (*s == 'b') s++; return s; }`,
		`char *f(char *s) { while (*s == 'x') s++; return s; }`,
		`char *f(char *s) { while (*s == '.') s++; return s; }`,
		`char *f(char *s) { while (*s == 'z') s++; return s; }`,
		`char *f(char *s) { while (*s == '_') s++; return s; }`,
		`int notaloop(int x) { return x; }`, // errors with ErrNoLoopFunction
	)
}

// TestSummarizeAllParallelMatchesSerial is the determinism check (and, under
// `go test -race`, the data-race regression test for the whole pipeline): 9
// loops summarised on 8 workers must produce element-wise identical outcomes
// to a serial run, because every item owns its interner, solver stack and
// budget.
func TestSummarizeAllParallelMatchesSerial(t *testing.T) {
	items := batchItems()
	serial := summarizeSweep(items, 1, minuteBudget)
	parallel := summarizeSweep(items, 8, minuteBudget)
	if len(serial) != len(items) || len(parallel) != len(items) {
		t.Fatalf("result lengths: serial %d, parallel %d, want %d",
			len(serial), len(parallel), len(items))
	}
	for i := range items {
		s, p := serial[i], parallel[i]
		if s.Value.Index != i || p.Value.Index != i {
			t.Errorf("item %d: indices %d/%d out of order", i, s.Value.Index, p.Value.Index)
		}
		switch {
		case s.Err != nil || p.Err != nil:
			if s.Err == nil || p.Err == nil || s.Err.Error() != p.Err.Error() {
				t.Errorf("item %d: errors differ: serial %v, parallel %v", i, s.Err, p.Err)
			}
		case s.Value.Summary.Encoded != p.Value.Summary.Encoded:
			t.Errorf("item %d: programs differ: serial %q, parallel %q",
				i, s.Value.Summary.Encoded, p.Value.Summary.Encoded)
		case s.Value.Summary.Memoryless != p.Value.Summary.Memoryless ||
			s.Value.Summary.Direction != p.Value.Summary.Direction:
			t.Errorf("item %d: memoryless reports differ: serial %v/%s, parallel %v/%s",
				i, s.Value.Summary.Memoryless, s.Value.Summary.Direction,
				p.Value.Summary.Memoryless, p.Value.Summary.Direction)
		}
	}
}

func TestSummarizeAllDefaultWorkerCount(t *testing.T) {
	items := batchItems()[:2]
	res := summarizeSweep(items, 0, minuteBudget) // < 1 means one worker per CPU
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].Err != nil || res[0].Value.Summary == nil {
		t.Fatalf("item 0: err=%v", res[0].Err)
	}
}

func TestSummarizeCancelledBudgetReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	start := time.Now()
	_, err := Summarize(figure1, "", Options{
		Budget: engine.NewBudget(ctx, engine.Limits{}),
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("err = %v must classify as engine.ErrBudget", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled Summarize took %v to return", d)
	}
}

func TestSummarizeAllSharedBudgetCancelsWholeBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shared := engine.NewBudget(ctx, engine.Limits{})
	items := batchItems()
	start := time.Now()
	res := summarizeSweep(items, 4, func(int) Options {
		return Options{Timeout: time.Minute, Budget: shared}
	})
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("item %d: expected an error under a cancelled shared budget", i)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled batch took %v to return", d)
	}
}

// TestSweepReconcile: with a report, Sweep checks each loop's counters
// against the spend of the budgets it made or tracked. Session.Finish
// prints the verdict when every loop held, and a budget charged outside
// the item's registry fails the run, naming the loop and the counter.
func TestSweepReconcile(t *testing.T) {
	loops := batchItems()[:2]
	for _, leak := range []bool{false, true} {
		sess, err := (&obs.Flags{Report: true}).Start()
		if err != nil {
			t.Fatal(err)
		}
		Sweep(loops, 2, sess, func(it *SweepItem) (*Summary, string, error) {
			s, err := Summarize(it.Loop.Source, "", Options{Budget: it.Budget(engine.Limits{Timeout: time.Minute})})
			if leak && it.Index == 1 {
				b := engine.NewBudget(nil, engine.Limits{}) // no SetObs
				it.Track(b)
				b.Add(engine.Conflicts, 3)
			}
			return s, "ok", err
		})
		var stdout strings.Builder
		err = sess.Finish(&stdout, io.Discard)
		if !leak {
			if err != nil || !strings.Contains(stdout.String(), "reconcile: report totals match budget spend") {
				t.Errorf("clean sweep: err %v, stdout %q", err, stdout.String())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "item1: "+obs.MSatConflicts) || strings.Contains(err.Error(), "item0") {
			t.Errorf("leaked budget: err = %v, want drift on item1 %s", err, obs.MSatConflicts)
		}
	}
}
