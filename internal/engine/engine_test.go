package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stringloops/internal/obs"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if b.Exceeded() || b.Err() != nil {
		t.Fatal("nil budget must never be exceeded")
	}
	for c := Counter(0); c < NumCounters; c++ {
		b.Add(c, 10)
		if b.Get(c) != 0 {
			t.Fatalf("nil budget accumulated %s", c.Metric())
		}
	}
	if b.Spend() != (Spend{}) {
		t.Fatal("nil budget must report zero spend")
	}
	if b.Context() == nil {
		t.Fatal("nil budget context must be non-nil")
	}
}

// TestBudgetCounters: each limited counter exhausts the budget through
// Add exactly when it reaches its limit.
func TestBudgetCounters(t *testing.T) {
	for _, tc := range []struct {
		c   Counter
		lim Limits
	}{
		{Conflicts, Limits{Conflicts: 100}},
		{Forks, Limits{Forks: 100}},
		{Nodes, Limits{Nodes: 100}},
	} {
		b := NewBudget(nil, tc.lim)
		b.Add(tc.c, 99)
		if b.Exceeded() {
			t.Fatalf("%s: exceeded under the limit", tc.c.Metric())
		}
		b.Add(tc.c, 1)
		if !errors.Is(b.Err(), ErrBudget) {
			t.Fatalf("%s: Err = %v at the limit, want ErrBudget", tc.c.Metric(), b.Err())
		}
	}
}

func TestCounterMetricNamesUnique(t *testing.T) {
	seen := map[string]Counter{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.Metric()
		if name == "" {
			t.Fatalf("counter %d has no metric name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("counters %d and %d share metric %q", prev, c, name)
		}
		seen[name] = c
	}
}

// TestSpendCheckReconciles charges every counter a distinct prime through a
// budget mirrored into a fresh registry: the snapshot must pass Check, and
// bumping any one registry counter must fail it, naming that counter.
func TestSpendCheckReconciles(t *testing.T) {
	m := obs.NewMetrics()
	b := NewBudget(nil, Limits{}).SetObs(nil, m)
	if n := len(m.Snapshot().Counters); n != int(NumCounters) {
		t.Fatalf("SetObs registered %d counters, want all %d rows", n, NumCounters)
	}
	primes := [NumCounters]int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
	for c, p := range primes {
		b.Add(Counter(c), p)
	}
	if b.Spend() != Spend(primes) {
		t.Fatalf("Spend = %v, want %v", b.Spend(), primes)
	}
	if err := b.Spend().Check(m.Snapshot().Counters); err != nil {
		t.Fatalf("fresh registry does not reconcile: %v", err)
	}
	for c := Counter(0); c < NumCounters; c++ {
		m.Counter(c.Metric()).Add(1)
		err := b.Spend().Check(m.Snapshot().Counters)
		if err == nil || !strings.Contains(err.Error(), c.Metric()) {
			t.Fatalf("bumped %s: Check = %v, want an error naming it", c.Metric(), err)
		}
		m.Counter(c.Metric()).Add(-1)
	}
	var sum Spend
	sum.Add(b.Spend())
	sum.Add(b.Spend())
	if got := SumSpend([]*Budget{b, nil, b}); got != sum {
		t.Fatalf("SumSpend = %v, want %v", got, sum)
	}
}

func TestBudgetErrIsSticky(t *testing.T) {
	b := NewBudget(nil, Limits{Forks: 1})
	b.Add(Forks, 1)
	first := b.Err()
	if first == nil {
		t.Fatal("expected exhaustion")
	}
	if b.Err() != first {
		t.Fatal("Err must return the same cause on every poll")
	}
}

func TestBudgetTimeout(t *testing.T) {
	b := NewBudget(nil, Limits{Timeout: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	if !b.Exceeded() {
		t.Fatal("deadline passed but budget not exceeded")
	}
	if !errors.Is(b.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded in chain", b.Err())
	}
}

func TestBudgetContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, Limits{})
	if b.Exceeded() {
		t.Fatal("fresh budget exceeded")
	}
	cancel()
	if !b.Exceeded() || !errors.Is(b.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled in chain", b.Err())
	}
}

func TestBudgetContextDeadlineWins(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	b := NewBudget(ctx, Limits{Timeout: time.Hour})
	time.Sleep(5 * time.Millisecond)
	if !b.Exceeded() {
		t.Fatal("context deadline must tighten the budget")
	}
}

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		n := 100
		counts := make([]atomic.Int64, n)
		Map(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, counts[i].Load())
			}
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8,3) = %d", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Fatalf("Workers(0,100) = %d", got)
	}
	if got := Workers(2, 0); got != 1 {
		t.Fatalf("Workers(2,0) = %d", got)
	}
}

func TestLimitsScaleDoubling(t *testing.T) {
	l := Limits{Timeout: time.Second, Conflicts: 100, Forks: 10, Nodes: 1000}
	got := l.Scale(2, Limits{})
	want := Limits{Timeout: 2 * time.Second, Conflicts: 200, Forks: 20, Nodes: 2000}
	if got != want {
		t.Fatalf("Scale(2) = %+v, want %+v", got, want)
	}
}

func TestLimitsScaleZeroStaysUnlimited(t *testing.T) {
	l := Limits{Conflicts: 100} // everything else unlimited
	got := l.Scale(2, Limits{})
	if got.Timeout != 0 || got.Forks != 0 || got.Nodes != 0 {
		t.Fatalf("unlimited fields must stay zero, got %+v", got)
	}
	if got.Conflicts != 200 {
		t.Fatalf("Conflicts = %d, want 200", got.Conflicts)
	}
	if z := (Limits{}).Scale(4, Limits{}); z != (Limits{}) {
		t.Fatalf("zero Limits must scale to zero, got %+v", z)
	}
}

func TestLimitsScaleCaps(t *testing.T) {
	l := Limits{Conflicts: 100, Nodes: 100}
	max := Limits{Conflicts: 150} // Nodes uncapped
	got := l.Scale(2, max)
	if got.Conflicts != 150 {
		t.Fatalf("Conflicts = %d, want capped at 150", got.Conflicts)
	}
	if got.Nodes != 200 {
		t.Fatalf("Nodes = %d, want 200 (uncapped)", got.Nodes)
	}
	// Repeated doubling converges to the cap instead of overflowing.
	cur := Limits{Conflicts: 1}
	for i := 0; i < 200; i++ {
		cur = cur.Scale(2, Limits{Conflicts: 1 << 20})
	}
	if cur.Conflicts != 1<<20 {
		t.Fatalf("after repeated doubling Conflicts = %d, want cap 1<<20", cur.Conflicts)
	}
}

func TestLimitsScaleNoOverflow(t *testing.T) {
	l := Limits{Conflicts: 1 << 61, Timeout: time.Duration(1) << 61}
	got := l.Scale(8, Limits{})
	if got.Conflicts <= 0 || got.Conflicts > 1<<62 {
		t.Fatalf("Conflicts overflowed: %d", got.Conflicts)
	}
	if got.Timeout <= 0 {
		t.Fatalf("Timeout overflowed: %d", got.Timeout)
	}
}

func TestLimitsScaleBelowOneIsIdentityPlusCaps(t *testing.T) {
	l := Limits{Conflicts: 100}
	if got := l.Scale(0.5, Limits{}); got.Conflicts != 100 {
		t.Fatalf("Scale(0.5) shrank the limit: %+v", got)
	}
}

func TestBudgetFail(t *testing.T) {
	cause := errors.New("injected")
	b := NewBudget(nil, Limits{})
	if b.Exceeded() {
		t.Fatal("fresh budget already exceeded")
	}
	b.Fail(cause)
	if !b.Exceeded() {
		t.Fatal("Fail must exhaust the budget")
	}
	if err := b.Err(); !errors.Is(err, ErrBudget) || !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want ErrBudget and the cause", err)
	}
	// First cause sticks.
	b.Fail(errors.New("second"))
	if !errors.Is(b.Err(), cause) {
		t.Fatalf("first cause must stick, got %v", b.Err())
	}
	// Nil budget: no-op.
	var nb *Budget
	nb.Fail(cause)
	if nb.Exceeded() {
		t.Fatal("nil budget cannot be exceeded")
	}
}
