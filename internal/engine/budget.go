// Package engine provides the shared cancellation and resource-budget
// discipline threaded through every solver layer (sat → bv → symex →
// strsolver → cegis → memoryless → core), plus the bounded worker pool the
// concurrent corpus drivers are built on.
//
// A Budget wraps a context.Context, a wall-clock limit and the table of
// resource counters (Counter) under one Exceeded/Err check. Layers *charge*
// it as they work (b.Add(Conflicts, 1)) and *poll* it at their loop heads;
// when any limit trips, or the context is cancelled, every layer unwinds
// promptly with its own timeout error, and external callers cancel a run
// from any depth through the context.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"stringloops/internal/obs"
)

// ErrBudget is the sentinel wrapped by every budget-exhaustion error.
var ErrBudget = errors.New("engine: budget exhausted")

// Limits bounds a run. The zero value of any field means "unlimited"; the
// zero Limits is a pure cancellation handle (context only).
type Limits struct {
	// Timeout bounds wall-clock time from NewBudget.
	Timeout time.Duration
	// Conflicts bounds the total SAT conflicts charged across all queries.
	Conflicts int64
	// Forks bounds symbolic-execution forks.
	Forks int64
	// Nodes bounds interned bit-vector nodes.
	Nodes int64
}

// Scale returns a copy of l with every finite limit multiplied by mult —
// the escalation step of the supervisor's retry policy. Zero ("unlimited")
// fields stay zero: an unlimited resource cannot be made more limited by
// escalation. Each scaled field is capped by the corresponding non-zero
// field of max (a zero max field means uncapped), so repeated doubling
// converges to the cap instead of overflowing. mult <= 1 returns l
// unchanged apart from the caps.
func (l Limits) Scale(mult float64, max Limits) Limits {
	if mult < 1 {
		mult = 1
	}
	scaleInt := func(v, cap int64) int64 {
		if v == 0 {
			return 0
		}
		f := float64(v) * mult
		if f > float64(1<<62) {
			v = 1 << 62
		} else {
			v = int64(f)
		}
		if cap > 0 && v > cap {
			v = cap
		}
		return v
	}
	out := Limits{
		Conflicts: scaleInt(l.Conflicts, max.Conflicts),
		Forks:     scaleInt(l.Forks, max.Forks),
		Nodes:     scaleInt(l.Nodes, max.Nodes),
	}
	if l.Timeout > 0 {
		out.Timeout = time.Duration(scaleInt(int64(l.Timeout), int64(max.Timeout)))
	}
	return out
}

// Counter names one resource counter a Budget accounts. The table below
// is the one place the set is declared: the atomics, registry mirrors,
// Spend and both reconcile checks (loopsum -corpus, the daemon) derive from
// it, so a new counter is one row here, its obs name and its
// service.SpendTotals field. Conflicts, Forks and Nodes carry limits; the
// rest are accounting only.
type Counter int

const (
	Conflicts        Counter = iota // SAT conflicts
	Propagations                    // SAT unit propagations
	Forks                           // symbolic-execution forks
	Nodes                           // interned bit-vector nodes
	CacheHits                       // query-cache (internal/qcache) hits
	CacheMisses                     // query-cache misses
	Merges                          // pairwise symbolic-state joins
	MergeItes                       // ite nodes those joins introduced
	DiskHits                        // persistent-cache (internal/diskcache) hits
	DiskMisses                      // persistent-cache misses
	DiskEvictions                   // persistent-cache evictions
	VNHits                          // value-numbering memo hits
	IteFusions                      // ite fusions, pull-ups and guard prunes
	BlastHits                       // CNF blast-cache hits
	SimplifyCalls                   // top-level SimplifyBool/SimplifyTerm calls
	SimplifyNodesIn                 // DAG size of memo-missing simplifier inputs
	SimplifyNodesOut                // DAG size of their rewritten outputs
	NumCounters
)

// metricNames maps each counter to its canonical registry name.
var metricNames = [NumCounters]string{
	Conflicts:        obs.MSatConflicts,
	Propagations:     obs.MSatPropagations,
	Forks:            obs.MSymexForks,
	Nodes:            obs.MBVNodes,
	CacheHits:        obs.MQCacheHits,
	CacheMisses:      obs.MQCacheMisses,
	Merges:           obs.MSymexMerges,
	MergeItes:        obs.MSymexMergeItes,
	DiskHits:         obs.MDiskHits,
	DiskMisses:       obs.MDiskMisses,
	DiskEvictions:    obs.MDiskEvictions,
	VNHits:           obs.MBVVNHits,
	IteFusions:       obs.MBVIteFusions,
	BlastHits:        obs.MBVBlastHits,
	SimplifyCalls:    obs.MBVSimplifyCalls,
	SimplifyNodesIn:  obs.MBVSimplifyNodesIn,
	SimplifyNodesOut: obs.MBVSimplifyNodesOut,
}

// Metric returns the counter's canonical obs registry name.
func (c Counter) Metric() string { return metricNames[c] }

// Spend is a snapshot of every budget counter, indexed by Counter.
type Spend [NumCounters]int64

// Add accumulates o into s.
func (s *Spend) Add(o Spend) {
	for c := range s {
		s[c] += o[c]
	}
}

// SumSpend folds the spend of every budget into one record.
func SumSpend(budgets []*Budget) (s Spend) {
	for _, b := range budgets {
		s.Add(b.Spend())
	}
	return s
}

// Check verifies that every counter of s equals the registry total under
// its metric name (missing reads as 0); the error names the first drift.
func (s Spend) Check(totals map[string]int64) error {
	for c, want := range s {
		if got := totals[metricNames[c]]; got != want {
			return fmt.Errorf("%s: registry total %d != budget spend %d", metricNames[c], got, want)
		}
	}
	return nil
}

// Budget is a shared, concurrency-safe cancellation and accounting object.
// All methods are safe on a nil receiver, which behaves as an unlimited,
// never-cancelled budget — layers thread a *Budget without nil checks.
type Budget struct {
	ctx      context.Context
	start    time.Time
	deadline time.Time // zero when no wall-clock limit applies
	lim      Limits

	spent [NumCounters]atomic.Int64

	// done caches the first observed exhaustion so later polls are cheap
	// and the reported cause is stable.
	done atomic.Pointer[error]

	// Observability handles ride the budget because it is already threaded
	// through every layer: layers read b.Tracer()/b.Metrics() instead of
	// growing new parameters. All nil when observability is off. mirror
	// holds each counter's registry twin, so reports reconcile 1:1 with
	// budget spend.
	tracer  *obs.Tracer
	metrics *obs.Metrics
	mirror  [NumCounters]*obs.Counter
}

// NewBudget builds a budget from a context and limits. A nil context means
// context.Background(). When the context itself carries a deadline, the
// effective wall-clock limit is the earlier of the two. When the context
// carries observability handles (obs.NewContext), the budget picks them up —
// so budgets derived from an instrumented run (e.g. diffuzz's per-seed
// budgets built from opts.Budget.Context()) inherit tracing and metrics
// without any caller changes.
func NewBudget(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, start: time.Now(), lim: lim}
	if lim.Timeout > 0 {
		b.deadline = b.start.Add(lim.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || d.Before(b.deadline)) {
		b.deadline = d
	}
	if t, m := obs.TracerFrom(ctx), obs.MetricsFrom(ctx); t != nil || m != nil {
		b.SetObs(t, m)
	}
	return b
}

// SetObs attaches a tracer and metrics registry (either may be nil) and
// returns b. It registers every counter's mirror eagerly, so each later Add
// also charges the registry. Call before handing the budget to workers; it
// is not synchronised against concurrent Add.
func (b *Budget) SetObs(t *obs.Tracer, m *obs.Metrics) *Budget {
	if b == nil {
		return nil
	}
	b.tracer, b.metrics = t, m
	for c := range b.mirror {
		b.mirror[c] = m.Counter(metricNames[c])
	}
	return b
}

// Tracer returns the attached tracer (nil when observability is off).
func (b *Budget) Tracer() *obs.Tracer {
	if b == nil {
		return nil
	}
	return b.tracer
}

// Metrics returns the attached metrics registry (nil when off).
func (b *Budget) Metrics() *obs.Metrics {
	if b == nil {
		return nil
	}
	return b.metrics
}

// Err reports why the budget is exhausted, or nil while work may continue.
// The first non-nil result is sticky: once a run is over budget it stays
// over budget, and all layers see the same cause.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if p := b.done.Load(); p != nil {
		return *p
	}
	if err := b.check(); err != nil {
		b.done.CompareAndSwap(nil, &err)
		return *b.done.Load()
	}
	return nil
}

func (b *Budget) check() error {
	if err := b.ctx.Err(); err != nil {
		return errors.Join(ErrBudget, err)
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return errors.Join(ErrBudget, context.DeadlineExceeded)
	}
	if b.lim.Conflicts > 0 && b.spent[Conflicts].Load() >= b.lim.Conflicts {
		return errors.Join(ErrBudget, errors.New("engine: SAT conflict limit"))
	}
	if b.lim.Forks > 0 && b.spent[Forks].Load() >= b.lim.Forks {
		return errors.Join(ErrBudget, errors.New("engine: fork limit"))
	}
	if b.lim.Nodes > 0 && b.spent[Nodes].Load() >= b.lim.Nodes {
		return errors.Join(ErrBudget, errors.New("engine: interned-node limit"))
	}
	return nil
}

// Exceeded reports whether the budget is exhausted or cancelled.
func (b *Budget) Exceeded() bool { return b.Err() != nil }

// Fail forces the budget into the exhausted state with the given cause
// (wrapped under ErrBudget), as if a limit had tripped. Layers use it to
// convert their own fatal resource conditions — including injected
// faults — into the uniform budget-exhaustion unwind every other layer
// already polls for. The first cause wins; Fail after exhaustion is a
// no-op, and Fail on a nil budget does nothing.
func (b *Budget) Fail(cause error) {
	if b == nil {
		return
	}
	err := errors.Join(ErrBudget, cause)
	b.done.CompareAndSwap(nil, &err)
}

// Add charges n to counter c and its registry mirror.
func (b *Budget) Add(c Counter, n int64) {
	if b != nil && n != 0 {
		b.spent[c].Add(n)
		b.mirror[c].Add(n)
	}
}

// Get returns the amount charged to counter c so far.
func (b *Budget) Get(c Counter) int64 {
	if b == nil {
		return 0
	}
	return b.spent[c].Load()
}

// Spend snapshots every counter (all zero for a nil budget).
func (b *Budget) Spend() (s Spend) {
	for c := range s {
		s[c] = b.Get(Counter(c))
	}
	return s
}

// Named readers: Get for one counter each.
func (b *Budget) Conflicts() int64        { return b.Get(Conflicts) }
func (b *Budget) Propagations() int64     { return b.Get(Propagations) }
func (b *Budget) Forks() int64            { return b.Get(Forks) }
func (b *Budget) Nodes() int64            { return b.Get(Nodes) }
func (b *Budget) CacheHits() int64        { return b.Get(CacheHits) }
func (b *Budget) CacheMisses() int64      { return b.Get(CacheMisses) }
func (b *Budget) Merges() int64           { return b.Get(Merges) }
func (b *Budget) MergeItes() int64        { return b.Get(MergeItes) }
func (b *Budget) DiskHits() int64         { return b.Get(DiskHits) }
func (b *Budget) DiskMisses() int64       { return b.Get(DiskMisses) }
func (b *Budget) DiskEvictions() int64    { return b.Get(DiskEvictions) }
func (b *Budget) VNHits() int64           { return b.Get(VNHits) }
func (b *Budget) IteFusions() int64       { return b.Get(IteFusions) }
func (b *Budget) BlastHits() int64        { return b.Get(BlastHits) }
func (b *Budget) SimplifyCalls() int64    { return b.Get(SimplifyCalls) }
func (b *Budget) SimplifyNodesIn() int64  { return b.Get(SimplifyNodesIn) }
func (b *Budget) SimplifyNodesOut() int64 { return b.Get(SimplifyNodesOut) }

// Elapsed returns the wall-clock time since the budget was created.
func (b *Budget) Elapsed() time.Duration {
	if b == nil {
		return 0
	}
	return time.Since(b.start)
}

// Context returns the wrapped context (context.Background for nil budgets),
// for layers that hand work to context-aware APIs.
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}
