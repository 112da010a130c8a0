package bv

import (
	"errors"
	"sync"
	"sync/atomic"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

// Hash-consing: every constructor funnels through intern/internBool, so
// structurally equal nodes built by the same Interner are pointer-equal.
// This keeps expression DAGs from exploding (symbolic execution rebuilds the
// same subterms constantly), makes the pointer-equality rewrites in the
// smart constructors fire, and turns the per-node caches in the evaluator
// and bit-blaster into true DAG-linear algorithms.
//
// The tables live on an Interner rather than in package globals, so every
// pipeline (one synthesis run, one verification, one corpus worker) owns its
// own tables: concurrent runs neither serialise on a shared lock nor evict
// each other's nodes at the soft cap, and dropping the Interner releases the
// whole DAG at once. Pointer equality is therefore a *per-interner*
// invariant: terms from the same Interner are pointer-equal iff structurally
// equal; terms from different Interners may be structurally equal without
// being pointer-equal — which is always safe, because every rewrite keyed on
// pointer equality (a == b, cond == True) only assumes the forward
// direction, pointer-equal ⇒ structurally equal.

// The table keys hold no string: a variable's name is mapped to a small id
// once (Interner.names), so a key is plain memory and a lookup hashes it
// without walking a name. The field widths leave no padding for the same
// reason.
type termKey struct {
	kind  uint16 // Kind
	width uint16
	name  uint32 // name id, for KVar
	val   uint64
	cond  *Bool
	a, b  *Term
}

type boolKey struct {
	kind uint16 // BKind
	val  uint16 // 1 for a true BConst
	name uint32 // name id, for BVar
	a, b *Bool
	x, y *Term
}

// DefaultSoftCap is the default per-interner table size at which the tables
// are cleared; see Interner.SetSoftCap.
const DefaultSoftCap = 1 << 21

// Interner owns the hash-cons tables of one pipeline. The zero value is not
// usable; call NewInterner. An Interner is safe for concurrent use by
// multiple goroutines (one pipeline may still fan work out internally), but
// the intended discipline is one Interner per concurrent run.
type Interner struct {
	mu      sync.Mutex
	termTab map[termKey]*Term
	boolTab map[boolKey]*Bool
	names   map[string]uint32 // variable name → key id; never cleared
	nameOf  []string          // key id → variable name
	// VarIDs's visited sets, kept across calls and cleared by each.
	varSeenB map[*Bool]bool
	varSeenT map[*Term]bool
	softCap  int
	clears   int64 // table clears at the soft cap; see Generation
	budget   *engine.Budget
	faults   *faultpoint.Registry
	nodes    int64

	// Rewrite-before-blast simplification memo (see simplify.go). Guarded by
	// simpMu, which is always acquired before mu (the simplifier calls the
	// constructors, which take mu), never the other way around.
	simpMu       sync.Mutex
	simpTermTab  map[*Term]*Term
	simpBoolTab  map[*Bool]*Bool
	simpOutBools map[*Bool]struct{}
	simpOutTerms map[*Term]struct{}
	simpCalls    int64
	// The guard pruner's per-call memo tables (see vn.go), kept across
	// calls so a prune allocates no tables; each call clears them.
	pruneBools   map[*Bool]*Bool
	pruneTerms   map[*Term]*Term
	simpNodesIn  int64
	simpNodesOut int64

	// Value-numbering switch and counters (see simplify.go, vn.go). The
	// switch is inverted so the zero value keeps value numbering ON; it must
	// be set before the interner is used (the simp memo tables cache results
	// computed under the mode in force, so flipping it mid-run would serve
	// stale rewrites). vnHits/iteFusions are guarded by simpMu like the
	// tables they instrument.
	vnOff      atomic.Bool
	vnHits     int64
	iteFusions int64
}

// NewInterner returns an empty interner with the default soft cap.
func NewInterner() *Interner {
	return &Interner{
		termTab: make(map[termKey]*Term),
		boolTab: make(map[boolKey]*Bool),
		names:   make(map[string]uint32),
		softCap: DefaultSoftCap,
	}
}

// SetSoftCap bounds each hash-cons table. When a table grows past the cap it
// is cleared, which only costs future sharing: nodes already handed out stay
// valid, and pointer equality still implies structural equality afterwards —
// the tables only deduplicate *future* constructions against each other.
// A cap <= 0 restores the default. Returns the interner for chaining.
func (in *Interner) SetSoftCap(cap int) *Interner {
	if cap <= 0 {
		cap = DefaultSoftCap
	}
	in.mu.Lock()
	in.softCap = cap
	in.mu.Unlock()
	return in
}

// SetBudget charges every newly interned node to b (b.Add(engine.Nodes, 1)),
// so a node-limited budget can stop a pipeline whose expression DAG grows
// without bound. A nil budget disables charging. Returns the interner for
// chaining.
func (in *Interner) SetBudget(b *engine.Budget) *Interner {
	in.mu.Lock()
	in.budget = b
	in.mu.Unlock()
	return in
}

// SetFaults arms the BVNodeExhaust injection site: each newly interned node
// consults the registry, and a firing fails the interner's budget as if the
// interned-node limit had tripped — the whole pipeline then unwinds through
// its ordinary budget-exhaustion paths. A nil registry (the default) costs
// one pointer comparison per new node and nothing on table hits. Returns the
// interner for chaining.
func (in *Interner) SetFaults(f *faultpoint.Registry) *Interner {
	in.mu.Lock()
	in.faults = f
	in.mu.Unlock()
	return in
}

// SetVN switches the value-numbering rewrite layer (memoized simplification
// hits, ite-aware fusion rules, guard-implication pruning) on or off. It is
// on by default; off restores the PR 6 rewrite set exactly, which is the
// baseline the -vn bench lane measures against. Call it before the interner
// is used — the simplification memo caches results computed under the mode
// in force. Returns the interner for chaining.
func (in *Interner) SetVN(on bool) *Interner {
	in.vnOff.Store(!on)
	return in
}

// VNEnabled reports whether the value-numbering layer is active.
func (in *Interner) VNEnabled() bool { return !in.vnOff.Load() }

// budgetNow returns the interner's current budget (nil-safe to use).
func (in *Interner) budgetNow() *engine.Budget {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.budget
}

// errInjectedNodeExhaustion is the cause recorded when BVNodeExhaust fires.
var errInjectedNodeExhaustion = errors.Join(
	errors.New("bv: interned-node limit"), faultpoint.ErrInjected)

// Nodes reports how many distinct nodes this interner has created (monotone;
// clearing the tables at the soft cap does not reset it).
func (in *Interner) Nodes() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nodes
}

// Generation counts the soft-cap clears of the hash-cons tables. While it is
// unchanged, every node the interner has handed out is still in its table,
// so rebuilding any of them interns nothing new; a caller that keeps built
// nodes in place of rebuilding them (cegis keeps per-counterexample
// interpreter states) must rebuild once the generation moves, or it would
// skip the node creations a rebuild performs.
func (in *Interner) Generation() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.clears
}

// nameID returns the key id of a variable name, assigning the next one on
// first use. The caller holds mu.
func (in *Interner) nameID(name string) uint32 {
	id, ok := in.names[name]
	if !ok {
		id = uint32(len(in.names))
		in.names[name] = id
		in.nameOf = append(in.nameOf, name)
	}
	return id
}

// intern returns the table's node equal to t, or a heap copy of t entered
// into the table. The node is passed by value so a table hit — the common
// case — allocates nothing; only a miss creates, counts and charges a node.
func (in *Interner) intern(t Term) *Term {
	k := termKey{kind: uint16(t.Kind), width: uint16(t.Width), val: t.Val, cond: t.Cond, a: t.A, b: t.B}
	in.mu.Lock()
	if t.Kind == KVar {
		k.name = in.nameID(t.Name)
	}
	if old, ok := in.termTab[k]; ok {
		in.mu.Unlock()
		return old
	}
	if len(in.termTab) >= in.softCap {
		in.termTab = make(map[termKey]*Term)
		in.clears++
	}
	n := new(Term)
	*n = t
	in.termTab[k] = n
	in.nodes++
	b, f := in.budget, in.faults
	in.mu.Unlock()
	b.Add(engine.Nodes, 1)
	if f.Fire(faultpoint.BVNodeExhaust) {
		b.Fail(errInjectedNodeExhaustion)
	}
	return n
}

// internBool is intern for formulas.
func (in *Interner) internBool(b Bool) *Bool {
	k := boolKey{kind: uint16(b.Kind), a: b.A, b: b.B, x: b.X, y: b.Y}
	if b.Val {
		k.val = 1
	}
	in.mu.Lock()
	if b.Kind == BVar {
		k.name = in.nameID(b.Name)
	}
	if old, ok := in.boolTab[k]; ok {
		in.mu.Unlock()
		return old
	}
	if len(in.boolTab) >= in.softCap {
		in.boolTab = make(map[boolKey]*Bool)
		in.clears++
	}
	n := new(Bool)
	*n = b
	in.boolTab[k] = n
	in.nodes++
	bud, f := in.budget, in.faults
	in.mu.Unlock()
	bud.Add(engine.Nodes, 1)
	if f.Fire(faultpoint.BVNodeExhaust) {
		bud.Fail(errInjectedNodeExhaustion)
	}
	return n
}
