package bv

// Guard-implication pruning. A query's path condition is a conjunction, and
// the ite terms state merging mints frequently embed one of the other
// conjuncts (or its negation) as a guard: once the qcache layer has split
// the query into conjuncts, each conjunct may be rewritten under the
// assumption that all the *other* conjuncts hold. PruneUnder performs one
// such rewrite: every boolean subnode found in the truth map is replaced by
// its known constant, and every ite whose guard is in the map collapses to
// the implied arm.
//
// Soundness is the one-at-a-time argument: for a conjunction R ∧ c, any
// model of R makes every entry of a truth map derived from R correct, so
// rewriting c to c' under the map preserves R ∧ c ≡ R ∧ c'. The qcache
// layer applies this sequentially — conjunct i is pruned under the current
// versions of the others — so each step is an instance of the theorem and
// the composition is equivalence-preserving. (A simultaneous substitution
// of all conjuncts into each other is not obviously sound — two conjuncts
// could each be rewritten to true using the other — which is why the
// caller sequences the passes.)
//
// Substitution is by subnode identity (hash-consing makes structural
// containment pointer containment per interner), and the rewrite rebuilds
// through the smart constructors so local folds fire on the pruned shape.
// The memos cannot outlive a call — the result depends on the truth map —
// so each call clears the interner's two pruner tables and walks its
// conjunct fresh. That walk is depth-capped: the guards another conjunct
// can decide are minted by state merging near the conjunct root (the new
// branch condition over merged ite values), while the deep interior is the
// accumulated path condition that a fresh walk per query would re-traverse
// quadratically over a run. Nodes below the cap are kept unchanged, which
// is sound — every pruning rewrite is optional.
//
// A walk whose truth lookups all miss rewrites nothing and returns its
// input. PruneProbes lists the nodes such a walk looks up, so a caller that
// knows none of them is in its truth map can skip the call: the result
// would be the input, and nothing would be counted.

import "stringloops/internal/engine"

// PruneUnder rewrites f under the assumption that every key of truth has
// its mapped boolean value. Collapsed ite branches and replaced guards are
// counted as ite fusions and charged to the interner budget; a prune is not
// a top-level simplifier call and is not counted as one. When value
// numbering is off (or the map is empty) f is returned unchanged.
func (in *Interner) PruneUnder(f *Bool, truth map[*Bool]bool) *Bool {
	if in == nil || f == nil || len(truth) == 0 || !in.VNEnabled() {
		return f
	}
	in.simpMu.Lock()
	f0 := in.iteFusions
	p := in.newPruner(truth, false)
	r := p.boolNode(f, maxPruneDepth)
	df := in.iteFusions - f0
	in.simpMu.Unlock()
	in.budgetNow().Add(engine.IteFusions, df)
	return r
}

// PruneProbes appends to dst every boolean node a PruneUnder walk of f
// looks up in its truth map when no lookup hits, possibly more than once.
// If no appended node is a key of truth, PruneUnder(f, truth) returns f and
// counts nothing.
func (in *Interner) PruneProbes(dst []*Bool, f *Bool) []*Bool {
	in.simpMu.Lock()
	defer in.simpMu.Unlock()
	p := in.newPruner(nil, true)
	p.probes = dst
	p.boolNode(f, maxPruneDepth)
	return p.probes
}

// maxPruneDepth bounds how far below the conjunct root a PruneUnder walk
// rewrites. The truth-map check on the root of a skipped subtree is still
// O(1), so a decided guard at the cap boundary is caught; only rewrites
// strictly below it are forgone.
const maxPruneDepth = 8

type pruner struct {
	in    *Interner
	truth map[*Bool]bool
	bools map[*Bool]*Bool
	terms map[*Term]*Term
	// record makes every truth lookup append its node to probes.
	record bool
	probes []*Bool
}

// newPruner readies the interner's pruner memo tables for one walk. Caller
// holds simpMu.
func (in *Interner) newPruner(truth map[*Bool]bool, record bool) pruner {
	if in.pruneBools == nil {
		in.pruneBools = map[*Bool]*Bool{}
		in.pruneTerms = map[*Term]*Term{}
	}
	clear(in.pruneBools)
	clear(in.pruneTerms)
	return pruner{in: in, truth: truth, bools: in.pruneBools, terms: in.pruneTerms, record: record}
}

// lookup consults the truth map (a nil map misses every lookup).
func (p *pruner) lookup(b *Bool) (v, ok bool) {
	if p.record {
		p.probes = append(p.probes, b)
	}
	v, ok = p.truth[b]
	return v, ok
}

func (p *pruner) boolNode(b *Bool, depth int) *Bool {
	if v, ok := p.lookup(b); ok {
		p.in.iteFusions++
		if v {
			return True
		}
		return False
	}
	if depth <= 0 {
		return b
	}
	if r, ok := p.bools[b]; ok {
		return r
	}
	d := depth - 1
	// Unchanged children short-circuit to the original node — the common
	// case by far — so the interning constructors only run where a rewrite
	// actually fired below.
	var r *Bool
	switch b.Kind {
	case BConst, BVar:
		r = b
	case BNot:
		if x := p.boolNode(b.A, d); x != b.A {
			r = p.in.BNot1(x)
		} else {
			r = b
		}
	case BAnd:
		if x, y := p.boolNode(b.A, d), p.boolNode(b.B, d); x != b.A || y != b.B {
			r = p.in.BAnd2(x, y)
		} else {
			r = b
		}
	case BOr:
		if x, y := p.boolNode(b.A, d), p.boolNode(b.B, d); x != b.A || y != b.B {
			r = p.in.BOr2(x, y)
		} else {
			r = b
		}
	case BEq:
		if x, y := p.termNode(b.X, d), p.termNode(b.Y, d); x != b.X || y != b.Y {
			r = p.in.Eq(x, y)
		} else {
			r = b
		}
	case BUlt:
		if x, y := p.termNode(b.X, d), p.termNode(b.Y, d); x != b.X || y != b.Y {
			r = p.in.Ult(x, y)
		} else {
			r = b
		}
	case BUle:
		if x, y := p.termNode(b.X, d), p.termNode(b.Y, d); x != b.X || y != b.Y {
			r = p.in.Ule(x, y)
		} else {
			r = b
		}
	default:
		r = b
	}
	p.bools[b] = r
	return r
}

func (p *pruner) termNode(t *Term, depth int) *Term {
	if depth <= 0 {
		return t
	}
	if r, ok := p.terms[t]; ok {
		return r
	}
	d := depth - 1
	var r *Term
	switch t.Kind {
	case KConst, KVar:
		r = t
	case KIte:
		// A guard the enclosing condition decides collapses the ite to the
		// implied arm (the pruned guard may also be a strict subformula of
		// the guard, which the boolNode walk below handles).
		if v, ok := p.lookup(t.Cond); ok {
			p.in.iteFusions++
			if v {
				r = p.termNode(t.A, d)
			} else {
				r = p.termNode(t.B, d)
			}
		} else if c, a, b := p.boolNode(t.Cond, d), p.termNode(t.A, d), p.termNode(t.B, d); c != t.Cond || a != t.A || b != t.B {
			r = p.in.Ite(c, a, b)
		} else {
			r = t
		}
	case KNot:
		r = p.rebuild1(t, d, p.in.Not)
	case KAnd:
		r = p.rebuild2(t, d, p.in.And)
	case KOr:
		r = p.rebuild2(t, d, p.in.Or)
	case KXor:
		r = p.rebuild2(t, d, p.in.Xor)
	case KAdd:
		r = p.rebuild2(t, d, p.in.Add)
	case KSub:
		r = p.rebuild2(t, d, p.in.Sub)
	case KZext:
		if x := p.termNode(t.A, d); x != t.A {
			r = p.in.Zext(x, t.Width)
		} else {
			r = t
		}
	case KShlC:
		r = p.rebuildShift(t, d, p.in.ShlC)
	case KLshrC:
		r = p.rebuildShift(t, d, p.in.LshrC)
	case KAshrC:
		r = p.rebuildShift(t, d, p.in.AshrC)
	default:
		r = t
	}
	p.terms[t] = r
	return r
}

// rebuild1, rebuild2 and rebuildShift apply a unary, binary or const-shift
// constructor only when a child actually changed, keeping the untouched
// (overwhelmingly common) case allocation- and intern-free.
func (p *pruner) rebuild1(t *Term, d int, op func(*Term) *Term) *Term {
	if x := p.termNode(t.A, d); x != t.A {
		return op(x)
	}
	return t
}

func (p *pruner) rebuild2(t *Term, d int, op func(*Term, *Term) *Term) *Term {
	if x, y := p.termNode(t.A, d), p.termNode(t.B, d); x != t.A || y != t.B {
		return op(x, y)
	}
	return t
}

func (p *pruner) rebuildShift(t *Term, d int, op func(*Term, int) *Term) *Term {
	if x := p.termNode(t.A, d); x != t.A {
		return op(x, int(t.Val))
	}
	return t
}
