package qcache

import "stringloops/internal/bv"

// Query normalisation turns a query's formulas into the conjunct list the
// slicer and the reuse rules key on. It runs on every query, hits included,
// so it is linear in the query's conjuncts and their memoized probes, and
// allocates only for conjuncts it has not seen before once the scratch
// below has grown to the query's size:
//
//  1. Each formula is simplified through the value-numbering layer
//     (memoized on the interner, so the shared prefix of an incremental
//     query stream pays once), BAnd trees are flattened, True is dropped and
//     pointer duplicates are removed. Simplification is equivalence-
//     preserving over the whole conjunction, so the cache keys and models —
//     built from the simplified conjuncts — answer the original query: a
//     variable simplified away is a don't-care, and the evaluator's
//     zero-fill convention extends any returned model to it.
//  2. Guard-implication pruning rewrites each conjunct, in order, under the
//     assumption that the current versions of the others hold (see prune).
//     Pruning can mint constants and fresh conjunctions, so the list is
//     re-flattened and re-deduped after it.

// scratch is the per-query working storage of normalisation and slicing.
// It lives on the Cache under mu and is reset, never reallocated, between
// queries; nothing in it survives the query that filled it.
type scratch struct {
	conj, flat []*bv.Bool
	seen       map[*bv.Bool]struct{} // dedupe's set, and probesOf's
	// truthN is the multiset of truth-map keys the whole conjunct list sets
	// (see prune); truth is the exact map of one conjunct's prune.
	truthN map[*bv.Bool]int32
	truth  map[*bv.Bool]bool
	probes []*bv.Bool

	// Slicing (slice.go).
	parent, member, off []int
	owner               []int32 // var id → 1 + index of its first conjunct
	groups              []group
	groupConj           []*bv.Bool
	groupIDs            []int
	infos               []conjInfo
	vars                []uint32
	names               []string
	key                 []byte

	// Canonical serialization (canon.go).
	canon canonWriter
}

// normalise returns the query's conjunct list, or unsat=true when a conjunct
// is False. The list lives in scratch. Caller holds c.mu.
func (c *Cache) normalise(formulas []*bv.Bool) (conj []*bv.Bool, unsat bool) {
	vn := c.in.VNEnabled()
	conj = c.scratch.conj[:0]
	for _, f := range formulas {
		if vn {
			f = c.in.SimplifyBool(f)
		}
		conj = bv.Conjuncts(conj, f)
	}
	c.scratch.conj = conj
	conj, unsat = c.dedupe(conj)
	if unsat || !vn || len(conj) < 2 || len(conj) > maxPruneConjuncts {
		return conj, unsat
	}
	c.prune(conj)
	flat := c.scratch.flat[:0]
	for _, cj := range conj {
		flat = bv.Conjuncts(flat, cj)
	}
	c.scratch.flat = flat
	return c.dedupe(flat)
}

// dedupe drops True and pointer-duplicate conjuncts in place, reporting
// unsat=true when a False conjunct makes the whole query trivially unsat.
// Caller holds c.mu.
func (c *Cache) dedupe(conj []*bv.Bool) (out []*bv.Bool, unsat bool) {
	seen := c.scratch.seen
	if seen == nil {
		seen = map[*bv.Bool]struct{}{}
		c.scratch.seen = seen
	}
	clear(seen)
	kept := conj[:0]
	for _, cj := range conj {
		if _, dup := seen[cj]; dup || cj == bv.True {
			continue
		}
		if cj == bv.False {
			return nil, true
		}
		seen[cj] = struct{}{}
		kept = append(kept, cj)
	}
	return kept, false
}

// prune rewrites conj in place: conjunct i becomes
// PruneUnder(conj[i], truth_i), where truth_i maps every other conjunct's
// current version to true and, for a negation ¬a, a to false, assigned in
// list order so a later entry overwrites an earlier one. The passes run in
// order, each equivalence-preserving for the whole conjunction, so the
// composition is too.
//
// Building truth_i costs O(n), and most conjuncts have no guard another
// conjunct decides. So truth_i is built, and PruneUnder called, only when
// one of the nodes a walk of conj[i] would look up (its probes) is a key of
// truth_i. Key membership comes from the multiset truthN of the keys all
// conjuncts set, minus conj[i]'s own; it is updated when a conjunct is
// rewritten. A conjunct with no probe in truth_i is left as it is, which is
// exactly what PruneUnder would return: a walk in which every lookup misses
// rewrites nothing and counts nothing. Caller holds c.mu.
func (c *Cache) prune(conj []*bv.Bool) {
	if c.scratch.truthN == nil {
		c.scratch.truthN = map[*bv.Bool]int32{}
		c.scratch.truth = map[*bv.Bool]bool{}
	}
	truthN, truth := c.scratch.truthN, c.scratch.truth
	clear(truthN)
	for _, cj := range conj {
		countTruth(truthN, cj, 1)
	}
	for i, cj := range conj {
		if !c.guardCanFire(cj) {
			continue
		}
		clear(truth)
		for j, o := range conj {
			if j == i {
				continue
			}
			truth[o] = true
			if o.Kind == bv.BNot {
				truth[o.A] = false
			}
		}
		if r := c.in.PruneUnder(cj, truth); r != cj {
			countTruth(truthN, cj, -1)
			countTruth(truthN, r, 1)
			conj[i] = r
		}
	}
}

// countTruth adds d to the multiplicity of each truth-map key cj sets.
func countTruth(truthN map[*bv.Bool]int32, cj *bv.Bool, d int32) {
	truthN[cj] += d
	if cj.Kind == bv.BNot {
		truthN[cj.A] += d
	}
}

// guardCanFire reports whether some probe of cj is a truth-map key set by a
// conjunct other than cj. Caller holds c.mu.
func (c *Cache) guardCanFire(cj *bv.Bool) bool {
	truthN := c.scratch.truthN
	for _, p := range c.probesOf(cj) {
		n := truthN[p]
		if p == cj {
			n--
		}
		if cj.Kind == bv.BNot && p == cj.A {
			n--
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// probesOf memoizes the deduped PruneProbes of a conjunct, resetting the
// memo wholesale at the exact map's cap. Caller holds c.mu.
func (c *Cache) probesOf(cj *bv.Bool) []*bv.Bool {
	if ps, ok := c.probes[cj]; ok {
		return ps
	}
	raw := c.in.PruneProbes(c.scratch.probes[:0], cj)
	c.scratch.probes = raw
	seen := c.scratch.seen
	clear(seen)
	ps := make([]*bv.Bool, 0, len(raw))
	for _, p := range raw {
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			ps = append(ps, p)
		}
	}
	if len(c.probes) >= maxExact {
		c.probes = map[*bv.Bool][]*bv.Bool{}
	}
	c.probes[cj] = ps
	return ps
}
