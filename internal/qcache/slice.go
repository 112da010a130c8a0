package qcache

import (
	"slices"

	"stringloops/internal/bv"
)

// group is one independent slice of a query: conjuncts that transitively
// share variables, with their sorted ID set (the cache key material). Both
// slices live in the slicer's scratch and are valid only for the query.
type group struct {
	conj []*bv.Bool
	ids  []int
}

// slice partitions conj into variable-disjoint groups with a union-find over
// shared variable ids: two conjuncts land in one group iff they are
// connected through a chain of common variables. Variable-free conjuncts
// (possible only if they escaped constant folding) become singletons.
// Groups come in order of their first conjunct, and each keeps its
// conjuncts in query order. The result lives in scratch. Caller holds c.mu.
func (c *Cache) slice(conj []*bv.Bool) []group {
	s := &c.scratch
	n := len(conj)
	parent := resize(s.parent, n)
	s.parent = parent
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// owner maps a variable id to 1 + the first conjunct that mentions it
	// (0 = none yet); it is zeroed again once the unions are done.
	infos := resize(s.infos, n)
	s.infos = infos
	for i, cj := range conj {
		infos[i] = c.info(cj)
		for _, v := range infos[i].vars {
			if int(v) >= len(s.owner) {
				s.owner = append(s.owner, make([]int32, int(v)+1-len(s.owner))...)
			}
			if o := s.owner[v]; o != 0 {
				if ra, rb := find(i), find(int(o-1)); ra != rb {
					parent[ra] = rb
				}
			} else {
				s.owner[v] = int32(i + 1)
			}
		}
	}
	for _, ci := range infos {
		for _, v := range ci.vars {
			s.owner[v] = 0
		}
	}

	// Number the groups by first conjunct, then lay every group's conjuncts
	// and IDs out contiguously in one shared array each.
	member := resize(s.member, n) // root conjunct → 1 + group number
	s.member = member
	clear(member)
	ngroups := 0
	for i := range conj {
		r := find(i)
		if member[r] == 0 {
			ngroups++
			member[r] = ngroups
		}
	}
	off := resize(s.off, ngroups+1)
	s.off = off
	clear(off)
	for i := range conj {
		k := member[find(i)] - 1
		off[k+1]++
	}
	for k := 1; k <= ngroups; k++ {
		off[k] += off[k-1]
	}
	gconj := resize(s.groupConj, n)
	gids := resize(s.groupIDs, n)
	s.groupConj, s.groupIDs = gconj, gids
	groups := resize(s.groups, ngroups)
	s.groups = groups
	for k := range groups {
		groups[k] = group{conj: gconj[off[k]:off[k]:off[k+1]], ids: gids[off[k]:off[k]:off[k+1]]}
	}
	for i, cj := range conj {
		g := &groups[member[find(i)]-1]
		g.conj = append(g.conj, cj)
		g.ids = append(g.ids, infos[i].id)
	}
	for _, g := range groups {
		slices.Sort(g.ids)
	}
	return groups
}

// resize returns buf with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// groupVars returns the union of the group's tagged variable names ("t:x" /
// "b:p") — the variables of a model built for it. The slice lives in
// scratch. Caller holds c.mu.
func (c *Cache) groupVars(g group) []string {
	s := &c.scratch
	ids := s.vars[:0]
	for _, cj := range g.conj {
		ids = append(ids, c.info(cj).vars...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	s.vars = ids
	names := s.names[:0]
	for _, id := range ids {
		names = append(names, c.in.TaggedVarName(id))
	}
	s.names = names
	return names
}
