package qcache

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/sat"
)

// oracleNormalise is the query normalisation as it was before the linear
// one: a fresh truth map of the n−1 other conjuncts is built for every
// conjunct and handed to PruneUnder. The linear normaliser must match it
// pointer for pointer.
func oracleNormalise(in *bv.Interner, formulas []*bv.Bool) ([]*bv.Bool, bool) {
	dedupe := func(conj []*bv.Bool) ([]*bv.Bool, bool) {
		seen := make(map[*bv.Bool]bool, len(conj))
		kept := conj[:0]
		for _, cj := range conj {
			if cj == bv.True || seen[cj] {
				continue
			}
			if cj == bv.False {
				return nil, true
			}
			seen[cj] = true
			kept = append(kept, cj)
		}
		return kept, false
	}
	vn := in.VNEnabled()
	var conj []*bv.Bool
	for _, f := range formulas {
		if vn {
			f = in.SimplifyBool(f)
		}
		conj = bv.Conjuncts(conj, f)
	}
	conj, unsat := dedupe(conj)
	if unsat {
		return nil, true
	}
	if vn && len(conj) > 1 && len(conj) <= maxPruneConjuncts {
		for i := range conj {
			truth := make(map[*bv.Bool]bool, 2*(len(conj)-1))
			for j, cj := range conj {
				if j == i {
					continue
				}
				truth[cj] = true
				if cj.Kind == bv.BNot {
					truth[cj.A] = false
				}
			}
			conj[i] = in.PruneUnder(conj[i], truth)
		}
		flat := make([]*bv.Bool, 0, len(conj))
		for _, cj := range conj {
			flat = bv.Conjuncts(flat, cj)
		}
		return dedupe(flat)
	}
	return conj, false
}

// compareNormalise normalises formulas through a fresh cache and through the
// oracle on the same interner, and reports the first difference: the
// conjunct lists must be pointer-identical and the pruning must count the
// same fusions. It returns the fusions the oracle's pruning counted.
func compareNormalise(in *bv.Interner, formulas []*bv.Bool) (int64, error) {
	// Warm the simplifier memo so that both runs count only their pruning.
	for _, f := range formulas {
		in.SimplifyBool(f)
	}
	f0 := in.SimplifyStats().Fusions
	want, wantUnsat := oracleNormalise(in, formulas)
	f1 := in.SimplifyStats().Fusions
	c := New(in)
	c.mu.Lock()
	got, gotUnsat := c.normalise(formulas)
	got = slices.Clone(got)
	c.mu.Unlock()
	f2 := in.SimplifyStats().Fusions
	switch {
	case gotUnsat != wantUnsat:
		return 0, fmt.Errorf("unsat = %v, oracle %v", gotUnsat, wantUnsat)
	case !slices.Equal(got, want):
		return 0, fmt.Errorf("conjuncts differ from the oracle's:\n got  %v\n want %v", got, want)
	case f2-f1 != f1-f0:
		return 0, fmt.Errorf("pruning counted %d fusions, oracle %d", f2-f1, f1-f0)
	}
	return f1 - f0, nil
}

// genConjuncts decodes a byte string into a conjunct set shaped to reach
// every branch of the pruning: guards and their negations side by side
// (x with ¬x, in either order), ite-muxed comparisons whose guards other
// conjuncts decide, conjuncts that prune to True or to False, disjunctions
// and conjunctions over guards, and duplicates.
func genConjuncts(in *bv.Interner, data []byte) []*bv.Bool {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	terms := []*bv.Term{in.Var("a", 8), in.Var("b", 8), in.Var("c", 8), in.Byte(3), in.Byte(200)}
	term := func() *bv.Term { return terms[next()%len(terms)] }
	guards := []*bv.Bool{
		in.Ult(terms[0], in.Byte(10)),
		in.Eq(terms[1], in.Byte(7)),
		in.BoolVar("p"),
		in.Ult(terms[2], terms[0]),
	}
	guard := func() *bv.Bool {
		g := guards[next()%len(guards)]
		if next()%3 == 0 {
			return in.BNot1(g)
		}
		return g
	}
	var out []*bv.Bool
	n := 1 + next()%10
	for len(out) < n {
		var f *bv.Bool
		switch op := next() % 9; op {
		case 0, 1:
			f = guard()
		case 2:
			// Prunes to True under g: ite(g, x, y) = x.
			x, y := term(), term()
			f = in.Eq(in.Ite(guard(), x, y), x)
		case 3:
			// Prunes to False under g: ite(g, x, y) < x.
			x, y := term(), term()
			f = in.Ult(in.Ite(guard(), x, y), x)
		case 4:
			// A merged comparison whose guard another conjunct may decide.
			g := guard()
			f = in.Eq(in.Add(in.Ite(g, term(), term()), term()), in.Ite(guard(), term(), term()))
		case 5:
			f = in.BOr2(guard(), in.Ule(term(), term()))
		case 6:
			f = in.BAnd2(guard(), in.Eq(term(), term()))
		case 7:
			if len(out) > 0 {
				// A duplicate or the negation of an earlier conjunct.
				f = out[next()%len(out)]
				if next()%2 == 0 {
					f = in.BNot1(f)
				}
			} else {
				f = guard()
			}
		default:
			f = in.Ult(term(), in.Ite(guard(), in.Ite(guard(), term(), term()), term()))
		}
		out = append(out, f)
	}
	return out
}

// TestNormaliseMatchesOracleRandom runs the linear normaliser against the
// per-conjunct truth-map oracle over random conjunct sets, and checks the
// sets reach pruning that fires.
func TestNormaliseMatchesOracleRandom(t *testing.T) {
	var fusions int64
	for seed := 0; seed < 2000; seed++ {
		data := make([]byte, 48)
		x := uint32(seed)*2654435761 + 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		in := bv.NewInterner()
		n, err := compareNormalise(in, genConjuncts(in, data))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fusions += n
	}
	if fusions == 0 {
		t.Fatal("no random conjunct set reached a pruning rewrite")
	}
}

func FuzzNormalise(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 7, 0})
	f.Add([]byte{5, 2, 1, 0, 0, 1, 0, 0, 0, 7, 0, 0, 3, 0, 1, 1})
	f.Add([]byte{9, 4, 0, 0, 1, 2, 1, 1, 3, 2, 8, 1, 2, 0, 7, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bv.NewInterner()
		if _, err := compareNormalise(in, genConjuncts(in, data)); err != nil {
			t.Fatal(err)
		}
	})
}

// cacheState is the part of a cache that its decisions build: every
// counter but the timings, the exact map, the model list and the unsat
// cores.
type cacheState struct {
	stats  Stats
	exact  map[string]exactEntry
	models []*bv.Assignment
	cores  [][]int
}

func stateOf(c *Cache) cacheState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := cacheState{stats: c.stats, exact: maps.Clone(c.exact), cores: slices.Clone(c.unsatCores)}
	s.stats.BlastTime, s.stats.SearchTime = 0, 0
	for _, m := range c.models {
		s.models = append(s.models, m.asn)
	}
	return s
}

// TestStatusAndCheckSatLockstep feeds one query stream to two caches, one
// through Status and one through CheckSat: skipping the caller's model must
// not change a single cache decision or the state they leave behind.
func TestStatusAndCheckSatLockstep(t *testing.T) {
	in := bv.NewInterner()
	status, full := New(in), New(in)
	var queries [][]*bv.Bool
	for q := 0; q < 3; q++ {
		queries = append(queries, buildQueries(in, int64(q), 120)...)
	}
	for seed := 0; seed < 300; seed++ {
		queries = append(queries, genConjuncts(in, []byte(fmt.Sprintf("%08d-%x", seed, seed*seed))))
	}
	// Repeat the stream so exact hits, including first hits on unspread
	// entries, occur.
	queries = append(queries, queries...)
	for i, q := range queries {
		st := status.Status(nil, 0, q...)
		want, _ := full.CheckSat(nil, 0, q...)
		if st != want {
			t.Fatalf("query %d: Status = %v, CheckSat = %v", i, st, want)
		}
	}
	got, want := stateOf(status), stateOf(full)
	if got.stats.ExactHits == 0 || got.stats.ModelHits == 0 || got.stats.Misses == 0 {
		t.Fatalf("stream did not reach every rule: %+v", got.stats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("caches diverged:\n Status   %+v\n CheckSat %+v", got.stats, want.stats)
	}
}

// TestStatusExactHitAllocatesNothing pins the allocation count of a warmed
// exact-hit Status query: normalisation, slicing and the group-key probe
// all run on reused scratch.
func TestStatusExactHitAllocatesNothing(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	a, b := in.Var("a", 8), in.Var("b", 8)
	g := in.Ult(a, in.Byte(10))
	fs := []*bv.Bool{
		g,
		in.Eq(in.Ite(g, b, in.Byte(1)), in.Byte(5)), // pruned under g
		in.Ult(b, in.Byte(100)),
		in.Eq(in.Var("c", 8), in.Byte(2)), // its own group
	}
	for i := 0; i < 3; i++ {
		if st := c.Status(nil, 0, fs...); st != sat.Sat {
			t.Fatalf("query = %v", st)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { c.Status(nil, 0, fs...) }); allocs != 0 {
		t.Fatalf("warmed exact-hit Status query allocates %v times, want 0", allocs)
	}
}
