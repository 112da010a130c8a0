package qcache_test

import (
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/loopdb"
	"stringloops/internal/qcache"
	"stringloops/internal/symex"
)

// TestNormaliseMatchesOracleOnCorpusPaths holds the linear normaliser to
// the per-conjunct truth-map oracle on the queries symbolic execution
// really builds: the path conditions of enumerated and merged runs over the
// summarised corpus loops, each as every prefix of its conjunct list. An
// enumerated path's prefixes are exactly the feasibility queries issued
// along it; the string intrinsics' ite guards make pruning fire on them.
func TestNormaliseMatchesOracleOnCorpusPaths(t *testing.T) {
	var fusions [2]int64 // enumerated, merged
	queries := 0
	for _, l := range loopdb.Corpus() {
		if l.WantProgram == "" {
			continue
		}
		fusions[0] += normaliseCorpusPaths(t, l, false, &queries)
		fusions[1] += normaliseCorpusPaths(t, l, true, &queries)
	}
	t.Logf("%d queries, pruning fusions: %d enumerated, %d merged", queries, fusions[0], fusions[1])
	if fusions[0] == 0 || fusions[1] == 0 {
		t.Fatal("the path conditions of one mode reached no pruning rewrite")
	}
}

// normaliseCorpusPaths runs one loop on a symbolic string (length 4
// enumerated, 12 merged) and compares the normalisers on every prefix of
// every path condition, returning the oracle's pruning fusions.
func normaliseCorpusPaths(t *testing.T, l loopdb.Loop, merge bool, queries *int) int64 {
	t.Helper()
	n := 4
	if merge {
		n = 12
	}
	f, err := l.Lower()
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	in := bv.NewInterner()
	eng := &symex.Engine{
		Objects:          [][]*bv.Term{symex.SymbolicString(in, "s", n)},
		CheckFeasibility: true,
		Merge:            merge,
		In:               in,
		Cache:            qcache.New(in),
	}
	paths, err := eng.Run(f, []symex.Value{symex.PtrValue(0, in.Int32(0))}, bv.True)
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	var fusions int64
	for i, p := range paths {
		conj := bv.Conjuncts(nil, p.Cond)
		for k := 1; k <= len(conj); k++ {
			got, err := qcache.CompareNormalise(in, conj[:k])
			if err != nil {
				t.Fatalf("%s (merge %v): path %d, prefix %d: %v", l.Name, merge, i, k, err)
			}
			fusions += got
			*queries++
		}
	}
	return fusions
}
