package cegis

import (
	"errors"
	"fmt"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/strsolver"
	"stringloops/internal/vocab"
)

// trajectoryNodes is the per-loop interned-node limit of the benchmark's
// table3 workload: every miss below stops when its interner reaches it.
const trajectoryNodes = 5000

// trajectory is the pinned search of one corpus loop at the paper settings
// under a trajectoryNodes budget. The goldens were recorded before the
// search was made incremental; any change to which nodes get interned, or
// when, moves the stop point of a miss and so its Stats and node count.
type trajectory struct {
	loop  string
	found string // encoded program, "" for a miss
	stats Stats
	nodes int64 // budget node count when the search returned
}

var trajectories = []trajectory{
	// Misses, one per stop shape: each runs until the node limit trips.
	{"bash/skip_ifs", "", Stats{Skeletons: 774, CandidatesRun: 431, ArgSolverCalls: 273, VerifyQueries: 7, Counterexamples: 7}, 5089},
	{"git/mid1", "", Stats{Skeletons: 1302, CandidatesRun: 430, ArgSolverCalls: 800, VerifyQueries: 7, Counterexamples: 7}, 5011},
	{"git/run_first1", "", Stats{Skeletons: 1839, CandidatesRun: 665, ArgSolverCalls: 964, VerifyQueries: 6, Counterexamples: 6}, 5033},
	{"diff/skip_word", "", Stats{Skeletons: 1812, CandidatesRun: 665, ArgSolverCalls: 937, VerifyQueries: 6, Counterexamples: 6}, 5034},
	{"git/hex_pairs", "", Stats{Skeletons: 6113, CandidatesRun: 1844, ArgSolverCalls: 3915, VerifyQueries: 4, Counterexamples: 4}, 5006},
	// Hits: no arguments, a set, a reversed space, a guarded return, strrchr.
	{"bash/to_end", "EF", Stats{Skeletons: 5, CandidatesRun: 2, ArgSolverCalls: 0, VerifyQueries: 2, Counterexamples: 1}, 41},
	{"tar/break_nl_slash", "B\n/\x00F", Stats{Skeletons: 226, CandidatesRun: 99, ArgSolverCalls: 111, VerifyQueries: 5, Counterexamples: 4}, 838},
	{"git/trim_newlines", "VP\n\x00F", Stats{Skeletons: 671, CandidatesRun: 343, ArgSolverCalls: 252, VerifyQueries: 5, Counterexamples: 4}, 1371},
	{"bash/skip_ws_guarded", "ZFP\t \x00F", Stats{Skeletons: 8375, CandidatesRun: 352, ArgSolverCalls: 158, VerifyQueries: 5, Counterexamples: 4}, 1360},
	{"wget/last_dot", "R.F", Stats{Skeletons: 9, CandidatesRun: 6, ArgSolverCalls: 5, VerifyQueries: 4, Counterexamples: 3}, 353},
}

// corpusLoop returns the named loopdb corpus entry.
func corpusLoop(t testing.TB, name string) loopdb.Loop {
	t.Helper()
	for _, l := range loopdb.Corpus() {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("corpus has no loop %s", name)
	return loopdb.Loop{}
}

// searchUnderNodeLimit runs the paper-settings synthesis of one corpus loop
// under a fresh trajectoryNodes budget.
func searchUnderNodeLimit(t testing.TB, l loopdb.Loop) (Outcome, *engine.Budget, error) {
	t.Helper()
	f, err := l.Lower()
	if err != nil {
		t.Fatal(err)
	}
	b := engine.NewBudget(nil, engine.Limits{Nodes: trajectoryNodes})
	s, err := New(f, Options{MaxProgSize: 9, MaxSetLen: 3, MaxExSize: 3, Budget: b})
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	out, err := s.Synthesize()
	return out, b, err
}

func TestSearchTrajectoryPinned(t *testing.T) {
	for _, want := range trajectories {
		want := want
		t.Run(want.loop, func(t *testing.T) {
			t.Parallel()
			out, b, err := searchUnderNodeLimit(t, corpusLoop(t, want.loop))
			if want.found == "" {
				if !errors.Is(err, ErrTimeout) || out.Found {
					t.Fatalf("miss: found=%v err=%v, want the node limit to stop the search", out.Found, err)
				}
			} else if err != nil || !out.Found {
				t.Fatalf("hit: found=%v err=%v", out.Found, err)
			}
			if got := out.Program.Encode(); got != want.found {
				t.Errorf("program %q, want %q", got, want.found)
			}
			if out.Stats != want.stats {
				t.Errorf("stats %+v, want %+v", out.Stats, want.stats)
			}
			if got := b.Nodes(); got != want.nodes {
				t.Errorf("budget nodes %d, want %d", got, want.nodes)
			}
		})
	}
}

// BenchmarkCegisMiss runs three table3 misses to their node limit, the
// search the incremental argument solver speeds up. Profile it with
//
//	go test ./internal/cegis -run '^$' -bench CegisMiss -cpuprofile cpu.out
func BenchmarkCegisMiss(b *testing.B) {
	loops := []loopdb.Loop{corpusLoop(b, "bash/skip_ifs"), corpusLoop(b, "git/mid1"), corpusLoop(b, "git/hex_pairs")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if out, _, err := searchUnderNodeLimit(b, l); out.Found || !errors.Is(err, ErrTimeout) {
				b.Fatalf("%s: found=%v err=%v, want a miss", l.Name, out.Found, err)
			}
		}
	}
}

// TestCexStateRebuildsAfterSoftCapClear checks that a counterexample's kept
// interpreter states are dropped once the interner clears its tables: a
// resumed run must then intern what a whole run interns, not hand back
// nodes the tables no longer hold.
func TestCexStateRebuildsAfterSoftCapClear(t *testing.T) {
	in := bv.NewInterner().SetSoftCap(1000)
	skel := []shape{{op: vocab.OpStrspn, argLen: 2}, {op: vocab.OpStrchr, argLen: 1}, {op: vocab.OpReturn}}
	prog, _ := symbolizeSkeleton(in, skel)
	cex := cexState{buf: []byte("a b\x00")}
	whole := func() []vocab.SymOutcome {
		t.Helper()
		s, err := strsolver.FromConcrete(in, cex.buf)
		if err != nil {
			t.Fatal(err)
		}
		return vocab.RunSymbolic(prog, s)
	}
	check := func(what string) {
		t.Helper()
		got, err := cex.outcomes(in, skel, prog)
		if err != nil {
			t.Fatal(err)
		}
		nodes := in.Nodes()
		want := whole()
		if in.Nodes() != nodes {
			t.Fatalf("%s: a whole run interned %d nodes the resumed run did not", what, in.Nodes()-nodes)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d outcomes, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: outcome %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	check("first run")
	check("resumed run")

	gen := in.Generation()
	for i := 0; in.Generation() == gen; i++ {
		in.Var(fmt.Sprintf("fill%d", i), 8)
	}
	// The clear left the argument variables out of the table; rebuilding
	// the skeleton's program interns them again, as a new skeleton would.
	prog, _ = symbolizeSkeleton(in, skel)
	check("run after a clear")
}
