package kleebench

import (
	"context"
	"testing"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/qcache"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

const wsLoop = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

func lower(t *testing.T, src string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestVanillaPathGrowth(t *testing.T) {
	f := lower(t, wsLoop)
	m4 := Vanilla(f, 4, 30*time.Second)
	m8 := Vanilla(f, 8, 30*time.Second)
	if m4.TimedOut || m8.TimedOut {
		t.Fatal("small lengths must not time out")
	}
	if m8.Paths <= m4.Paths {
		t.Fatalf("vanilla paths must grow with length: %d then %d", m4.Paths, m8.Paths)
	}
	if m8.SolverQueries <= m4.SolverQueries {
		t.Fatal("solver queries must grow with length")
	}
	if m4.Tests == 0 {
		t.Fatal("vanilla should produce tests")
	}
}

func TestStrStaysFlat(t *testing.T) {
	prog, err := vocab.Decode("ZFP \t\x00F")
	if err != nil {
		t.Fatal(err)
	}
	m4 := Str(prog, 4, 30*time.Second)
	m12 := Str(prog, 12, 30*time.Second)
	if m4.TimedOut || m12.TimedOut {
		t.Fatal("str must not time out")
	}
	// Outcomes grow linearly (one per span length), far from exponentially.
	if m12.Paths > 4*m4.Paths {
		t.Fatalf("str outcomes should grow slowly: %d then %d", m4.Paths, m12.Paths)
	}
	if m12.Tests == 0 {
		t.Fatal("str should produce tests")
	}
}

func TestSpeedupAtModerateLength(t *testing.T) {
	// The §4.3 headline: at moderate symbolic lengths the summary is much
	// faster than forking through the loop.
	f := lower(t, wsLoop)
	prog, _ := vocab.Decode("ZFP \t\x00F")
	n := 8
	v := Vanilla(f, n, time.Minute)
	s := Str(prog, n, time.Minute)
	sp := Speedup(v, s)
	if sp < 2 {
		t.Fatalf("speedup at n=%d is %.1fx; expected the summary to win clearly (vanilla %v, str %v)",
			n, sp, v.Time, s.Time)
	}
	// Both must cover the same set of behaviours (same test count): the
	// loop's distinct return offsets 0..n plus NULL.
	if v.Tests == 0 || s.Tests == 0 {
		t.Fatal("both modes must generate tests")
	}
}

func TestVanillaTimeout(t *testing.T) {
	f := lower(t, wsLoop)
	m := Vanilla(f, 16, 10*time.Millisecond)
	if !m.TimedOut {
		t.Skip("machine too fast for a 10ms timeout at n=16")
	}
}

// TestVanillaReportsRunErrors: a run symbolic execution cannot complete —
// here, a loop taking two arguments given one — must say so instead of
// passing for a complete run over no paths.
func TestVanillaReportsRunErrors(t *testing.T) {
	f := lower(t, `
char* loopFunction(char* s, int n) {
  while (*s && n > 0) { s++; n--; }
  return s;
}`)
	m := Vanilla(f, 4, 30*time.Second)
	if m.Err == nil {
		t.Fatalf("two-parameter loop gave no error: %+v", m)
	}
	if m.Tests != 0 || m.TimedOut {
		t.Fatalf("failed run reported tests=%d timedOut=%v, want 0 and false", m.Tests, m.TimedOut)
	}
}

// TestSimplifyAccountingAgrees: after a merged, cache-backed run (which
// prunes guards), the budget's simplifier-call count matches the
// interner's: a prune charges its fusions, not a top-level call.
func TestSimplifyAccountingAgrees(t *testing.T) {
	var f *cir.Func
	for _, l := range loopdb.Corpus() {
		if l.Name == "git/skip_seps1" {
			var err error
			if f, err = l.Lower(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f == nil {
		t.Fatal("corpus loop git/skip_seps1 not found")
	}
	budget := engine.NewBudget(context.Background(), engine.Limits{})
	in := bv.NewInterner().SetBudget(budget)
	eng := &symex.Engine{
		Objects:          [][]*bv.Term{symex.SymbolicString(in, "s", 12)},
		CheckFeasibility: true,
		Merge:            true,
		In:               in,
		Budget:           budget,
		Cache:            qcache.New(in),
	}
	if _, err := eng.Run(f, []symex.Value{symex.PtrValue(0, in.Int32(0))}, bv.True); err != nil {
		t.Fatal(err)
	}
	st := in.SimplifyStats()
	if st.Fusions == 0 {
		t.Fatal("merged run counted no ite fusions")
	}
	if budget.SimplifyCalls() != st.Calls || budget.IteFusions() != st.Fusions {
		t.Fatalf("budget calls=%d fusions=%d, interner %+v",
			budget.SimplifyCalls(), budget.IteFusions(), st)
	}
}

// BenchmarkVanillaFeasibility runs vanilla.KLEE, enumerated at length 6 and
// merged at length 16, over a few summarised corpus loops: the feasibility
// query stream of the symex workload, for profiling without the end-to-end
// benchmark.
func BenchmarkVanillaFeasibility(b *testing.B) {
	var loops []*cir.Func
	for _, l := range loopdb.Corpus() {
		if l.WantProgram == "" {
			continue
		}
		if len(loops) == 8 {
			break
		}
		f, err := l.Lower()
		if err != nil {
			b.Fatal(err)
		}
		loops = append(loops, f)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, f := range loops {
			for _, m := range []Measurement{
				VanillaWith(f, 6, time.Minute, Config{QCache: true}),
				VanillaWith(f, 16, time.Minute, Config{QCache: true, Merge: true}),
			} {
				if m.TimedOut || m.Err != nil {
					b.Fatalf("run stopped early: %+v", m)
				}
			}
		}
	}
}
