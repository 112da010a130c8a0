// Benchmarks regenerating the paper's evaluation, one per table and figure
// (plus the design ablations of DESIGN.md §5). Absolute times are this
// implementation's, not the paper's KLEE+Z3 testbed; EXPERIMENTS.md records
// the shape comparison. Full-scale reproductions are the cmd/ tools; these
// benches exercise the same code paths at benchmark-friendly sizes.
package stringloops_test

import (
	"testing"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/cc"
	"stringloops/internal/cegis"
	"stringloops/internal/cir"
	"stringloops/internal/gp"
	"stringloops/internal/harness"
	"stringloops/internal/kleebench"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/nativeopt"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/vocab"
)

const figure1Loop = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

func lowerBench(b *testing.B, src string) *cir.Func {
	b.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkTable2Filters runs the automatic filter pipeline (§4.1.1) over
// one program's generated population — one Table 2 row per iteration.
func BenchmarkTable2Filters(b *testing.B) {
	loops := loopdb.ByProgram(loopdb.Population(), "grep")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var funcs []*cir.Func
		for _, l := range loops {
			f, err := l.Lower()
			if err != nil {
				b.Fatal(err)
			}
			cir.Mem2Reg(f)
			funcs = append(funcs, f)
		}
		_, counts := cir.ClassifyLoops(funcs)
		if counts.MultiReads != loopdb.Table2["grep"].MultiReads {
			b.Fatalf("grep candidates = %d", counts.MultiReads)
		}
	}
}

// BenchmarkTable3Synthesis synthesises a cross-section of the corpus with
// the full vocabulary — the Table 3 workload in miniature.
func BenchmarkTable3Synthesis(b *testing.B) {
	names := map[string]bool{
		"bash/skip_ws_guarded": true, // Figure 1: ZFP..F
		"ssh/find_comma":       true, // N,F
		"wget/find_frag":       true, // C#F
		"git/skip_digits":      true, // P<meta>F
		"tar/to_end":           true, // EF
	}
	var loops []loopdb.Loop
	for _, l := range loopdb.Corpus() {
		if names[l.Name] {
			loops = append(loops, l)
		}
	}
	if len(loops) != len(names) {
		b.Fatalf("found %d of %d named corpus loops", len(loops), len(names))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := harness.SynthesizeCorpus(loops, cegis.Options{Timeout: time.Minute}, nil, 1, nil)
		for _, r := range records {
			if !r.Found {
				b.Fatalf("%s: not synthesised", r.Loop.Name)
			}
		}
	}
}

// BenchmarkFigure2Deepening measures the iterative-deepening search reaching
// a size-7 program (the Figure 2 x-axis sweep).
func BenchmarkFigure2Deepening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := lowerBench(b, figure1Loop)
		b.StartTimer()
		out, err := cegis.Synthesize(f, cegis.Options{Timeout: time.Minute})
		if err != nil || !out.Found || out.Program.EncodedSize() != 7 {
			b.Fatalf("out=%+v err=%v", out, err)
		}
	}
}

// BenchmarkTable4VocabOpt runs the Gaussian-process vocabulary optimisation
// over a reduced corpus — the §4.2.3 machinery end to end.
func BenchmarkTable4VocabOpt(b *testing.B) {
	var loops []loopdb.Loop
	for _, l := range loopdb.Corpus() {
		if l.Program == "ssh" || l.Program == "wget" {
			loops = append(loops, l)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objective := func(bits []bool) float64 {
			v := harness.VocabularyFromBits(bits)
			if !v.Contains(vocab.OpReturn) {
				return 0
			}
			return float64(harness.CountSynthesized(loops, cegis.Options{
				Vocabulary:  v,
				Timeout:     200 * time.Millisecond,
				MaxProgSize: 7,
			}, 1))
		}
		_, bestY, _ := gp.Maximize(objective, 13, gp.Options{Evaluations: 8, Seed: int64(i)})
		if bestY < 1 {
			b.Fatalf("optimiser found nothing: %v", bestY)
		}
	}
}

// BenchmarkFigure3SymbolicLength compares vanilla.KLEE and str.KLEE on one
// loop at a moderate symbolic length (the Figure 3 crossover region).
func BenchmarkFigure3SymbolicLength(b *testing.B) {
	prog, err := vocab.Decode("ZFP \t\x00F")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vanilla", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := lowerBench(b, figure1Loop)
			b.StartTimer()
			m := kleebench.Vanilla(f, 8, time.Minute)
			if m.TimedOut || m.Tests == 0 {
				b.Fatalf("vanilla run failed: %+v", m)
			}
		}
	})
	b.Run("str", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := kleebench.Str(prog, 8, time.Minute)
			if m.TimedOut || m.Tests == 0 {
				b.Fatalf("str run failed: %+v", m)
			}
		}
	})
}

// BenchmarkSolverCacheOn/Off run the vanilla.KLEE configuration on the
// Figure 1 loop with the query-cache chain (independence slicing,
// counterexample cache, incremental solver) on and off. The custom metrics
// make the cache's effect hardware-independent: SAT conflicts per op is the
// search effort the cache saved, hit rate is how often a query never reached
// the SAT core at all.
func benchmarkSolverCache(b *testing.B, cfg kleebench.Config) {
	var conflicts, queries int64
	var hits, groups int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := lowerBench(b, figure1Loop)
		b.StartTimer()
		m := kleebench.VanillaWith(f, 8, time.Minute, cfg)
		if m.TimedOut || m.Tests == 0 {
			b.Fatalf("vanilla run failed: %+v", m)
		}
		conflicts += m.Conflicts
		queries += int64(m.SolverQueries)
		hits += m.Cache.Hits()
		groups += m.Cache.Hits() + m.Cache.Misses
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
	if groups > 0 {
		b.ReportMetric(float64(hits)/float64(groups), "hit-rate")
	}
}

func BenchmarkSolverCacheOn(b *testing.B)  { benchmarkSolverCache(b, kleebench.Config{QCache: true}) }
func BenchmarkSolverCacheOff(b *testing.B) { benchmarkSolverCache(b, kleebench.Config{QCache: false}) }

// BenchmarkFigure4Speedup reports the str-over-vanilla speedup for one loop
// at a fixed length as a custom metric (the Figure 4 quantity).
func BenchmarkFigure4Speedup(b *testing.B) {
	prog, _ := vocab.Decode("ZFP \t\x00F")
	var speedup float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := lowerBench(b, figure1Loop)
		b.StartTimer()
		v := kleebench.Vanilla(f, 9, time.Minute)
		s := kleebench.Str(prog, 9, time.Minute)
		speedup = kleebench.Speedup(v, s)
	}
	b.ReportMetric(speedup, "x-speedup")
}

// BenchmarkFigure5Native times the original loop against its compiled
// summary on the §4.4 workload.
func BenchmarkFigure5Native(b *testing.B) {
	var loop loopdb.Loop
	for _, l := range loopdb.Corpus() {
		if l.Name == "bash/skip_ws_pair" {
			loop = l
		}
	}
	prog, _ := vocab.Decode(loop.WantProgram)
	compiled := vocab.CompileGo(prog)
	workload := nativeopt.Workload()
	b.Run("original-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range workload {
				loop.Ref(w)
			}
		}
	})
	b.Run("summary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range workload {
				compiled(w)
			}
		}
	})
}

// BenchmarkMemorylessVerification times the §3.3 bounded verification.
func BenchmarkMemorylessVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := lowerBench(b, figure1Loop)
		b.StartTimer()
		r := memoryless.Verify(f, 3)
		if !r.Memoryless {
			b.Fatalf("verification failed: %s", r.Reason)
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationGuardedOffsets compares the guarded-offset symbolic
// gadget semantics against a naive dense encoding in which the result offset
// is one nested-ite term. Both sides perform the same job — the test
// generation / verification case split: one solver query per possible result
// offset ("can the summary return s+j?").
func BenchmarkAblationGuardedOffsets(b *testing.B) {
	prog, _ := vocab.Decode("P \t\x00F")
	const maxLen = 6
	tin := bv.NewInterner()
	inSet := func(c *bv.Term) *bv.Bool {
		return tin.BOr2(tin.Eq(c, tin.Byte(' ')), tin.Eq(c, tin.Byte('\t')))
	}
	b.Run("guarded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := strsolver.New(tin, "s", maxLen)
			outcomes := vocab.RunSymbolic(vocab.Symbolize(tin, prog), s)
			sats := 0
			for _, o := range outcomes {
				if st, _ := bv.CheckSat(nil, 0, o.Guard); st == sat.Sat {
					sats++
				}
			}
			if sats != maxLen+1 {
				b.Fatalf("guarded: %d satisfiable outcomes", sats)
			}
		}
	})
	b.Run("naive-ite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := strsolver.New(tin, "s", maxLen)
			// Dense encoding: the span as one nested-ite term.
			span := tin.Int32(maxLen)
			for j := maxLen - 1; j >= 0; j-- {
				stop := tin.BOr2(tin.Eq(s.At(j), tin.Byte(0)), tin.BNot1(inSet(s.At(j))))
				prefixOK := bv.True
				for k := 0; k < j; k++ {
					prefixOK = tin.BAnd2(prefixOK, tin.BAnd2(inSet(s.At(k)), tin.Ne(s.At(k), tin.Byte(0))))
				}
				span = tin.Ite(tin.BAnd2(prefixOK, stop), tin.Int32(int64(j)), span)
			}
			sats := 0
			for j := 0; j <= maxLen; j++ {
				if st, _ := bv.CheckSat(nil, 0, tin.Eq(span, tin.Int32(int64(j)))); st == sat.Sat {
					sats++
				}
			}
			if sats != maxLen+1 {
				b.Fatalf("naive: %d satisfiable offsets", sats)
			}
		}
	})
}

// BenchmarkAblationMetaChars synthesises a three-character whitespace skip
// with and without meta-characters: the class collapses to one member with
// them, and must be spelled out without them (§2.2's claim: slower, not
// impossible).
func BenchmarkAblationMetaChars(b *testing.B) {
	src := `
char *skip(char *s) {
  while (*s == ' ' || *s == '\t' || *s == '\n')
    s++;
  return s;
}`
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := lowerBench(b, src)
			b.StartTimer()
			out, err := cegis.Synthesize(f, cegis.Options{
				Timeout:          time.Minute,
				DisableMetaChars: disable,
			})
			if err != nil || !out.Found {
				b.Fatalf("out=%+v err=%v", out, err)
			}
		}
	}
	b.Run("with-meta", func(b *testing.B) { run(b, false) })
	b.Run("without-meta", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPruning measures candidate canonicalisation on and off.
func BenchmarkAblationPruning(b *testing.B) {
	src := `
char *find(char *s) {
  while (*s && *s != '=')
    s++;
  return s;
}`
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := lowerBench(b, src)
			b.StartTimer()
			out, err := cegis.Synthesize(f, cegis.Options{
				Timeout:        time.Minute,
				DisablePruning: disable,
			})
			if err != nil || !out.Found {
				b.Fatalf("out=%+v err=%v", out, err)
			}
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, false) })
	b.Run("unpruned", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCexReuse measures counterexample reuse across program
// sizes during iterative deepening.
func BenchmarkAblationCexReuse(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := lowerBench(b, figure1Loop)
			b.StartTimer()
			out, err := cegis.Synthesize(f, cegis.Options{
				Timeout:         time.Minute,
				DisableCexReuse: disable,
			})
			if err != nil || !out.Found {
				b.Fatalf("out=%+v err=%v", out, err)
			}
		}
	}
	b.Run("reused", func(b *testing.B) { run(b, false) })
	b.Run("fresh-per-size", func(b *testing.B) { run(b, true) })
}
