package main

import (
	"fmt"
	"math/rand"
	"sort"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/vocab"
)

// loopCase is one corpus loop, lowered, with what its checks need.
type loopCase struct {
	loopdb.Loop
	f *cir.Func
	// want is the decoded WantProgram (nil when the loop has none).
	want vocab.Program
	// alphabet covers the loop's character constants (see refAlphabet).
	alphabet []byte
}

// lowerCorpus parses and lowers every corpus loop — the set-up all three
// workloads share.
func lowerCorpus(ln *lane) ([]*loopCase, error) {
	var out []*loopCase
	for _, l := range loopdb.Corpus() {
		f, err := lowerLoop(l, ln)
		if err != nil {
			return nil, err
		}
		c := &loopCase{Loop: l, f: f, alphabet: refAlphabet(l.Source)}
		if l.WantProgram != "" {
			if c.want, err = vocab.Decode(l.WantProgram); err != nil {
				return nil, fmt.Errorf("%s: WantProgram: %w", l.Name, err)
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// setUp lowers the corpus setupReps times, each time inside a
// bench.setup span, records each set-up's time, and returns the last
// lowering.
func setUp(e *endToEnd, ln *lane) ([]*loopCase, error) {
	var loops []*loopCase
	for i := 0; i < setupReps; i++ {
		err := e.setup(func() (err error) {
			ln.begin("bench.setup")
			loops, err = lowerCorpus(ln)
			ln.end()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return loops, nil
}

// lowerLoop parses and lowers one loop, each step inside a cc.parse or a
// cir.lower span.
func lowerLoop(l loopdb.Loop, ln *lane) (*cir.Func, error) {
	ln.begin("cc.parse")
	file, err := cc.Parse(l.Source)
	ln.end()
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", l.Name, err)
	}
	decl := file.Lookup(l.FuncName)
	if decl == nil {
		return nil, fmt.Errorf("%s: function %q not found", l.Name, l.FuncName)
	}
	ln.begin("cir.lower")
	f, err := cir.LowerFunc(decl, file)
	ln.end()
	if err != nil {
		return nil, fmt.Errorf("%s: lower: %w", l.Name, err)
	}
	return f, nil
}

// shuffled returns the loops in an order drawn from seed.
func shuffled(loops []*loopCase, rng *rand.Rand) []*loopCase {
	out := append([]*loopCase(nil), loops...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// missesFirst orders loops for workers that each take the next loop as
// they finish the last: the expected misses, which each cost a whole
// budget, in an order drawn from rng, then the found loops likewise — so
// the workers end the pass on short loops and finish close together.
func missesFirst(loops []*loopCase, rng *rand.Rand) []*loopCase {
	found, missed := byExpectation(loops)
	return append(shuffled(missed, rng), shuffled(found, rng)...)
}

// byExpectation splits loops into those with a ground-truth summary and
// the rest.
func byExpectation(loops []*loopCase) (found, missed []*loopCase) {
	for _, c := range loops {
		if c.ExpectSynth {
			found = append(found, c)
		} else {
			missed = append(missed, c)
		}
	}
	return found, missed
}

// dealByCost splits loops over n clients so that their summed costs come
// out nearly even, drawing from rng: the loops are ranked by cost, each
// run of n consecutive loops goes one to every client in an order drawn
// from rng, and each client's list is then shuffled.
func dealByCost(loops []*loopCase, cost map[*loopCase]float64, n int, rng *rand.Rand) [][]*loopCase {
	ranked := append([]*loopCase(nil), loops...)
	sort.SliceStable(ranked, func(i, j int) bool { return cost[ranked[i]] > cost[ranked[j]] })
	out := make([][]*loopCase, n)
	for i := 0; i < len(ranked); i += n {
		for k, w := range rng.Perm(n) {
			if i+k < len(ranked) {
				out[w] = append(out[w], ranked[i+k])
			}
		}
	}
	for w := range out {
		out[w] = shuffled(out[w], rng)
	}
	return out
}

// tracedLanes returns one lane per worker on children of tr.
func tracedLanes(tr *obs.Tracer, n int) []*lane {
	out := make([]*lane, n)
	for w := range out {
		out[w] = newLane(tr.Child(w))
	}
	return out
}

// laneOf is lanes[w], or the nil (untraced) lane when lanes is nil.
func laneOf(lanes []*lane, w int) *lane {
	if lanes == nil {
		return nil
	}
	return lanes[w]
}
