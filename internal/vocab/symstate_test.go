package vocab

import (
	"fmt"
	"math/rand"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/strsolver"
)

// symSkeleton decodes code into a symbolic program over the full vocabulary,
// one instruction per byte: the byte picks the opcode and, for the set
// gadgets, a set of one to three characters. Argument characters are
// variables named by instruction index, as CEGIS names them, so the decoding
// of a prefix is a prefix of the decoding, and programs sharing a prefix
// share its variables.
func symSkeleton(in *bv.Interner, code []byte) SymProgram {
	prog := make(SymProgram, len(code))
	for i, b := range code {
		op := Ops[int(b)%len(Ops)]
		n := 0
		switch {
		case op.TakesChar():
			n = 1
		case op.TakesSet():
			n = 1 + int(b)/len(Ops)%3
		}
		si := SymInstr{Op: op}
		for j := 0; j < n; j++ {
			si.Arg = append(si.Arg, in.Var(fmt.Sprintf("arg%d_%d", i, j), 8))
		}
		prog[i] = si
	}
	return prog
}

// checkResume steps prefix once, then extends a clone of its state by each
// suffix. Every extension must report what a whole-program RunSymbolic
// reports: the same outcomes in the same order with pointer-identical
// guards, and no node the extension did not already intern. A second
// interner that only runs whole programs must end with the same node count.
func checkResume(t testing.TB, str func(*bv.Interner) *strsolver.SymString, prefix []byte, suffixes [][]byte) {
	t.Helper()
	inc, whole := bv.NewInterner(), bv.NewInterner()
	s, ws := str(inc), str(whole)

	st := NewSymState(s)
	for _, in := range symSkeleton(inc, prefix) {
		st.Step(in)
	}
	before := st.Outcomes()
	RunSymbolic(symSkeleton(whole, prefix), ws)

	for _, suf := range suffixes {
		code := append(append([]byte{}, prefix...), suf...)
		prog := symSkeleton(inc, code)
		ext := st.Clone()
		for _, in := range prog[len(prefix):] {
			ext.Step(in)
		}
		got := ext.Outcomes()

		nodes := inc.Nodes()
		want := RunSymbolic(prog, s)
		if inc.Nodes() != nodes {
			t.Fatalf("%q: the whole run interned %d nodes the resumed run did not", code, inc.Nodes()-nodes)
		}
		sameOutcomes(t, fmt.Sprintf("%q resumed after %d", code, len(prefix)), got, want)
		RunSymbolic(symSkeleton(whole, code), ws)
	}
	sameOutcomes(t, fmt.Sprintf("prefix %q after its clones ran", prefix), st.Outcomes(), before)
	if inc.Nodes() != whole.Nodes() {
		t.Fatalf("prefix %q: resumed runs interned %d nodes, whole runs %d", prefix, inc.Nodes(), whole.Nodes())
	}
}

func sameOutcomes(t testing.TB, what string, got, want []SymOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Res != want[i].Res || got[i].Guard != want[i].Guard {
			t.Fatalf("%s: outcome %d is %+v under %p, want %+v under %p",
				what, i, got[i].Res, got[i].Guard, want[i].Res, want[i].Guard)
		}
	}
}

// concreteStr returns the NUL-terminated input as a string of constants.
func concreteStr(t testing.TB, input []byte) func(*bv.Interner) *strsolver.SymString {
	return func(in *bv.Interner) *strsolver.SymString {
		s, err := strsolver.FromConcrete(in, append(append([]byte{}, input...), 0))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func randomCode(r *rand.Rand, maxLen int) []byte {
	code := make([]byte, r.Intn(maxLen+1))
	r.Read(code)
	return code
}

func TestSymStateResumeMatchesWholeRun(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	alphabet := []byte{'a', 'b', ' ', '\t', '0', '/'}
	for iter := 0; iter < 300; iter++ {
		prefix := randomCode(r, 5)
		suffixes := make([][]byte, 1+r.Intn(4))
		for i := range suffixes {
			suffixes[i] = randomCode(r, 4)
		}
		str := func(in *bv.Interner) *strsolver.SymString { return strsolver.New(in, "s", 2) }
		if iter%4 != 0 {
			input := make([]byte, r.Intn(4))
			for i := range input {
				input[i] = alphabet[r.Intn(len(alphabet))]
			}
			str = concreteStr(t, input)
		}
		checkResume(t, str, prefix, suffixes)
	}
}
