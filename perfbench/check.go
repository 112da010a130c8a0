package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/vocab"
)

// The verdict checks below compare what the pipeline produced against the
// corpus ground truth: Loop.Ref (a hand-written Go transliteration of each
// loop), ExpectSynth, ExpectMemoryless and WantProgram. None of them asks
// the synthesis or symbolic engine under test for an answer.

// refMaxLen is the bounded string length the checks enumerate: the
// paper's max_ex_size, the length synthesis proves equivalence up to.
const refMaxLen = 3

// charLit matches C character literals in loop source text.
var charLit = regexp.MustCompile(`'(\\x[0-9a-fA-F]{2}|\\.|[^'\\])'`)

// classReps stands for the character classes loops test through ctype
// calls or the Table 1 meta-characters: letters, digits and each
// whitespace byte, plus one punctuation byte.
var classReps = []byte("aZ05 \t\n\v\f\r.")

// refAlphabet is the check alphabet for one loop: every character
// constant in its source, each constant's neighbours (so range tests such
// as c >= '0' && c <= '9' are probed on both sides), and classReps. It is
// read from the source text, not from the engine's IR.
func refAlphabet(src string) []byte {
	set := map[byte]bool{}
	for _, c := range classReps {
		set[c] = true
	}
	for _, m := range charLit.FindAllStringSubmatch(src, -1) {
		c, ok := unquoteChar(m[1])
		if !ok {
			continue
		}
		for _, d := range []int{-1, 0, 1} {
			if v := int(c) + d; v > 0 && v < 256 {
				set[byte(v)] = true
			}
		}
	}
	out := make([]byte, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func unquoteChar(lit string) (byte, bool) {
	if len(lit) == 4 && lit[:2] == `\x` {
		v, err := strconv.ParseUint(lit[2:], 16, 8)
		return byte(v), err == nil
	}
	v, _, _, err := strconv.UnquoteChar(lit, '\'')
	if err != nil || v > 255 {
		return 0, false
	}
	return byte(v), true
}

// refInputs enumerates every NUL-terminated buffer of up to maxLen
// characters over alphabet.
func refInputs(alphabet []byte, maxLen int) [][]byte {
	out := [][]byte{{0}}
	prev := [][]byte{{}}
	for n := 1; n <= maxLen; n++ {
		var next [][]byte
		for _, p := range prev {
			for _, c := range alphabet {
				s := append(append(make([]byte, 0, n), p...), c)
				next = append(next, s)
				out = append(out, append(append(make([]byte, 0, n+1), s...), 0))
			}
		}
		prev = next
	}
	return out
}

// checkVerdict compares a synthesis verdict and a memorylessness verdict
// against the loop's ground-truth labels.
func checkVerdict(c *loopCase, found, memoryless bool) error {
	if found != c.ExpectSynth {
		return fmt.Errorf("%s: synthesis verdict found=%v, ground truth %v", c.Name, found, c.ExpectSynth)
	}
	if memoryless != c.ExpectMemoryless {
		return fmt.Errorf("%s: memoryless verdict %v, ground truth %v", c.Name, memoryless, c.ExpectMemoryless)
	}
	return nil
}

// checker checks each distinct summary once per run.
type checker struct {
	mu   sync.Mutex
	done map[string]error
}

func newChecker() *checker { return &checker{done: map[string]error{}} }

// summary is checkSummary, remembered per (loop, program, C source).
func (k *checker) summary(c *loopCase, prog vocab.Program, csrc string) error {
	key := c.Name + "\x00" + prog.Encode() + "\x00" + csrc
	k.mu.Lock()
	err, ok := k.done[key]
	k.mu.Unlock()
	if ok {
		return err
	}
	err = checkSummary(c, prog, csrc)
	k.mu.Lock()
	k.done[key] = err
	k.mu.Unlock()
	return err
}

// checkSummary checks a found program and the C replacement the pipeline
// emitted for it: the program is no larger than WantProgram, and both
// agree with Loop.Ref on the NULL input and on every string up to
// refMaxLen over the loop's alphabet — the program under vocab.Run, the C
// function parsed, lowered and run concretely under cir.Exec.
func checkSummary(c *loopCase, prog vocab.Program, csrc string) error {
	if c.want != nil && prog.EncodedSize() > c.want.EncodedSize() {
		return fmt.Errorf("%s: summary %q has size %d, larger than WantProgram %q (%d)",
			c.Name, prog.Encode(), prog.EncodedSize(), c.WantProgram, c.want.EncodedSize())
	}
	if c.Ref == nil {
		return fmt.Errorf("%s: no reference to check a summary against", c.Name)
	}
	emitted, err := lowerEmitted(csrc)
	if err != nil {
		return fmt.Errorf("%s: emitted C for %q: %w", c.Name, prog.Encode(), err)
	}
	want := c.Ref(nil)
	if got := vocab.Run(prog, nil); got != want {
		return fmt.Errorf("%s: summary %q on NULL = %+v, loop = %+v", c.Name, prog.Encode(), got, want)
	}
	if got := execFunc(emitted, nil); got != want {
		return fmt.Errorf("%s: emitted C of %q on NULL = %+v, loop = %+v", c.Name, prog.Encode(), got, want)
	}
	for _, buf := range refInputs(c.alphabet, refMaxLen) {
		want := c.Ref(buf)
		if got := vocab.Run(prog, buf); got != want {
			return fmt.Errorf("%s: summary %q on %q = %+v, loop = %+v", c.Name, prog.Encode(), buf, got, want)
		}
		if got := execFunc(emitted, buf); got != want {
			return fmt.Errorf("%s: emitted C of %q on %q = %+v, loop = %+v", c.Name, prog.Encode(), buf, got, want)
		}
	}
	return nil
}

// lowerEmitted lowers the C replacement function of a summary (the
// emitted code uses NULL, which the C subset leaves to the includer).
func lowerEmitted(csrc string) (*cir.Func, error) {
	file, err := cc.Parse("#define NULL 0\n" + csrc)
	if err != nil {
		return nil, err
	}
	if len(file.Funcs) != 1 {
		return nil, fmt.Errorf("want one function, got %d", len(file.Funcs))
	}
	return cir.LowerFunc(file.Funcs[0], file)
}

// execFunc runs a loop-shaped function concretely on buf (nil is the NULL
// input), mapped into the gadget result domain.
func execFunc(f *cir.Func, buf []byte) vocab.Result {
	mem := cir.NewMemory()
	arg, obj := cir.NullVal(), -1
	if buf != nil {
		obj = mem.AllocData(append([]byte(nil), buf...))
		arg = cir.PtrVal(obj, 0)
	}
	res, err := cir.Exec(f, []cir.CVal{arg}, mem, 0)
	switch {
	case err != nil:
		return vocab.InvalidResult()
	case res.Ret.IsNull():
		return vocab.NullResult()
	case res.Ret.IsPtr && res.Ret.Obj == obj:
		return vocab.PtrResult(res.Ret.Off)
	}
	return vocab.InvalidResult()
}
