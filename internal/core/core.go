// Package core wires the paper's pipeline together: parse C source, lower
// the loop function to IR, check the memorylessness conditions (§3),
// synthesise an equivalent gadget program with CEGIS (§2), and compile the
// summary back to C for refactoring (§4.5). The exported package
// stringloops at the module root is a thin facade over this package.
package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/cc"
	"stringloops/internal/cegis"
	"stringloops/internal/cir"
	"stringloops/internal/cstr"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/idiom"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/vocab"
)

// Options configures a summarisation run.
type Options struct {
	// Vocabulary as opcode letters (e.g. "MPNIFV"); empty means the full
	// Table 1 vocabulary.
	Vocabulary string
	// MaxProgramSize bounds the encoded summary size (default 9, as in the
	// paper's main experiment).
	MaxProgramSize int
	// MaxSetSize bounds character-set arguments (default 3).
	MaxSetSize int
	// MaxExampleLength is the bounded-equivalence string length (default 3;
	// sound for memoryless loops by §3's small-model theorems).
	MaxExampleLength int
	// Timeout bounds the search (default 30s).
	Timeout time.Duration
	// Budget, when non-nil, overrides Timeout with caller-controlled
	// cancellation and resource caps shared by the memorylessness check and
	// the synthesis; exhaustion surfaces as ErrNotFound, promptly.
	Budget *engine.Budget
	// Merge enables state merging in every symbolic execution of the
	// pipeline (memorylessness check, synthesis path computation, covering
	// inputs): see symex.Engine.Merge.
	Merge bool
	// NoVN disables the value-numbering rewrite layer (bv.Interner.SetVN)
	// in every solver chain of the pipeline; inverted so the zero Options
	// keeps it on. Verdicts are identical either way — only speed changes —
	// so it does not key the whole-result memo.
	NoVN bool
	// RequireMemoryless refuses to summarise loops that fail the §3
	// memorylessness verification, guaranteeing the summary is equivalent on
	// strings of every length, not just the bounded check.
	RequireMemoryless bool
	// Faults, when non-nil, arms the fault-injection sites of the whole
	// pipeline (memorylessness check and synthesis) under one seeded
	// schedule. Nil (the default) disables injection at zero cost.
	Faults *faultpoint.Registry
	// Cache, when non-nil, attaches the persistent cross-process cache tier:
	// the query store backs every solver-chain cache in the pipeline, and the
	// memo store memoizes whole results (memorylessness verdicts, synthesised
	// summaries) by the loop's canonical structural hash. Nil disables the
	// tier at zero cost.
	Cache *diskcache.Tier
}

// Summary is a synthesised loop summary.
type Summary struct {
	// Encoded is the program in the byte encoding of Table 1.
	Encoded string
	// Readable renders the program as named gadgets.
	Readable string
	// C is the replacement C function.
	C string
	// Memoryless reports whether the §3 verification proved the loop
	// memoryless (when it did, the summary provably agrees on all strings).
	Memoryless bool
	// Direction is the memoryless traversal direction when verified.
	Direction string
	// Elapsed is the synthesis time.
	Elapsed time.Duration
	prog    vocab.Program
}

// Errors.
var (
	// ErrNotFound means no equivalent program exists within the budget.
	ErrNotFound = errors.New("core: no summary found within the budget")
	// ErrNoLoopFunction means the source has no function with the
	// char *f(char *) shape.
	ErrNoLoopFunction = errors.New("core: no char *f(char *) function found")
	// ErrNotMemoryless is returned under RequireMemoryless.
	ErrNotMemoryless = errors.New("core: loop failed memorylessness verification")
)

// lowerNamed parses source and lowers funcName (or the first loop-shaped
// function when funcName is empty).
func lowerNamed(source, funcName string) (*cir.Func, error) {
	return lowerTraced(source, funcName, nil)
}

// lowerTraced is lowerNamed with the front-end phases recorded on the given
// tracer ("phase/parse" and "phase/lower" spans; nil traces nothing).
func lowerTraced(source, funcName string, tr *obs.Tracer) (*cir.Func, error) {
	span := tr.Start("phase/parse")
	file, err := cc.Parse(source)
	span.End()
	if err != nil {
		return nil, err
	}
	var decl *cc.FuncDecl
	if funcName != "" {
		decl = file.Lookup(funcName)
		if decl == nil {
			return nil, fmt.Errorf("core: function %q not found", funcName)
		}
	} else {
		for _, fn := range file.Funcs {
			if fn.Ret.IsPointer() && len(fn.Params) == 1 && fn.Params[0].Type.IsPointer() {
				decl = fn
				break
			}
		}
		if decl == nil {
			return nil, ErrNoLoopFunction
		}
	}
	span = tr.Start("phase/lower", obs.Attr{Key: "func", Val: decl.Name})
	f, err := cir.LowerFunc(decl, file)
	span.End()
	return f, err
}

// Summarize synthesises a summary for funcName in the C source (empty
// funcName picks the first char*(char*) function).
func Summarize(source, funcName string, opts Options) (*Summary, error) {
	f, err := lowerTraced(source, funcName, opts.Budget.Tracer())
	if err != nil {
		return nil, err
	}
	memo := opts.Cache.MemoStore()
	if memo == nil {
		return summarizeLoop(f, opts)
	}

	// Whole-result memo: the loop's canonical hash plus every option that
	// shapes the outcome keys the finished summary, so a structurally known
	// loop — resubmitted in this process or a previous one — returns in O(1).
	// Only deterministic outcomes are stored (a found summary, a clean
	// exhaustive not-found); budget-classified failures always recompute,
	// and so does any outcome computed while an armed fault fired, since the
	// key does not carry the fault schedule.
	// Concurrent -j drivers summarising the same loop collapse to one run
	// through the store's singleflight.
	key := fmt.Sprintf("sum1:%s:%s:%d:%d:%d:%t:%t", cir.CanonicalHash(f),
		opts.Vocabulary, opts.MaxProgramSize, opts.MaxSetSize, opts.MaxExampleLength,
		opts.RequireMemoryless, opts.Merge)
	var (
		computed bool
		s        *Summary
		serr     error
	)
	raw, cached := memo.Do(opts.Budget, key, func() ([]byte, bool) {
		computed = true
		fired := opts.Faults.TotalFired()
		s, serr = summarizeLoop(f, opts)
		switch {
		case opts.Faults.TotalFired() != fired:
			return nil, false
		case serr == nil:
			return encodeSummary(s), true
		case errors.Is(serr, ErrNotFound) && !errors.Is(serr, engine.ErrBudget):
			return []byte("N"), true
		default:
			return nil, false
		}
	})
	if computed {
		return s, serr
	}
	if cached {
		if s, serr, ok := decodeSummary(raw, f.Name); ok {
			return s, serr
		}
	}
	// Failed shared flight or undecodable entry: compute live.
	return summarizeLoop(f, opts)
}

// encodeSummary renders a found summary for the memo store: the encoded
// program (hex, since the Table 1 encoding uses arbitrary bytes), the
// memorylessness verdict and the traversal direction. Everything else on
// Summary is recomputed from these at decode time.
func encodeSummary(s *Summary) []byte {
	m := "0"
	if s.Memoryless {
		m = "1"
	}
	return []byte("F " + hex.EncodeToString([]byte(s.Encoded)) + " " + m + " " + s.Direction)
}

// decodeSummary rebuilds a Summary from a memo entry, re-deriving the
// readable form and the C replacement (which carries the current function's
// name, not the name the entry was stored under). Corrupt entries report
// ok=false and fall back to a live run.
func decodeSummary(raw []byte, funcName string) (*Summary, error, bool) {
	s := string(raw)
	if s == "N" {
		return nil, ErrNotFound, true
	}
	rest, found := strings.CutPrefix(s, "F ")
	if !found {
		return nil, nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, nil, false
	}
	encBytes, err := hex.DecodeString(fields[0])
	if err != nil {
		return nil, nil, false
	}
	prog, err := vocab.Decode(string(encBytes))
	if err != nil {
		return nil, nil, false
	}
	out := &Summary{
		Encoded:    string(encBytes),
		Readable:   prog.String(),
		C:          vocab.CompileToC(prog, funcName+"_summary"),
		Memoryless: fields[1] == "1",
		prog:       prog,
	}
	if len(fields) >= 3 {
		out.Direction = fields[2]
	}
	return out, nil, true
}

// summarizeLoop is the uncached pipeline: memorylessness check, CEGIS
// synthesis, summary assembly.
func summarizeLoop(f *cir.Func, opts Options) (*Summary, error) {
	report := memoryless.VerifyWith(f, memoryless.VerifyOptions{
		MaxLen: max(3, opts.MaxExampleLength), Budget: opts.Budget, Faults: opts.Faults, Merge: opts.Merge,
		NoVN: opts.NoVN, Disk: opts.Cache.QueryStore(), Memo: opts.Cache.MemoStore(),
	})
	if opts.RequireMemoryless && !report.Memoryless {
		if report.Err != nil {
			// The check was interrupted, not refuted: keep the budget
			// classification (engine.ErrBudget) in the chain so callers can
			// retry with a larger budget.
			return nil, fmt.Errorf("%w: %w", ErrNotMemoryless, report.Err)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotMemoryless, report.Reason)
	}

	copts := cegis.Options{
		MaxProgSize: opts.MaxProgramSize,
		MaxSetLen:   opts.MaxSetSize,
		MaxExSize:   opts.MaxExampleLength,
		Timeout:     opts.Timeout,
		Budget:      opts.Budget,
		Faults:      opts.Faults,
		Merge:       opts.Merge,
		NoVN:        opts.NoVN,
		Disk:        opts.Cache.QueryStore(),
	}
	if opts.Vocabulary != "" {
		v, err := vocab.VocabularyOf(opts.Vocabulary)
		if err != nil {
			return nil, err
		}
		copts.Vocabulary = v
	}
	out, err := cegis.Synthesize(f, copts)
	if err != nil && !errors.Is(err, cegis.ErrTimeout) {
		return nil, err
	}
	if !out.Found {
		if err != nil {
			// Budget exhaustion: still "no summary found" to existing callers
			// (errors.Is ErrNotFound), but with the exhaustion cause in the
			// chain so errors.Is(·, engine.ErrBudget) classifies it retryable.
			return nil, fmt.Errorf("%w: %w", ErrNotFound, err)
		}
		return nil, ErrNotFound
	}
	s := &Summary{
		Encoded:    out.Program.Encode(),
		Readable:   out.Program.String(),
		C:          vocab.CompileToC(out.Program, f.Name+"_summary"),
		Memoryless: report.Memoryless,
		Elapsed:    out.Elapsed,
		prog:       out.Program,
	}
	if report.Memoryless {
		s.Direction = report.Spec.Dir.String()
	}
	return s, nil
}

// Run executes the summary on a Go string, returning the offset the C loop
// would return, with found=false for a NULL return. It panics on summaries
// whose result is the invalid pointer (malformed programs never escape
// Summarize).
func (s *Summary) Run(input string) (offset int, found bool) {
	res := vocab.Run(s.prog, cstr.Terminate(input))
	switch res.Kind {
	case vocab.Null:
		return 0, false
	case vocab.Ptr:
		return res.Off, true
	}
	panic("core: summary produced an invalid pointer")
}

// Program exposes the decoded gadget program.
func (s *Summary) Program() vocab.Program { return s.prog }

// TestInput is a generated test: an input string plus the loop's behaviour
// on it.
type TestInput struct {
	Input string
	// Offset the loop returns (pointer result), meaningful when !Null.
	Offset int
	// Null reports a NULL return.
	Null bool
}

// CoveringInputs generates one concrete input per distinct behaviour of the
// summarised loop on strings up to maxLen — the testing application of §4.3:
// the summary turns the loop into string-solver constraints, and one solver
// model per feasible outcome covers every path without enumerating the
// loop's exponentially many symbolic paths.
func (s *Summary) CoveringInputs(maxLen int) []TestInput {
	bvin := bv.NewInterner()
	cache := qcache.New(bvin)
	sym := strsolver.New(bvin, "s", maxLen)
	outcomes := vocab.RunSymbolic(vocab.Symbolize(bvin, s.prog), sym)
	var out []TestInput
	seen := map[string]bool{}
	for _, o := range outcomes {
		if o.Res.Kind == vocab.Invalid {
			continue // undefined behaviour of the original loop
		}
		st, model := cache.CheckSat(nil, 0, o.Guard)
		if st != sat.Sat {
			continue
		}
		buf := sym.Concretize(model)
		in := cstr.GoString(buf, 0)
		if seen[in] {
			continue
		}
		seen[in] = true
		ti := TestInput{Input: in}
		if o.Res.Kind == vocab.Null {
			ti.Null = true
		} else {
			ti.Offset = o.Res.Off
		}
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Input < out[j].Input })
	return out
}

// MemorylessReport is the outcome of VerifyMemoryless.
type MemorylessReport struct {
	Memoryless bool
	Direction  string
	Reason     string
	Elapsed    time.Duration
}

// VerifyMemoryless runs the §3 bounded memorylessness verification on the
// named function.
func VerifyMemoryless(source, funcName string) (*MemorylessReport, error) {
	f, err := lowerNamed(source, funcName)
	if err != nil {
		return nil, err
	}
	r := memoryless.Verify(f, 3)
	out := &MemorylessReport{Memoryless: r.Memoryless, Reason: r.Reason, Elapsed: r.Elapsed}
	if r.Memoryless {
		out.Direction = r.Spec.Dir.String()
	}
	return out, nil
}

// CheckEquivalence verifies an encoded summary against the named loop on all
// strings up to maxLen, returning a counterexample input when they differ.
func CheckEquivalence(source, funcName, encoded string, maxLen int) (ok bool, counterexample string, err error) {
	f, err := lowerNamed(source, funcName)
	if err != nil {
		return false, "", err
	}
	prog, err := vocab.Decode(encoded)
	if err != nil {
		return false, "", err
	}
	ok, cex, err := cegis.VerifyEquivalence(f, prog, maxLen)
	if err != nil {
		return false, "", err
	}
	if !ok && cex != nil {
		return false, cstr.GoString(cex, 0), nil
	}
	return ok, "", nil
}

// CheckRefactoring verifies that a rewritten function (typically the loop
// replaced by standard-library calls — strspn, strcspn, strchr, strlen —
// which the symbolic executor models directly) behaves identically to the
// original on all strings up to maxLen and on NULL. It returns a
// distinguishing input when the refactoring is wrong — the validation step
// behind the §4.5 pull requests.
func CheckRefactoring(source, originalName, refactoredName string, maxLen int) (ok bool, counterexample string, err error) {
	a, err := lowerNamed(source, originalName)
	if err != nil {
		return false, "", err
	}
	b, err := lowerNamed(source, refactoredName)
	if err != nil {
		return false, "", err
	}
	ok, cex, err := cegis.VerifyFunctionEquivalence(a, b, maxLen)
	if err != nil {
		return false, "", err
	}
	if !ok && cex != nil {
		return false, cstr.GoString(cex, 0), nil
	}
	return ok, "", nil
}

// IdiomRewrite is the outcome of the loop-idiom compiler pass.
type IdiomRewrite struct {
	// Summary is the synthesised program in readable form.
	Summary string
	// OriginalIR and RewrittenIR are the function's IR before and after the
	// pass (the rewritten form is loop-free, built from string.h calls).
	OriginalIR  string
	RewrittenIR string
}

// RewriteIdiom runs the LoopIdiomRecognize-style pass (§4.4's compiler
// application) on the named function: summarise the loop, compile the
// summary to loop-free calls into the C standard library, and prove the
// replacement equivalent before returning it.
func RewriteIdiom(source, funcName string, timeout time.Duration) (*IdiomRewrite, error) {
	f, err := lowerNamed(source, funcName)
	if err != nil {
		return nil, err
	}
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	r, err := idiom.Rewrite(f, cegis.Options{Timeout: timeout})
	if err != nil {
		return nil, err
	}
	return &IdiomRewrite{
		Summary:     r.Program.String(),
		OriginalIR:  f.String(),
		RewrittenIR: r.Replaced.String(),
	}, nil
}

// Candidate is a loop that survived the automatic filter pipeline of §4.1.1.
type Candidate struct {
	Function string
	Stage    string // the filter that removed it, or "candidate"
}

// FindCandidates runs the automatic filter pipeline over every function in
// the source, reporting each loop's fate.
func FindCandidates(source string) ([]Candidate, error) {
	file, err := cc.Parse(source)
	if err != nil {
		return nil, err
	}
	funcs, err := cir.LowerFile(file)
	if err != nil {
		return nil, err
	}
	for _, f := range funcs {
		cir.Mem2Reg(f)
	}
	infos, _ := cir.ClassifyLoops(funcs)
	stageNames := map[cir.FilterStage]string{
		cir.StageInitial:    "outer-loop",
		cir.StageInnerOK:    "pointer-call",
		cir.StagePtrCallOK:  "array-write",
		cir.StageNoWritesOK: "multiple-reads",
		cir.StageCandidate:  "candidate",
	}
	var out []Candidate
	for _, info := range infos {
		out = append(out, Candidate{Function: info.Func.Name, Stage: stageNames[info.Stage]})
	}
	return out, nil
}
