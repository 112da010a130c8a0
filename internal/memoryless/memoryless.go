// Package memoryless implements §3 of the paper: bounded verification that a
// loop is memoryless, i.e. that it respects a memoryless specification
// (Definition 3) on all strings — which, by the small-model theorems
// (Memoryless Truncate 3.2, Squeeze 3.3 and Equivalence 3.4), follows from
// agreement on strings of length at most 3.
//
// The verifier proceeds in three stages, mirroring the paper's pipeline:
//
//  1. a syntactic prescreen of the IR (§3.3's "easy-to-check" conditions:
//     uniform ±1 cursor steps, no value-transforming calls such as tolower,
//     reads only at the cursor);
//  2. specification inference: the exit set X and the miss behaviour are
//     read off the loop's concrete behaviour on the empty string and all
//     single-character strings (the predicates Q0/Q1 of §3.2);
//  3. bounded equivalence of the loop's symbolic paths against the inferred
//     specification on all strings of length <= 3, discharged by the solver.
package memoryless

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/obs"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Direction of a memoryless specification (Definitions 1 and 2).
type Direction int

// Directions.
const (
	Forward Direction = iota
	Backward
)

func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Miss is the specification's behaviour when no character of X occurs — the
// R hole of Definition 3's schema, extended with the unsafe variant for
// rawmemchr-style loops (the online appendix's unterminated specifications).
type Miss int

// Miss behaviours.
const (
	// MissEnd returns input+len (forward) — the schema's R for forward
	// traversals.
	MissEnd Miss = iota
	// MissNull returns NULL (strchr-style loops).
	MissNull
	// MissUnsafe scans past the terminator: undefined behaviour when no X
	// character exists in the buffer.
	MissUnsafe
	// MissStartMinus1 returns input-1 (backward loops that walk below the
	// start, Definition 2 at c = len).
	MissStartMinus1
	// MissStart returns input (backward loops guarded with p > s).
	MissStart
)

// Spec is an inferred memoryless specification.
type Spec struct {
	Dir Direction
	// X is the exit set over non-NUL characters: scanning stops at the
	// first (forward) or last (backward) character in X.
	X [256]bool
	// Miss is the behaviour when no character of X occurs in the string.
	Miss Miss
}

// Report is the outcome of Verify.
type Report struct {
	Memoryless bool
	Spec       *Spec
	Reason     string
	Elapsed    time.Duration
	// Err is non-nil when the verdict could not be reached — in particular
	// ErrTimeout when the budget expired mid-check. Memoryless is false then,
	// but the loop was not refuted.
	Err error
}

// ErrUnsupported mirrors symex.ErrUnsupported for loops outside the engine's
// subset.
var ErrUnsupported = errors.New("memoryless: loop not supported")

// ErrTimeout means the budget expired before the bounded check finished. It
// wraps engine.ErrBudget so callers can classify it as retryable exhaustion
// with errors.Is(err, engine.ErrBudget).
var ErrTimeout = fmt.Errorf("memoryless: budget exhausted (%w)", engine.ErrBudget)

// Verify checks that the loop (a char* loopFunction(char*) cir function) is
// memoryless, inferring a specification and discharging the bounded
// equivalence on strings of length <= maxLen (use 3, per the paper).
func Verify(loop *cir.Func, maxLen int) Report {
	return VerifyBudget(loop, maxLen, nil)
}

// VerifyBudget is Verify under a budget: the symbolic execution and the
// solver poll b and the report comes back with Err == ErrTimeout (not a
// refutation) when it expires first. A nil budget is unlimited.
func VerifyBudget(loop *cir.Func, maxLen int, budget *engine.Budget) Report {
	return VerifyFaults(loop, maxLen, budget, nil)
}

// VerifyFaults is VerifyBudget with a fault-injection registry threaded into
// the verification pipeline (interner, query cache, symbolic engine). A nil
// registry disables injection at zero cost.
func VerifyFaults(loop *cir.Func, maxLen int, budget *engine.Budget, faults *faultpoint.Registry) Report {
	return VerifyWith(loop, VerifyOptions{MaxLen: maxLen, Budget: budget, Faults: faults})
}

// VerifyOptions bundles the optional knobs of a verification; the zero value
// matches Verify's defaults.
type VerifyOptions struct {
	// MaxLen is the bounded-equivalence string length (<= 0 means 3).
	MaxLen int
	// Budget carries cancellation and resource accounting (nil = unlimited).
	Budget *engine.Budget
	// Faults arms the fault-injection sites (nil = off).
	Faults *faultpoint.Registry
	// Merge enables state merging in the bounded-equivalence symbolic
	// execution (symex.Engine.Merge).
	Merge bool
	// NoVN disables the value-numbering rewrite layer on the check's
	// interner (bv.Interner.SetVN); inverted so the zero value keeps it on.
	NoVN bool
	// Disk attaches the persistent query store to the bounded check's query
	// cache (write-through canonical verdicts; nil = off).
	Disk *diskcache.Store
	// Memo attaches the whole-verdict memo store: the bounded equivalence
	// check's outcome is keyed by the loop's canonical hash, so re-verifying
	// a structurally known loop skips symbolic execution and solving
	// entirely. Budget-classified failures and verdicts reached while an
	// armed fault fired are never memoized (nil = off).
	Memo *diskcache.Store
}

// VerifyWith is the fully-optioned verification entry point; the stacked
// Verify/VerifyBudget/VerifyFaults forms delegate here.
func VerifyWith(loop *cir.Func, opts VerifyOptions) Report {
	maxLen, budget := opts.MaxLen, opts.Budget
	start := time.Now()
	span := budget.Tracer().Start("phase/memoryless", obs.Attr{Key: "func", Val: loop.Name})
	done := func(ok bool, spec *Spec, reason string) Report {
		if ok {
			span.SetAttr("verdict", "memoryless")
		} else {
			span.SetAttr("verdict", "refuted")
		}
		span.End()
		return Report{Memoryless: ok, Spec: spec, Reason: reason, Elapsed: time.Since(start)}
	}
	if maxLen <= 0 {
		maxLen = 3
	}
	if len(loop.Params) != 1 || loop.Params[0].Ty != cir.TyPtr {
		return done(false, nil, "not a loopFunction signature")
	}

	if reason := Prescreen(loop); reason != "" {
		return done(false, nil, "syntactic: "+reason)
	}
	if reason := SyntacticConditions(loop); reason != "" {
		return done(false, nil, "syntactic: "+reason)
	}

	spec, reason := InferSpec(loop)
	if spec == nil {
		return done(false, nil, "inference: "+reason)
	}

	ok, cex, err := checkEquivalenceMemo(loop, spec, maxLen, opts)
	if err != nil {
		r := done(false, spec, err.Error())
		if errors.Is(err, ErrTimeout) {
			r.Err = ErrTimeout
		}
		return r
	}
	if !ok {
		return done(false, spec, fmt.Sprintf("bounded check failed on %q", cex))
	}
	return done(true, spec, "")
}

// runOn executes the loop concretely on the given buffer, mapping the
// outcome into the interpreter result domain.
func runOn(loop *cir.Func, buf []byte) vocab.Result {
	mem := cir.NewMemory()
	obj := mem.AllocData(append([]byte{}, buf...))
	res, err := cir.Exec(loop, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 1<<16)
	switch {
	case err != nil:
		return vocab.InvalidResult()
	case res.Ret.IsNull():
		return vocab.NullResult()
	case res.Ret.IsPtr && res.Ret.Obj == obj:
		return vocab.PtrResult(res.Ret.Off)
	default:
		return vocab.InvalidResult()
	}
}

// InferSpec reads the candidate specification off the loop's behaviour on
// the empty string and all single-character strings, checking the
// single-character observations are internally consistent (the Q predicates
// of §3.2). It returns nil and a reason when no specification fits.
func InferSpec(loop *cir.Func) (*Spec, string) {
	var spec Spec
	// Exit set: characters on which the loop does not complete an iteration
	// of a single-character string (Q0(c) is false).
	for c := 1; c < 256; c++ {
		r := runOn(loop, []byte{byte(c), 0})
		switch {
		case r.Kind == vocab.Ptr && r.Off == 0:
			spec.X[c] = true
		case r.Kind == vocab.Ptr && (r.Off == 1 || r.Off == -1):
			// completed one iteration (forward: p0+1; backward: p0-1)
		case r.Kind == vocab.Null:
			// miss behaviour observed on a single char; consistent with
			// MissNull, validated below
		case r.Kind == vocab.Invalid:
			// unsafe scan; consistent with MissUnsafe
		default:
			return nil, fmt.Sprintf("single-char behaviour %v on %q outside the spec class", r, byte(c))
		}
	}
	// Miss behaviour from the empty string.
	switch r := runOn(loop, []byte{0}); {
	case r.Kind == vocab.Ptr && r.Off == 0:
		spec.Miss = MissEnd // also MissStart for backward; fixed below
	case r.Kind == vocab.Ptr && r.Off == -1:
		spec.Miss = MissStartMinus1
	case r.Kind == vocab.Null:
		spec.Miss = MissNull
	case r.Kind == vocab.Invalid:
		spec.Miss = MissUnsafe
	default:
		return nil, fmt.Sprintf("empty-string behaviour %v outside the spec class", r)
	}
	// Consistency of single-char misses with the inferred miss behaviour.
	for c := 1; c < 256; c++ {
		if spec.X[c] {
			continue
		}
		r := runOn(loop, []byte{byte(c), 0})
		okFwd := false
		okBwd := false
		switch spec.Miss {
		case MissEnd:
			okFwd = r.Kind == vocab.Ptr && r.Off == 1
			okBwd = r.Kind == vocab.Ptr && r.Off == 0 // MissStart reads as MissEnd on ""
		case MissNull:
			okFwd = r.Kind == vocab.Null
			okBwd = okFwd
		case MissUnsafe:
			okFwd = r.Kind == vocab.Invalid
			okBwd = okFwd
		case MissStartMinus1:
			okBwd = r.Kind == vocab.Ptr && r.Off == -1
		}
		if !okFwd && !okBwd {
			return nil, fmt.Sprintf("char %q miss behaviour %v inconsistent", byte(c), r)
		}
	}
	return &spec, ""
}

// xContains builds the X-membership formula for a byte term, choosing the
// smaller encoding side (members or complement).
func (spec *Spec) xContains(bvin *bv.Interner, c *bv.Term) *bv.Bool {
	size := 0
	for i := 1; i < 256; i++ {
		if spec.X[i] {
			size++
		}
	}
	if size <= 128 {
		out := bv.False
		for i := 1; i < 256; i++ {
			if spec.X[i] {
				out = bvin.BOr2(out, bvin.Eq(c, bvin.Byte(byte(i))))
			}
		}
		return out
	}
	out := bvin.Ne(c, bvin.Byte(0))
	for i := 1; i < 256; i++ {
		if !spec.X[i] {
			out = bvin.BAnd2(out, bvin.Ne(c, bvin.Byte(byte(i))))
		}
	}
	return out
}

// specOutcome is a guarded result of the specification on the bounded
// symbolic string.
type specOutcome struct {
	guard *bv.Bool
	res   vocab.Result
}

// outcomes enumerates the specification's guarded results over a symbolic
// buffer of the given capacity (bytes[cap] is the forced NUL).
func (spec *Spec) outcomes(bvin *bv.Interner, bytes []*bv.Term, dir Direction) []specOutcome {
	maxLen := len(bytes) - 1
	var out []specOutcome
	inX := make([]*bv.Bool, maxLen+1)
	isNul := make([]*bv.Bool, maxLen+1)
	for i := 0; i <= maxLen; i++ {
		inX[i] = spec.xContains(bvin, bytes[i])
		isNul[i] = bvin.Eq(bytes[i], bvin.Byte(0))
	}
	if dir == Forward {
		if spec.Miss == MissUnsafe {
			// Unterminated specification (online appendix): the scan ignores
			// terminators, exactly like rawmemchr; a buffer with no X
			// character at all is undefined behaviour.
			for j := 0; j <= maxLen; j++ {
				g := inX[j]
				for i := 0; i < j; i++ {
					g = bvin.BAnd2(g, bvin.BNot1(inX[i]))
				}
				out = append(out, specOutcome{g, vocab.PtrResult(j)})
			}
			g := bv.True
			for i := 0; i <= maxLen; i++ {
				g = bvin.BAnd2(g, bvin.BNot1(inX[i]))
			}
			out = append(out, specOutcome{g, vocab.InvalidResult()})
			return out
		}
		// Hit at j: no X char and no NUL before j, X at j.
		for j := 0; j <= maxLen; j++ {
			g := inX[j]
			for i := 0; i < j; i++ {
				g = bvin.BAndAll(g, bvin.BNot1(inX[i]), bvin.BNot1(isNul[i]))
			}
			out = append(out, specOutcome{g, vocab.PtrResult(j)})
		}
		// Miss: terminator at k with no X char before.
		for k := 0; k <= maxLen; k++ {
			g := isNul[k]
			for i := 0; i < k; i++ {
				g = bvin.BAndAll(g, bvin.BNot1(inX[i]), bvin.BNot1(isNul[i]))
			}
			out = append(out, specOutcome{g, spec.missResult(k)})
		}
		return out
	}
	// Backward: the last live X character wins.
	alive := func(i int) *bv.Bool {
		g := bv.True
		for k := 0; k < i; k++ {
			g = bvin.BAnd2(g, bvin.BNot1(isNul[k]))
		}
		return g
	}
	for j := 0; j <= maxLen; j++ {
		g := bvin.BAndAll(alive(j), bvin.BNot1(isNul[j]), inX[j])
		for i := j + 1; i <= maxLen; i++ {
			later := bvin.BAndAll(alive(i), bvin.BNot1(isNul[i]), inX[i])
			g = bvin.BAnd2(g, bvin.BNot1(later))
		}
		out = append(out, specOutcome{g, vocab.PtrResult(j)})
	}
	// Miss: no live X character at all; the guard enumerates the length.
	for k := 0; k <= maxLen; k++ {
		g := isNul[k]
		for i := 0; i < k; i++ {
			g = bvin.BAndAll(g, bvin.BNot1(isNul[i]), bvin.BNot1(inX[i]))
		}
		out = append(out, specOutcome{g, spec.missResult(k)})
	}
	return out
}

// missResult maps the miss behaviour to a result for a string of length k.
func (spec *Spec) missResult(k int) vocab.Result {
	switch spec.Miss {
	case MissEnd:
		return vocab.PtrResult(k)
	case MissNull:
		return vocab.NullResult()
	case MissStartMinus1:
		return vocab.PtrResult(-1)
	case MissStart:
		return vocab.PtrResult(0)
	default: // MissUnsafe
		return vocab.InvalidResult()
	}
}

// checkEquivalenceMemo wraps checkEquivalence with the whole-verdict memo
// DB. The key is the loop's canonical structural hash plus the parameters
// that shape the verdict (bound, merging); the value records exactly what a
// live check would have produced — the verified direction and miss behaviour
// (checkEquivalence refines them on success) or the counterexample bytes.
// Only deterministic outcomes are stored: an error (budget exhaustion, an
// unsupported construct) or a verdict reached while an armed fault fired
// computes live every time, so a transiently starved or fault-injected run
// can never freeze a wrong verdict into the cache. Concurrent drivers
// verifying the same loop collapse to one computation via the store's
// singleflight.
func checkEquivalenceMemo(loop *cir.Func, spec *Spec, maxLen int, opts VerifyOptions) (bool, []byte, error) {
	if opts.Memo == nil {
		return checkEquivalence(loop, spec, maxLen, opts)
	}
	key := fmt.Sprintf("mv1:%s:%d:%t", cir.CanonicalHash(loop), maxLen, opts.Merge)
	var (
		computed bool
		ok       bool
		cex      []byte
		err      error
	)
	raw, cached := opts.Memo.Do(opts.Budget, key, func() ([]byte, bool) {
		computed = true
		fired := opts.Faults.TotalFired()
		ok, cex, err = checkEquivalence(loop, spec, maxLen, opts)
		if err != nil || opts.Faults.TotalFired() != fired {
			return nil, false
		}
		if ok {
			return []byte(fmt.Sprintf("eq %d %d", spec.Dir, spec.Miss)), true
		}
		return []byte("ne " + hex.EncodeToString(cex)), true
	})
	if computed {
		return ok, cex, err
	}
	if cached {
		if ok, cex, decoded := decodeVerdict(raw, spec); decoded {
			return ok, cex, nil
		}
	}
	// A failed shared flight or an undecodable entry: compute live.
	return checkEquivalence(loop, spec, maxLen, opts)
}

// decodeVerdict parses a memoized verdict, applying the verified direction
// and miss behaviour to spec exactly as a live check would. Corrupt entries
// report decoded=false and are ignored.
func decodeVerdict(raw []byte, spec *Spec) (ok bool, cex []byte, decoded bool) {
	s := string(raw)
	if rest, found := strings.CutPrefix(s, "eq "); found {
		var dir, miss int
		if _, err := fmt.Sscanf(rest, "%d %d", &dir, &miss); err != nil {
			return false, nil, false
		}
		if dir < int(Forward) || dir > int(Backward) || miss < int(MissEnd) || miss > int(MissStart) {
			return false, nil, false
		}
		spec.Dir = Direction(dir)
		spec.Miss = Miss(miss)
		return true, nil, true
	}
	if rest, found := strings.CutPrefix(s, "ne "); found {
		cex, err := hex.DecodeString(rest)
		if err != nil {
			return false, nil, false
		}
		return false, cex, true
	}
	return false, nil, false
}

// checkEquivalence discharges the bounded check: loop ≡ spec on all strings
// of length <= maxLen, trying forward then backward traversal.
func checkEquivalence(loop *cir.Func, spec *Spec, maxLen int, opts VerifyOptions) (bool, []byte, error) {
	budget, faults := opts.Budget, opts.Faults
	bvin := bv.NewInterner().SetBudget(budget).SetFaults(faults).SetVN(!opts.NoVN)
	cache := qcache.New(bvin).SetFaults(faults).SetDisk(opts.Disk)
	buf := symex.SymbolicString(bvin, "s", maxLen)
	eng := &symex.Engine{Objects: [][]*bv.Term{buf}, CheckFeasibility: true, Merge: opts.Merge, In: bvin, Budget: budget, Cache: cache, Faults: faults}
	paths, err := eng.Run(loop, []symex.Value{symex.PtrValue(0, bvin.Int32(0))}, bv.True)
	if err != nil {
		if errors.Is(err, symex.ErrTimeout) {
			return false, nil, fmt.Errorf("%w: %w", ErrTimeout, err)
		}
		return false, nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	type loopPath struct {
		cond *bv.Bool
		kind vocab.ResultKind
		off  *bv.Term
	}
	var lps []loopPath
	for _, p := range paths {
		lp := loopPath{cond: p.Cond}
		switch {
		case p.Err != nil:
			if errors.Is(p.Err, symex.ErrUnsupported) {
				return false, nil, fmt.Errorf("%w: %v", ErrUnsupported, p.Err)
			}
			lp.kind = vocab.Invalid
		case p.Ret.IsNull():
			lp.kind = vocab.Null
		case p.Ret.IsPtr && p.Ret.Obj == 0:
			lp.kind = vocab.Ptr
			lp.off = p.Ret.Off
		default:
			lp.kind = vocab.Invalid
		}
		lps = append(lps, lp)
	}

	var lastCex []byte
	for _, dir := range []Direction{Forward, Backward} {
		trySpec := *spec
		trySpec.Dir = dir
		if dir == Backward && spec.Miss == MissEnd {
			// On the empty string MissStart and MissEnd coincide; backward
			// loops guarded with p > s return the start.
			trySpec.Miss = MissStart
		}
		outs := trySpec.outcomes(bvin, buf, dir)
		equal := bv.False
		for _, lp := range lps {
			for _, o := range outs {
				if lp.kind != o.res.Kind {
					continue
				}
				clause := bvin.BAnd2(lp.cond, o.guard)
				if lp.kind == vocab.Ptr {
					clause = bvin.BAnd2(clause, bvin.Eq(lp.off, bvin.Int32(int64(o.res.Off))))
				}
				equal = bvin.BOr2(equal, clause)
			}
		}
		st, model := cache.CheckSat(budget, 0, bvin.BNot1(equal))
		switch st {
		case sat.Unsat:
			spec.Dir = dir
			spec.Miss = trySpec.Miss
			return true, nil, nil
		case sat.Unknown:
			// The refutation query itself ran out of budget: neither verified
			// nor refuted — surface the timeout rather than a wrong verdict.
			return false, nil, ErrTimeout
		}
		ev := bv.NewEvaluator(model)
		cex := make([]byte, maxLen+1)
		for i := 0; i < maxLen; i++ {
			cex[i] = byte(ev.Term(buf[i]))
		}
		lastCex = cex
	}
	return false, lastCex, nil
}

// SyntacticConditions checks the mostly-syntactic restrictions of §3.3 on
// the pre-SSA IR: every source variable stored inside a loop steps uniformly
// by ±1 per iteration (or is a pointer cursor stepping one element), and
// integer comparisons inside loops involve only zero or len-like values —
// never other constants (the paper's typical invalid loops "contain
// constants other than zero"). Compiler temporaries (allocas marked "tmp")
// are exempt, matching the paper's restriction to live variables. It returns
// "" when the function conforms.
func SyntacticConditions(f *cir.Func) string {
	defs := map[int]*cir.Instr{}
	tmpSlot := map[int]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Res >= 0 {
				defs[in.Res] = in
			}
			if in.Op == cir.OpAlloca && in.Sub == "tmp" {
				tmpSlot[in.Res] = true
			}
		}
	}
	slotOf := func(o cir.Operand) (int, bool) {
		if o.Kind != cir.KReg {
			return 0, false
		}
		d, ok := defs[o.Reg]
		if !ok || d.Op != cir.OpAlloca {
			return 0, false
		}
		return d.Res, true
	}
	// isStepOf reports whether value v is load(slot) ± 1 (integer add/sub of
	// one, or a one-element gep).
	isStepOf := func(v cir.Operand, slot int) bool {
		if v.Kind != cir.KReg {
			return false
		}
		d, ok := defs[v.Reg]
		if !ok {
			return false
		}
		fromSlot := func(o cir.Operand) bool {
			if o.Kind != cir.KReg {
				return false
			}
			ld, ok := defs[o.Reg]
			if !ok || ld.Op != cir.OpLoad {
				return false
			}
			s, ok := slotOf(ld.Args[0])
			return ok && s == slot
		}
		switch d.Op {
		case cir.OpBin:
			if d.Sub != "add" && d.Sub != "sub" {
				return false
			}
			c := d.Args[1]
			return fromSlot(d.Args[0]) && c.Kind == cir.KConst && (c.Imm == 1 || c.Imm == -1)
		case cir.OpGep:
			c := d.Args[1]
			direct := fromSlot(d.Args[0]) && c.Kind == cir.KConst && (c.Imm == 1 || c.Imm == -1)
			if direct {
				return true
			}
			// gep(load(slot), 0 - 1) lowers the p-- form through a negation.
			if fromSlot(d.Args[0]) && c.Kind == cir.KReg {
				if neg, ok := defs[c.Reg]; ok && neg.Op == cir.OpBin && neg.Sub == "sub" {
					a, b := neg.Args[0], neg.Args[1]
					return a.Kind == cir.KConst && a.Imm == 0 && b.Kind == cir.KConst && (b.Imm == 1 || b.Imm == -1)
				}
			}
			return false
		}
		return false
	}

	// offsetsCharRead reports whether the value was derived from a string
	// read through an additive constant — the paper's "read value changed by
	// some constant offset" rejection.
	var offsetsCharRead func(o cir.Operand, offsetSeen bool, depth int) bool
	offsetsCharRead = func(o cir.Operand, offsetSeen bool, depth int) bool {
		if o.Kind != cir.KReg || depth > 16 {
			return false
		}
		d, ok := defs[o.Reg]
		if !ok {
			return false
		}
		switch d.Op {
		case cir.OpLoad:
			return offsetSeen && (d.Sub == "1s" || d.Sub == "1u")
		case cir.OpBin:
			seen := offsetSeen
			if d.Sub == "add" || d.Sub == "sub" {
				for _, a := range d.Args {
					if a.Kind == cir.KConst && a.Imm != 0 {
						seen = true
					}
				}
			}
			return offsetsCharRead(d.Args[0], seen, depth+1) || offsetsCharRead(d.Args[1], seen, depth+1)
		}
		return false
	}

	for _, l := range cir.FindLoops(f) {
		for _, in := range l.Instrs() {
			switch in.Op {
			case cir.OpCall:
				// Library calls transform the read value before the
				// comparison at the IR level (tolower, isdigit, ...): the
				// §3.3 conditions reject them even when synthesis succeeds
				// via meta-characters.
				return "call to " + in.Sub + " transforms the read value"
			case cir.OpStore:
				slot, ok := slotOf(in.Args[1])
				if !ok || tmpSlot[slot] {
					continue
				}
				if !isStepOf(in.Args[0], slot) {
					return "variable does not step uniformly by one inside a loop"
				}
			case cir.OpCmp:
				// Integer comparisons against constants other than zero are
				// only admissible on unmodified character values
				// (Definition 1).
				c, other := in.Args[0], in.Args[1]
				if c.Kind != cir.KConst {
					c, other = other, c
				}
				if c.Kind != cir.KConst || c.Imm == 0 || other.Kind != cir.KReg {
					continue
				}
				if d, ok := defs[other.Reg]; ok && d.Op == cir.OpLoad && (d.Sub == "4" || d.Sub == "p") {
					return fmt.Sprintf("comparison of a loop variable against constant %d", c.Imm)
				}
				if offsetsCharRead(other, false, 0) {
					return "read value changed by a constant offset before comparison"
				}
			}
		}
	}
	return ""
}

// Prescreen applies the cheap syntactic disqualifiers of §3.3 to the
// function's loops: value-transforming calls (tolower/toupper), symbolic
// multiplications, or stores — the conditions whose violation the paper
// reports for its 30 rejected loops. It returns "" when the function passes.
func Prescreen(loop *cir.Func) string {
	for _, b := range loop.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case cir.OpCall:
				switch in.Sub {
				case "tolower", "toupper":
					return "call to value-transforming " + in.Sub
				case "isdigit", "isspace", "isblank", "isupper", "islower", "isalpha", "isalnum", "strlen":
					// predicates and strlen are modelled by the executor
				default:
					return "call to " + in.Sub
				}
			case cir.OpStore:
				if in.Sub != "4" && in.Sub != "p" {
					return "store into the string buffer"
				}
			}
		}
	}
	return ""
}
