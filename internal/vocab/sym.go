package vocab

import (
	"stringloops/internal/bv"
	"stringloops/internal/strsolver"
)

// This file is the symbolic counterpart of Algorithm 1. A program runs over
// a bounded symbolic string; the interpreter state is a *guarded set of
// concrete configurations* — pairs of (result kind, concrete offset) with a
// path-condition guard — rather than a single symbolic offset. Because
// buffers are bounded, each gadget maps a configuration to finitely many
// successor offsets, each guarded by a string-solver predicate (strsolver).
// This is the representation DESIGN.md §5 calls guarded offsets; the
// ablation benchmark compares it against naive ite-chains.
//
// The same interpreter serves both directions of CEGIS:
//   - bounded verification: concrete program arguments, symbolic string;
//   - argument solving: symbolic arguments (bv variables), concrete string.

// SymInstr is an instruction whose argument characters may be symbolic.
type SymInstr struct {
	Op  Op
	Arg []*bv.Term // one 8-bit term per argument character
}

// SymProgram is a program with possibly-symbolic arguments.
type SymProgram []SymInstr

// Symbolize lifts a concrete program into a SymProgram of constant terms.
func Symbolize(bvin *bv.Interner, p Program) SymProgram {
	out := make(SymProgram, len(p))
	for i, in := range p {
		si := SymInstr{Op: in.Op}
		for _, c := range in.Arg {
			si.Arg = append(si.Arg, bvin.Byte(c))
		}
		out[i] = si
	}
	return out
}

// SymOutcome is one guarded terminal result of a symbolic run.
type SymOutcome struct {
	Guard *bv.Bool
	Res   Result
}

// config is one guarded live interpreter configuration.
type config struct {
	off  int
	revN int // -1 = forward space; otherwise reversed with strlen == revN
	kind ResultKind
	skip bool
}

type guardedConfig struct {
	c config
	g *bv.Bool
}

// guardedConfigs is an insertion-ordered map from configurations to guards,
// kept as a list: a concrete counterexample keeps a handful of
// configurations live, and a scan finds one faster than hashing it.
// The order matters for determinism, not correctness: guards are accumulated
// with BOr2 while iterating, so iterating a plain Go map would make the
// *shape* of the guard formulas (and hence the set of interned bv nodes)
// follow the runtime's randomized map order — semantically equal run to run,
// but different DAGs, which breaks bit-identical replay of seeded
// fault-injection schedules.
type guardedConfigs []guardedConfig

func (gc *guardedConfigs) add(bvin *bv.Interner, c config, g *bv.Bool) {
	if g == bv.False {
		return
	}
	for i := range *gc {
		if e := &(*gc)[i]; e.c == c {
			e.g = bvin.BOr2(e.g, g)
			return
		}
	}
	*gc = append(*gc, guardedConfig{c, g})
}

// SymState is a symbolic run stopped between two instructions: the live
// guarded configurations, the guarded terminal results reached so far in
// first-reached order, and the program counter. Step resumes it and Clone
// forks it, so runs of programs sharing a prefix can share the prefix's
// work: CEGIS keeps the state of the current skeleton prefix on each
// counterexample and steps only the instructions after it. A state extended
// by Step is indistinguishable from one that ran the whole program from the
// start — same outcomes in the same order, same guards, same interned nodes.
type SymState struct {
	s    *strsolver.SymString
	pc   int
	live guardedConfigs // never modified once built: Step replaces it
	// terminal holds each result once, with the disjunction of its guards.
	// A clone shares it, so Step copies it before its first change.
	terminal []SymOutcome
	// rev[n] is the reversed view of the string with strlen n, built on
	// first use.
	rev []*strsolver.SymString
}

// NewSymState returns the state before the first instruction of a run over
// the symbolic string s.
func NewSymState(s *strsolver.SymString) *SymState {
	st := &SymState{s: s}
	st.live.add(s.Interner(), config{kind: Ptr, off: 0, revN: -1}, bv.True)
	return st
}

// Clone returns an independent copy of the state. The live configurations
// and terminal results are shared, since Step never modifies them in place.
func (st *SymState) Clone() *SymState {
	c := *st
	if st.rev != nil {
		c.rev = append([]*strsolver.SymString(nil), st.rev...)
	}
	return &c
}

// Outcomes returns the guarded terminal outcomes of the instructions stepped
// so far, as RunSymbolic reports them for a program ending here: the
// configurations still live have run out of instructions and are invalid.
// The state is not changed.
func (st *SymState) Outcomes() []SymOutcome {
	out := make([]SymOutcome, len(st.terminal), len(st.terminal)+1)
	copy(out, st.terminal)
	bvin := st.s.Interner()
	for _, e := range st.live {
		out = addOutcome(bvin, out, InvalidResult(), e.g)
	}
	return out
}

// addOutcome adds guard g to result r's entry in out, appending the entry
// when r is new. It changes out in place.
func addOutcome(bvin *bv.Interner, out []SymOutcome, r Result, g *bv.Bool) []SymOutcome {
	if g == bv.False {
		return out
	}
	for i := range out {
		if out[i].Res == r {
			out[i].Guard = bvin.BOr2(out[i].Guard, g)
			return out
		}
	}
	return append(out, SymOutcome{Guard: g, Res: r})
}

// revView returns the reversed view of the string with strlen n.
func (st *SymState) revView(n int) *strsolver.SymString {
	if st.rev == nil {
		st.rev = make([]*strsolver.SymString, st.s.MaxLen()+1)
	}
	if v := st.rev[n]; v != nil {
		return v
	}
	bytes := make([]*bv.Term, n+1)
	for i := 0; i < n; i++ {
		bytes[i] = st.s.At(n - 1 - i)
	}
	bvin := st.s.Interner()
	bytes[n] = bvin.Byte(0)
	v := strsolver.Wrap(bvin, bytes)
	st.rev[n] = v
	return v
}

// RunSymbolic interprets prog over the symbolic string s, returning guarded
// terminal outcomes whose guards are pairwise disjoint and cover all strings
// in the bounded domain. The result offsets are in the original buffer.
// The outcome order and the structure of every guard are deterministic
// functions of (prog, s): configurations are processed and merged in
// first-reached order.
func RunSymbolic(prog SymProgram, s *strsolver.SymString) []SymOutcome {
	st := NewSymState(s)
	for _, in := range prog {
		st.Step(in)
	}
	return st.Outcomes()
}

// Step executes one instruction on every live configuration.
func (st *SymState) Step(in SymInstr) {
	s := st.s
	bvin := s.Interner()
	maxLen := s.MaxLen()
	pc := st.pc
	st.pc++

	space := func(c config) *strsolver.SymString {
		if c.revN < 0 {
			return s
		}
		return st.revView(c.revN)
	}
	capOf := func(c config) int {
		if c.revN < 0 {
			return maxLen
		}
		return c.revN
	}

	next := make(guardedConfigs, 0, len(st.live)+3)
	addLive := func(c config, g *bv.Bool) {
		next.add(bvin, c, g)
	}
	copied := false
	addTerminal := func(r Result, g *bv.Bool) {
		if g == bv.False {
			return
		}
		if !copied {
			st.terminal = append(make([]SymOutcome, 0, len(st.terminal)+1), st.terminal...)
			copied = true
		}
		st.terminal = addOutcome(bvin, st.terminal, r, g)
	}
	invalid := func(g *bv.Bool) { addTerminal(InvalidResult(), g) }

	for _, e := range st.live {
		c, g := e.c, e.g
		if c.skip {
			c.skip = false
			addLive(c, g)
			continue
		}
		str := space(c)
		strCap := capOf(c)
		strOK := c.kind == Ptr && c.off >= 0 && c.off <= strCap
		switch in.Op {
		case OpReverse:
			if pc != 0 {
				invalid(g)
				continue
			}
			for n := 0; n <= maxLen; n++ {
				addLive(config{kind: Ptr, off: 0, revN: n}, bvin.BAnd2(g, s.LenIs(n)))
			}
		case OpRawmemchr:
			if !strOK {
				invalid(g)
				continue
			}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.RawchrIs(c.off, j, in.Arg[0])))
			}
			invalid(bvin.BAnd2(g, str.RawchrNone(c.off, in.Arg[0])))
		case OpStrchr:
			if !strOK {
				invalid(g)
				continue
			}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.ChrIs(c.off, j, in.Arg[0])))
			}
			nc := c
			nc.kind = Null
			addLive(nc, bvin.BAnd2(g, str.ChrNone(c.off, in.Arg[0])))
		case OpStrrchr:
			if !strOK {
				invalid(g)
				continue
			}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.RchrIs(c.off, j, in.Arg[0])))
			}
			nc := c
			nc.kind = Null
			addLive(nc, bvin.BAnd2(g, str.RchrNone(c.off, in.Arg[0])))
		case OpStrpbrk:
			if !strOK {
				invalid(g)
				continue
			}
			set := strsolver.Set{Members: in.Arg}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.PbrkIs(c.off, j, set)))
			}
			nc := c
			nc.kind = Null
			addLive(nc, bvin.BAnd2(g, str.PbrkNone(c.off, set)))
		case OpStrspn:
			if !strOK {
				invalid(g)
				continue
			}
			set := strsolver.Set{Members: in.Arg}
			for n := 0; c.off+n <= strCap; n++ {
				nc := c
				nc.off = c.off + n
				addLive(nc, bvin.BAnd2(g, str.SpnIs(c.off, n, set)))
			}
		case OpStrcspn:
			if !strOK {
				invalid(g)
				continue
			}
			set := strsolver.Set{Members: in.Arg}
			for n := 0; c.off+n <= strCap; n++ {
				nc := c
				nc.off = c.off + n
				addLive(nc, bvin.BAnd2(g, str.CspnIs(c.off, n, set)))
			}
		case OpIsNullptr:
			c.skip = c.kind != Null
			addLive(c, g)
		case OpIsStart:
			c.skip = !(c.kind == Ptr && c.off == 0)
			addLive(c, g)
		case OpIncrement:
			if c.kind != Ptr {
				invalid(g)
				continue
			}
			c.off++
			addLive(c, g)
		case OpSetToEnd:
			if c.revN >= 0 {
				// The reverse guard pins the reversed length to revN.
				c.kind, c.off = Ptr, c.revN
				addLive(c, g)
				continue
			}
			for n := 0; n <= strCap; n++ {
				nc := c
				nc.kind = Ptr
				nc.off = n
				addLive(nc, bvin.BAnd2(g, str.LenIs(n)))
			}
		case OpSetToStart:
			c.kind = Ptr
			c.off = 0
			addLive(c, g)
		case OpReturn:
			addTerminal(finishConfig(c), g)
		default:
			invalid(g)
		}
	}
	st.live = next
}

// finishConfig maps a configuration's result back into the original buffer.
func finishConfig(c config) Result {
	switch c.kind {
	case Null:
		return NullResult()
	case Invalid:
		return InvalidResult()
	}
	if c.revN >= 0 {
		return PtrResult(c.revN - 1 - c.off)
	}
	return PtrResult(c.off)
}

// RunNullInput evaluates the program's behaviour on the NULL input pointer.
// It never depends on argument characters, so a skeleton with placeholder
// arguments gives the exact answer — this is how CEGIS checks the NULL test
// point before argument solving.
func (p SymProgram) RunNullInput() Result {
	concrete := make(Program, len(p))
	for i, in := range p {
		ci := Instr{Op: in.Op}
		for range in.Arg {
			ci.Arg = append(ci.Arg, 'x') // placeholder; unused on NULL input
		}
		concrete[i] = ci
	}
	return Run(concrete, nil)
}
