package bv

// Conjuncts appends the top-level conjuncts of f to dst and returns it: BAnd
// trees are flattened, everything else is a single conjunct. The query cache
// (internal/qcache) normalizes constraint sets this way so that the same
// path condition keys identically whether it arrives as one BAnd tree or as
// separate formulas.
func Conjuncts(dst []*Bool, f *Bool) []*Bool {
	if f.Kind == BAnd {
		dst = Conjuncts(dst, f.A)
		return Conjuncts(dst, f.B)
	}
	return append(dst, f)
}

// VarIDs appends the ids of all variables occurring in f to dst and
// returns it: each is its name's interner id shifted left once, with the
// low bit set for a boolean variable, so a term variable and a boolean
// variable sharing a name never alias. Shared DAG nodes are visited once,
// but ids may still repeat across distinct nodes; callers that need a set
// should dedupe. TaggedVarName turns an id back into a name. Used by
// constraint-independence slicing to decide which conjuncts interact. f
// must come from this interner.
func (in *Interner) VarIDs(dst []uint32, f *Bool) []uint32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.varSeenB == nil {
		in.varSeenB, in.varSeenT = map[*Bool]bool{}, map[*Term]bool{}
	}
	clear(in.varSeenB)
	clear(in.varSeenT)
	c := varCollector{in: in, out: dst}
	c.boolVars(f)
	return c.out
}

// TaggedVarName returns the name of a VarIDs id, tagged with its sort:
// "t:" for a bit-vector term variable, "b:" for a boolean variable.
func (in *Interner) TaggedVarName(id uint32) string {
	in.mu.Lock()
	name := in.nameOf[id>>1]
	in.mu.Unlock()
	if id&1 != 0 {
		return "b:" + name
	}
	return "t:" + name
}

// varCollector is the VarIDs walk; the caller holds in.mu.
type varCollector struct {
	in  *Interner
	out []uint32
}

func (c *varCollector) boolVars(f *Bool) {
	if f == nil || c.in.varSeenB[f] {
		return
	}
	c.in.varSeenB[f] = true
	switch f.Kind {
	case BVar:
		c.out = append(c.out, c.in.names[f.Name]<<1|1)
	case BNot, BAnd, BOr:
		c.boolVars(f.A)
		c.boolVars(f.B)
	case BEq, BUlt, BUle:
		c.termVars(f.X)
		c.termVars(f.Y)
	}
}

func (c *varCollector) termVars(t *Term) {
	if t == nil || c.in.varSeenT[t] {
		return
	}
	c.in.varSeenT[t] = true
	if t.Kind == KVar {
		c.out = append(c.out, c.in.names[t.Name]<<1)
		return
	}
	c.boolVars(t.Cond)
	c.termVars(t.A)
	c.termVars(t.B)
}
