package bv

import (
	"errors"
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

func TestInternerPointerEquality(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	a := in.Add(x, in.Byte(1))
	b := in.Add(in.Var("x", 8), in.Byte(1))
	if a != b {
		t.Fatal("structurally equal terms from one interner must be pointer-equal")
	}
}

func TestSeparateInternersShareNothing(t *testing.T) {
	in1, in2 := NewInterner(), NewInterner()
	a := in1.Add(in1.Var("x", 8), in1.Byte(1))
	b := in2.Add(in2.Var("x", 8), in2.Byte(1))
	if a == b {
		t.Fatal("distinct interners must not share nodes")
	}
	// Mixing is safe: rewrites only rely on pointer-equal => structurally
	// equal, so a cross-interner combination must still evaluate correctly.
	f := in1.Eq(a, b)
	if valid, _, _ := in1.IsValid(nil, 0, f); !valid {
		t.Fatal("x+1 == x+1 must hold across interners")
	}
}

func TestSoftCapClearKeepsNodesValid(t *testing.T) {
	in := NewInterner().SetSoftCap(4)
	old := in.Add(in.Var("x", 8), in.Byte(1))
	// Blow past the cap so the term table is cleared at least once.
	for i := 0; i < 64; i++ {
		in.Byte(byte(i))
	}
	// The handed-out node stays valid, and rebuilding the same shape yields a
	// fresh (non-shared) but structurally identical node.
	rebuilt := in.Add(in.Var("x", 8), in.Byte(1))
	if old.String() != rebuilt.String() {
		t.Fatalf("rebuilt %v, want %v", rebuilt, old)
	}
}

func TestInternerChargesNodeBudget(t *testing.T) {
	b := engine.NewBudget(nil, engine.Limits{Nodes: 8})
	in := NewInterner().SetBudget(b)
	for i := 0; i < 32; i++ {
		in.Byte(byte(i))
	}
	if !b.Exceeded() || !errors.Is(b.Err(), engine.ErrBudget) {
		t.Fatalf("node budget not charged: err=%v nodes=%d", b.Err(), b.Nodes())
	}
	if in.Nodes() < 8 {
		t.Fatalf("Nodes() = %d, want >= 8", in.Nodes())
	}
}

func TestInternerDedupDoesNotRecharge(t *testing.T) {
	b := engine.NewBudget(nil, engine.Limits{Nodes: 100})
	in := NewInterner().SetBudget(b)
	for i := 0; i < 50; i++ {
		in.Byte(7) // same node every time
	}
	if got := b.Nodes(); got != 1 {
		t.Fatalf("interning the same node 50 times charged %d nodes, want 1", got)
	}
}

// TestInternHitsAllocateNothing pins the by-value intern path: rebuilding
// nodes the table already holds allocates nothing.
func TestInternHitsAllocateNothing(t *testing.T) {
	in := NewInterner()
	x, y := in.Var("x", 8), in.Var("y", 8)
	p, q := in.Eq(x, in.Byte('a')), in.Ult(y, x)
	in.BAnd2(p, q)
	in.BOr2(p, q)
	ctors := map[string]func(){
		"Byte":  func() { in.Byte('a') },
		"Var":   func() { in.Var("x", 8) },
		"Eq":    func() { in.Eq(x, in.Byte('a')) },
		"BAnd2": func() { in.BAnd2(p, q) },
		"BOr2":  func() { in.BOr2(p, q) },
	}
	for name, f := range ctors {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s on interned operands: %v allocations per call, want 0", name, allocs)
		}
	}
}

// TestInternAccountsMissesOnly checks that the node count, the budget's node
// charge and the BVNodeExhaust site all move on a table miss, by exactly one,
// and never on a hit.
func TestInternAccountsMissesOnly(t *testing.T) {
	b := engine.NewBudget(nil, engine.Limits{})
	// Rate 0.5 keeps the site armed without failing the budget on every node;
	// the test counts consultations, not firings.
	faults := faultpoint.New(faultpoint.Config{Seed: 7, Rates: map[faultpoint.Site]float64{faultpoint.BVNodeExhaust: 0.5}})
	in := NewInterner().SetBudget(b).SetFaults(faults)
	counts := func() [3]int64 {
		return [3]int64{in.Nodes(), b.Nodes(), int64(faults.Calls(faultpoint.BVNodeExhaust))}
	}
	build := []func(){
		func() { in.Byte('a') },
		func() { in.Var("x", 8) },
		func() { in.Eq(in.Var("x", 8), in.Byte('a')) },
		func() { in.BoolVar("x") }, // same name as the term var, other sort
		func() { in.BAnd2(in.BoolVar("x"), in.Eq(in.Var("x", 8), in.Byte('a'))) },
		func() { in.BOr2(in.BoolVar("x"), in.Eq(in.Var("x", 8), in.Byte('a'))) },
	}
	for i, f := range build {
		before := counts()
		f() // exactly one new node: every operand was built by an earlier step
		after := counts()
		for j := range after {
			if after[j] != before[j]+1 {
				t.Fatalf("step %d: counts %v -> %v, want each to grow by one", i, before, after)
			}
		}
		f()
		if again := counts(); again != after {
			t.Fatalf("step %d rebuilt: counts %v -> %v, want no change on a hit", i, after, again)
		}
	}
}
