package algebra

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// checkSelectionAgainstOracle asserts the efficient selection's induced
// distribution and condition probability equal the Definition 5.6 global
// semantics.
func checkSelectionAgainstOracle(t testing.TB, pi *core.ProbInstance, cond Condition) {
	t.Helper()
	fast, pFast, err := Select(pi, cond)
	naive, pNaive, nErr := SelectGlobal(pi, cond, 0)
	if err != nil {
		if nErr != nil || pNaive == 0 {
			return // both agree the condition is unsatisfiable
		}
		t.Fatalf("Select(%s): %v (oracle prob %v)", cond, err, pNaive)
	}
	if nErr != nil {
		t.Fatalf("oracle failed where fast path succeeded: %v", nErr)
	}
	if !approx(pFast, pNaive) {
		t.Fatalf("P(%s) = %v fast vs %v naive", cond, pFast, pNaive)
	}
	if err := fast.Validate(); err != nil {
		t.Fatalf("selection result invalid: %v", err)
	}
	induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !induced.Equal(naive, 1e-9) {
		t.Fatalf("selection on %s diverges from oracle\nfast:\n%v\nnaive:\n%v",
			cond, dump(induced), dump(naive))
	}
}

func TestSelectObjectTreeBib(t *testing.T) {
	pi := treeBib(t)
	for _, c := range []ObjectCondition{
		{pathexpr.MustParse("R.book"), "B1"},
		{pathexpr.MustParse("R.book.author"), "A2"},
		{pathexpr.MustParse("R.book.author.institution"), "I3"},
	} {
		checkSelectionAgainstOracle(t, pi, c)
	}
}

// TestSelectExample52Shape mirrors Example 5.2: selecting R.book = B1
// renormalizes by P(B1 exists) and leaves the structure unchanged.
func TestSelectExample52Shape(t *testing.T) {
	pi := treeBib(t)
	out, p, err := Select(pi, ObjectCondition{pathexpr.MustParse("R.book"), "B1"})
	if err != nil {
		t.Fatal(err)
	}
	// P(B1) = 0.3 + 0.5.
	if !approx(p, 0.8) {
		t.Errorf("P(R.book = B1) = %v, want 0.8", p)
	}
	// Structure unchanged, root OPF conditioned on sets containing B1.
	if out.NumObjects() != pi.NumObjects() {
		t.Error("selection changed the structure")
	}
	w := out.OPF("R")
	if got := w.Prob(sets.NewSet("B2")); got != 0 {
		t.Errorf("℘'(R)({B2}) = %v, want 0", got)
	}
	if got := w.Prob(sets.NewSet("B1")); !approx(got, 0.3/0.8) {
		t.Errorf("℘'(R)({B1}) = %v, want 0.375", got)
	}
	// Only the (single) ancestor on the chain was touched.
	if !approx(out.OPF("B1").Prob(sets.NewSet("A1")), 0.2) {
		t.Error("off-chain OPF was modified")
	}
}

func TestSelectObjectZeroProbability(t *testing.T) {
	pi := treeBib(t)
	// I3 is not reachable via the title path.
	_, _, err := Select(pi, ObjectCondition{pathexpr.MustParse("R.book.title"), "I3"})
	if !errors.Is(err, ErrZeroProbability) {
		t.Fatalf("err = %v, want ErrZeroProbability", err)
	}
	// A structurally present edge with zero probability.
	pi2 := core.NewProbInstance("r")
	pi2.SetLCh("r", "a", "x")
	w := sets.NewSet("x")
	opf := pi2.OPF("r")
	_ = opf
	wOPF := newOPF(t, entry{nil, 1}, entry{w, 0})
	pi2.SetOPF("r", wOPF)
	_, _, err = Select(pi2, ObjectCondition{pathexpr.MustParse("r.a"), "x"})
	if !errors.Is(err, ErrZeroProbability) {
		t.Fatalf("err = %v, want ErrZeroProbability", err)
	}
}

type entry struct {
	s sets.Set
	p float64
}

func newOPF(t testing.TB, es ...entry) *prob.OPF {
	t.Helper()
	w := prob.NewOPF()
	for _, e := range es {
		w.Put(e.s, e.p)
	}
	return w
}

func TestSelectValueSingleLeaf(t *testing.T) {
	pi := treeBib(t)
	cond := ValueCondition{pathexpr.MustParse("R.book.title"), "Lore"}
	checkSelectionAgainstOracle(t, pi, cond)
	out, p, err := Select(pi, cond)
	if err != nil {
		t.Fatal(err)
	}
	// P = P(B1) · P(T1 ∈ c(B1)) · VPF(Lore) = 0.8 · (0.3+0.25)/... careful:
	// conditioned chain: P(B1 at root)=0.8, P(T1 at B1)=0.55, VPF=0.4.
	if !approx(p, 0.8*0.55*0.4) {
		t.Errorf("P(val) = %v, want %v", p, 0.8*0.55*0.4)
	}
	if got := out.VPF("T1").Prob("Lore"); !approx(got, 1) {
		t.Errorf("conditioned VPF = %v", got)
	}
}

func TestSelectValueMultiLeafNotRepresentable(t *testing.T) {
	// Two leaves under the same path with overlapping domains.
	pi := core.NewProbInstance("r")
	if err := pi.RegisterType(model.NewType("t", "x", "y")); err != nil {
		t.Fatal(err)
	}
	pi.SetLCh("r", "a", "u", "v")
	pi.SetOPF("r", newOPF(t, entry{sets.NewSet("u", "v"), 1}))
	for _, leaf := range []string{"u", "v"} {
		if err := pi.SetLeafType(leaf, "t"); err != nil {
			t.Fatal(err)
		}
		v := prob.NewVPF()
		v.Put("x", 0.5)
		v.Put("y", 0.5)
		pi.SetVPF(leaf, v)
	}
	_, _, err := Select(pi, ValueCondition{pathexpr.MustParse("r.a"), "x"})
	if !errors.Is(err, ErrNotRepresentable) {
		t.Fatalf("err = %v, want ErrNotRepresentable", err)
	}
	// The global semantics still answers exactly.
	naive, p, err := SelectGlobal(pi, ValueCondition{pathexpr.MustParse("r.a"), "x"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 0.75) { // 1 − (0.5)²
		t.Errorf("P = %v, want 0.75", p)
	}
	if !approx(naive.TotalMass(), 1) {
		t.Errorf("naive mass = %v", naive.TotalMass())
	}
}

func TestSelectValueImpossible(t *testing.T) {
	pi := treeBib(t)
	_, _, err := Select(pi, ValueCondition{pathexpr.MustParse("R.book.title"), "Nope"})
	if !errors.Is(err, ErrZeroProbability) {
		t.Fatalf("err = %v, want ErrZeroProbability", err)
	}
}

func TestSelectCardCondition(t *testing.T) {
	pi := treeBib(t)
	// B1 has exactly 2 authors.
	cond := CardCondition{pathexpr.MustParse("R.book"), "B1", "author", sets.Interval{Min: 2, Max: 2}}
	checkSelectionAgainstOracle(t, pi, cond)
	out, p, err := Select(pi, cond)
	if err != nil {
		t.Fatal(err)
	}
	// P = P(B1) · P(|authors| = 2 | B1) = 0.8 · (0.15 + 0.25).
	if !approx(p, 0.8*0.4) {
		t.Errorf("P = %v, want 0.32", p)
	}
	if got := out.OPF("B1").Prob(sets.NewSet("A1")); got != 0 {
		t.Errorf("one-author set kept with prob %v", got)
	}
	// Impossible cardinality.
	_, _, err = Select(pi, CardCondition{pathexpr.MustParse("R.book"), "B1", "author", sets.Interval{Min: 3, Max: 9}})
	if !errors.Is(err, ErrZeroProbability) {
		t.Fatalf("err = %v, want ErrZeroProbability", err)
	}
	// Cardinality condition on a leaf object: satisfied only by zero.
	leafCond := CardCondition{pathexpr.MustParse("R.book.author.institution"), "I3", "anything", sets.Interval{Min: 0, Max: 0}}
	checkSelectionAgainstOracle(t, pi, leafCond)
}

func TestSelectRejectsDAG(t *testing.T) {
	_, _, err := Select(fixtures.Figure2(), ObjectCondition{pathexpr.MustParse("R.book"), "B1"})
	if err != ErrNotTree {
		t.Fatalf("err = %v, want ErrNotTree", err)
	}
	// SelectGlobal handles the DAG.
	naive, p, err := SelectGlobal(fixtures.Figure2(), ObjectCondition{pathexpr.MustParse("R.book"), "B1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 0.8) { // {B1,B2} + {B1,B3} + {B1,B2,B3}
		t.Errorf("P(B1) = %v, want 0.8", p)
	}
	if !approx(naive.TotalMass(), 1) {
		t.Errorf("mass = %v", naive.TotalMass())
	}
}

// TestQuickSelectObjectMatchesOracle: random object selections on random
// trees agree with the global semantics.
func TestQuickSelectObjectMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true // keep the enumeration oracle tractable
		}
		objs := pi.Objects()
		o := objs[r.Intn(len(objs))]
		p := pathToObject(pi, o)
		cond := ObjectCondition{p, o}
		fast, pFast, err := Select(pi, cond)
		naive, pNaive, nErr := SelectGlobal(pi, cond, 0)
		if err != nil {
			return nErr != nil || pNaive == 0
		}
		if nErr != nil || !approx(pFast, pNaive) {
			return false
		}
		induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
		if err != nil {
			return false
		}
		return induced.Equal(naive, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// pathToObject reconstructs the label path from the root to o in a tree.
func pathToObject(pi *core.ProbInstance, o model.ObjectID) pathexpr.Path {
	g := pi.WeakInstance.Graph()
	var labels []model.Label
	cur := o
	for cur != pi.Root() {
		ps := g.Parents(cur)
		if len(ps) == 0 {
			break
		}
		l, _ := g.Label(ps[0], cur)
		labels = append([]model.Label{l}, labels...)
		cur = ps[0]
	}
	return pathexpr.Path{Root: pi.Root(), Labels: labels}
}

func TestSelectTimings(t *testing.T) {
	pi := treeBib(t)
	var tm Timings
	_, _, err := SelectTimed(pi, ObjectCondition{pathexpr.MustParse("R.book.author"), "A1"}, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Copy <= 0 {
		t.Error("selection must record copy time")
	}
}

func TestConditionStrings(t *testing.T) {
	oc := ObjectCondition{pathexpr.MustParse("R.book"), "B1"}
	if oc.String() != "R.book = B1" {
		t.Errorf("ObjectCondition.String = %q", oc.String())
	}
	vc := ValueCondition{pathexpr.MustParse("R.book.title"), "Lore"}
	if vc.String() != "val(R.book.title) = Lore" {
		t.Errorf("ValueCondition.String = %q", vc.String())
	}
	cc := CardCondition{pathexpr.MustParse("R.book"), "B1", "author", sets.Interval{Min: 1, Max: 2}}
	if cc.String() == "" {
		t.Error("CardCondition.String empty")
	}
}

func TestSelectUnsupportedCondition(t *testing.T) {
	pi := treeBib(t)
	_, _, err := SelectTimed(pi, fakeCondition{}, nil)
	if err == nil {
		t.Fatal("unsupported condition accepted")
	}
}

type fakeCondition struct{}

func (fakeCondition) Satisfies(*model.Instance) bool { return true }
func (fakeCondition) String() string                 { return "fake" }
