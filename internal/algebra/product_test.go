package algebra

import (
	"context"
	"math/rand"
	"strings"
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

// smallInstance builds a two-level probabilistic instance with a root OPF
// over one or two children.
func smallInstance(t testing.TB, root, prefix string) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance(root)
	a, b := prefix+"a", prefix+"b"
	pi.SetLCh(root, "k", a, b)
	w := prob.NewOPF()
	w.Put(sets.NewSet(), 0.1)
	w.Put(sets.NewSet(a), 0.4)
	w.Put(sets.NewSet(a, b), 0.5)
	pi.SetOPF(root, w)
	pi.SetLCh(a, "m", prefix+"c")
	wa := prob.NewOPF()
	wa.Put(sets.NewSet(), 0.3)
	wa.Put(sets.NewSet(prefix+"c"), 0.7)
	pi.SetOPF(a, wa)
	if err := pi.Validate(); err != nil {
		t.Fatal(err)
	}
	return pi
}

func TestCartesianProductMatchesOracle(t *testing.T) {
	pi1 := smallInstance(t, "r1", "x")
	pi2 := smallInstance(t, "r2", "y")
	out, renames, err := CartesianProduct(pi1, pi2, "root")
	if err != nil {
		t.Fatal(err)
	}
	if len(renames) != 0 {
		t.Errorf("unexpected renames: %v", renames)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("product invalid: %v", err)
	}
	induced, err := enumerate.EnumerateCtx(context.Background(), out, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CartesianProductGlobal(pi1, pi2, "root", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !induced.Equal(naive, 1e-9) {
		t.Fatalf("product diverges from oracle\nfast:\n%v\nnaive:\n%v", dump(induced), dump(naive))
	}
}

func TestCartesianProductRenames(t *testing.T) {
	pi1 := smallInstance(t, "r1", "x")
	pi2 := smallInstance(t, "r2", "x") // same object ids
	out, renames, err := CartesianProduct(pi1, pi2, "root")
	if err != nil {
		t.Fatal(err)
	}
	if len(renames) != 3 { // xa, xb, xc
		t.Fatalf("renames = %v", renames)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("renamed product invalid: %v", err)
	}
	// Both variants of xa exist.
	if !out.HasObject("xa") || !out.HasObject("xa′") {
		t.Errorf("objects = %v", out.Objects())
	}
	// Mass still coherent.
	gi, err := enumerate.EnumerateCtx(context.Background(), out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(gi.TotalMass(), 1) {
		t.Errorf("mass = %v", gi.TotalMass())
	}
}

func TestCartesianProductRootOPF(t *testing.T) {
	pi1 := smallInstance(t, "r1", "x")
	pi2 := smallInstance(t, "r2", "y")
	out, _, err := CartesianProduct(pi1, pi2, "root")
	if err != nil {
		t.Fatal(err)
	}
	w := out.OPF("root")
	// ω″({xa} ∪ {ya,yb}) = 0.4 · 0.5.
	if got := w.Prob(sets.NewSet("xa", "ya", "yb")); !approx(got, 0.2) {
		t.Errorf("product OPF = %v", got)
	}
	if got := w.Prob(sets.NewSet()); !approx(got, 0.01) {
		t.Errorf("P(∅) = %v", got)
	}
	// Merged card: both operands had card [0,2] under label k → [0,4].
	if got := out.Card("root", "k"); got.Min != 0 || got.Max != 4 {
		t.Errorf("merged card = %v", got)
	}
}

func TestCartesianProductErrors(t *testing.T) {
	pi1 := smallInstance(t, "r1", "x")
	pi2 := smallInstance(t, "r2", "y")
	if _, _, err := CartesianProduct(pi1, pi2, "xa"); err == nil {
		t.Error("colliding new root accepted")
	}
	// Typed root.
	typed := core.NewProbInstance("tr")
	if err := typed.RegisterType(model.NewType("t", "v")); err != nil {
		t.Fatal(err)
	}
	if err := typed.SetLeafType("tr", "t"); err != nil {
		t.Fatal(err)
	}
	typed.SetVPF("tr", prob.PointMass("v"))
	if _, _, err := CartesianProduct(typed, pi2, "root"); err == nil {
		t.Error("typed root accepted")
	}
	// Type clash.
	c1 := core.NewProbInstance("r1")
	_ = c1.RegisterType(model.NewType("t", "a"))
	c2 := core.NewProbInstance("r2")
	_ = c2.RegisterType(model.NewType("t", "b"))
	if _, _, err := CartesianProduct(c1, c2, "root"); err == nil || !strings.Contains(err.Error(), "type clash") {
		t.Errorf("type clash: %v", err)
	}
}

func TestCartesianProductBareRoots(t *testing.T) {
	c1 := core.NewProbInstance("r1")
	c2 := core.NewProbInstance("r2")
	out, _, err := CartesianProduct(c1, c2, "root")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumObjects() != 1 || !out.IsLeaf("root") {
		t.Errorf("bare product = %v", out.Objects())
	}
}

// TestQuickCartesianProductMatchesOracle: products of random disjoint trees
// agree with the pairwise-merge oracle.
func TestQuickCartesianProductMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi1 := fixtures.RandomTree(r)
		pi2 := fixtures.RandomTree(r)
		if pi1.NumObjects()*pi2.NumObjects() > 60 {
			return true // keep the oracle tractable
		}
		// Make universes disjoint up front so the oracle applies directly.
		ren := make(map[model.ObjectID]model.ObjectID)
		for _, o := range pi2.Objects() {
			ren[o] = "q_" + o
		}
		pi2 = pi2.Rename(ren)
		out, renames, err := CartesianProduct(pi1, pi2, "ROOT")
		if err != nil || len(renames) != 0 {
			return false
		}
		if out.Validate() != nil {
			return false
		}
		induced, err := enumerate.EnumerateCtx(context.Background(), out, 0)
		if err != nil {
			return false
		}
		naive, err := CartesianProductGlobal(pi1, pi2, "ROOT", 0)
		if err != nil {
			return false
		}
		return induced.Equal(naive, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestSection2Scenario3: "we have two probabilistic instances about books
// of two different areas and we want to combine them into one" — the
// product then answers path queries spanning both sources.
func TestSection2Scenario3(t *testing.T) {
	db := treeBib(t)
	ai := core.NewProbInstance("R2")
	ai.SetLCh("R2", "book", "B9")
	w := prob.NewOPF()
	w.Put(sets.NewSet(), 0.25)
	w.Put(sets.NewSet("B9"), 0.75)
	ai.SetOPF("R2", w)
	ai.SetLCh("B9", "author", "A9")
	w9 := prob.NewOPF()
	w9.Put(sets.NewSet("A9"), 1)
	ai.SetOPF("B9", w9)

	out, _, err := CartesianProduct(db, ai, "LIB")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// The same path expression now reaches authors from both sources.
	g := out.WeakInstance.Graph()
	targets := pathexpr.MustParse("LIB.book.author").Targets(g)
	want := []string{"A1", "A2", "A3", "A9"}
	if len(targets) != len(want) {
		t.Fatalf("targets = %v", targets)
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Fatalf("targets = %v, want %v", targets, want)
		}
	}
}

// TestProductWithBareRootIsRename: I × (bare root) re-roots I without
// changing its distribution — the product's unit law up to root renaming.
func TestProductWithBareRootIsRename(t *testing.T) {
	pi := smallInstance(t, "r1", "x")
	unit := core.NewProbInstance("r2")
	out, renames, err := CartesianProduct(pi, unit, "ROOT")
	if err != nil {
		t.Fatal(err)
	}
	if len(renames) != 0 {
		t.Fatalf("renames = %v", renames)
	}
	want := pi.Rename(map[model.ObjectID]model.ObjectID{"r1": "ROOT"})
	if !core.Equal(out, want, 1e-9) {
		t.Error("product with unit is not a root rename")
	}
	// And the induced distributions agree with the oracle, too.
	a, err := enumerate.EnumerateCtx(context.Background(), out, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := enumerate.EnumerateCtx(context.Background(), want, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b, 1e-9) {
		t.Error("unit-product distribution differs")
	}
}
