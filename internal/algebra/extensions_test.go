package algebra

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

func TestSingleProjectTreeBib(t *testing.T) {
	pi := treeBib(t)
	for _, path := range []string{"R.book.author", "R.book", "R.book.title", "R.book.nothing"} {
		p := pathexpr.MustParse(path)
		fast, err := SingleProject(pi, p)
		if err != nil {
			t.Fatalf("SingleProject(%s): %v", path, err)
		}
		if err := fast.Validate(); err != nil {
			t.Fatalf("result invalid (%s): %v", path, err)
		}
		induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := SingleProjectGlobal(pi, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !induced.Equal(naive, 1e-9) {
			t.Fatalf("single projection on %s diverges\nfast:\n%v\nnaive:\n%v",
				path, dump(induced), dump(naive))
		}
	}
}

func TestSingleProjectStructure(t *testing.T) {
	pi := treeBib(t)
	out, err := SingleProject(pi, pathexpr.MustParse("R.book.author"))
	if err != nil {
		t.Fatal(err)
	}
	// Books are gone; authors hang directly under the root.
	if out.HasObject("B1") || out.HasObject("B2") {
		t.Errorf("books survived single projection: %v", out.Objects())
	}
	if got := out.LCh("R", "author"); got.Len() != 3 {
		t.Errorf("root author children = %v", got)
	}
	// The root OPF captures the correlations: A1 and A2 live under the
	// same book, so their joint existence is correlated with B1's.
	w := out.OPF("R")
	if w == nil {
		t.Fatal("no root OPF")
	}
	if w.Prob(nil) <= 0 {
		t.Error("no-match mass missing")
	}
}

func TestDescendantProjectTreeBib(t *testing.T) {
	pi := treeBib(t)
	for _, path := range []string{"R.book.author", "R.book", "R.book.none"} {
		p := pathexpr.MustParse(path)
		fast, err := DescendantProject(pi, p)
		if err != nil {
			t.Fatalf("DescendantProject(%s): %v", path, err)
		}
		if err := fast.Validate(); err != nil {
			t.Fatalf("result invalid (%s): %v", path, err)
		}
		induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := DescendantProjectGlobal(pi, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !induced.Equal(naive, 1e-9) {
			t.Fatalf("descendant projection on %s diverges\nfast:\n%v\nnaive:\n%v",
				path, dump(induced), dump(naive))
		}
	}
}

func TestDescendantProjectKeepsSubtrees(t *testing.T) {
	pi := treeBib(t)
	out, err := DescendantProject(pi, pathexpr.MustParse("R.book.author"))
	if err != nil {
		t.Fatal(err)
	}
	// Institutions (below authors) survive; books and titles do not.
	if !out.HasObject("I1") || !out.HasObject("I3") {
		t.Errorf("institutions lost: %v", out.Objects())
	}
	if out.HasObject("B1") || out.HasObject("T1") {
		t.Errorf("ancestors/titles survived: %v", out.Objects())
	}
	// A1 keeps its original OPF over institutions.
	if got := out.OPF("A1").Prob(nil); !approx(got, 0.25) {
		t.Errorf("℘(A1)(∅) = %v, want 0.25", got)
	}
}

func TestMatchedProjectionWildcardTail(t *testing.T) {
	pi := treeBib(t)
	if _, err := SingleProject(pi, pathexpr.MustParse("R.book.*")); err == nil {
		t.Error("wildcard tail accepted by SingleProject")
	}
	if _, err := DescendantProjectGlobal(pi, pathexpr.MustParse("R.book.*"), 0); err == nil {
		t.Error("wildcard tail accepted by DescendantProjectGlobal")
	}
}

func TestMatchedProjectionRejectsDAG(t *testing.T) {
	if _, err := SingleProject(fixtures.Figure2(), pathexpr.MustParse("R.book")); err != ErrNotTree {
		t.Fatalf("err = %v, want ErrNotTree", err)
	}
}

// TestQuickSingleProjectMatchesOracle: random single projections agree
// with the enumeration oracle.
func TestQuickSingleProjectMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true
		}
		p := randomPath(r, pi, 1+r.Intn(3))
		if p.Len() > 0 && p.Labels[p.Len()-1] == pathexpr.Wildcard {
			p.Labels[p.Len()-1] = "a"
		}
		fast, err := SingleProject(pi, p)
		if err != nil {
			return false
		}
		induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
		if err != nil {
			return false
		}
		naive, err := SingleProjectGlobal(pi, p, 0)
		if err != nil {
			return false
		}
		return induced.Equal(naive, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDescendantProjectMatchesOracle: random descendant projections
// agree with the enumeration oracle.
func TestQuickDescendantProjectMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true
		}
		p := randomPath(r, pi, 1+r.Intn(2))
		if p.Len() > 0 && p.Labels[p.Len()-1] == pathexpr.Wildcard {
			p.Labels[p.Len()-1] = "b"
		}
		fast, err := DescendantProject(pi, p)
		if err != nil {
			return false
		}
		induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
		if err != nil {
			return false
		}
		naive, err := DescendantProjectGlobal(pi, p, 0)
		if err != nil {
			return false
		}
		return induced.Equal(naive, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinProductThenSelect(t *testing.T) {
	pi1 := smallInstance(t, "r1", "x")
	pi2 := smallInstance(t, "r2", "y")
	res, err := Join(pi1, pi2, "root", ObjectCondition{pathexpr.MustParse("root.k"), "ya"})
	if err != nil {
		t.Fatal(err)
	}
	// P(ya exists) = 0.9 in operand 2, independent of operand 1.
	if !approx(res.Prob, 0.9) {
		t.Errorf("join prob = %v, want 0.9", res.Prob)
	}
	if err := res.Instance.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := res.Instance.OPF("root").ProbContains("ya"); !approx(got, 1) {
		t.Errorf("P(ya | join) = %v, want 1", got)
	}
	// Join with an impossible condition.
	if _, err := Join(pi1, pi2, "root2", ObjectCondition{pathexpr.MustParse("root2.k"), "nope"}); err == nil {
		t.Error("impossible join accepted")
	}
}

func TestMixture(t *testing.T) {
	a := enumerate.NewGlobalInterpretation()
	b := enumerate.NewGlobalInterpretation()
	w1 := model.NewInstance("r")
	w2 := model.NewInstance("r")
	_ = w2.AddEdge("r", "x", "l")
	a.Add(w1, 1)
	b.Add(w2, 1)
	mix, err := Mixture(a, b, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(mix.Prob(w1), 0.25) || !approx(mix.Prob(w2), 0.75) {
		t.Errorf("mixture = %v / %v", mix.Prob(w1), mix.Prob(w2))
	}
	if !approx(mix.TotalMass(), 1) {
		t.Errorf("mass = %v", mix.TotalMass())
	}
	if _, err := Mixture(a, b, 1.5); err == nil {
		t.Error("invalid weight accepted")
	}
}
