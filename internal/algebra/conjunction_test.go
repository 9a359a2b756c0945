package algebra

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/pathexpr"
	"pxml/internal/sets"
)

func TestConjunctionSelectTreeBib(t *testing.T) {
	pi := treeBib(t)
	cond := Conjunction{Conds: []Condition{
		ObjectCondition{pathexpr.MustParse("R.book.author"), "A1"},
		ObjectCondition{pathexpr.MustParse("R.book.author"), "A3"},
	}}
	checkSelectionAgainstOracle(t, pi, cond)
	out, p, err := Select(pi, cond)
	if err != nil {
		t.Fatal(err)
	}
	// P(A1 ∧ A3) = P({B1,B2} at root)·P(A1 ∈ c(B1))·P(A3 ∈ c(B2))
	//            = 0.5 · (0.2+0.15+0.25) · 0.6 = 0.18.
	if !approx(p, 0.5*0.6*0.6) {
		t.Errorf("P = %v, want %v", p, 0.5*0.6*0.6)
	}
	// Root conditioned on containing both books.
	if got := out.OPF("R").Prob(sets.NewSet("B1")); got != 0 {
		t.Errorf("root kept single-book set with %v", got)
	}
}

// TestConjunctionSharedPrefix: two conditions through the same book share
// the root conditioning.
func TestConjunctionSharedPrefix(t *testing.T) {
	pi := treeBib(t)
	cond := Conjunction{Conds: []Condition{
		ObjectCondition{pathexpr.MustParse("R.book.author"), "A1"},
		ObjectCondition{pathexpr.MustParse("R.book.author"), "A2"},
		ObjectCondition{pathexpr.MustParse("R.book.title"), "T1"},
	}}
	checkSelectionAgainstOracle(t, pi, cond)
	_, p, err := Select(pi, cond)
	if err != nil {
		t.Fatal(err)
	}
	// All three under B1: P(B1)·P({A1,A2,T1}|B1) = 0.8·0.25.
	if !approx(p, 0.8*0.25) {
		t.Errorf("P = %v, want 0.2", p)
	}
}

func TestConjunctionErrors(t *testing.T) {
	pi := treeBib(t)
	// Impossible combination: B1 can have at most authors {A1,A2}; A3 lives
	// under B2, but requiring A3 via a title path is unsatisfiable.
	cond := Conjunction{Conds: []Condition{
		ObjectCondition{pathexpr.MustParse("R.book.title"), "A3"},
	}}
	if _, _, err := Select(pi, cond); !errors.Is(err, ErrZeroProbability) {
		t.Fatalf("err = %v", err)
	}
	// Mixed condition kinds fall back to the global route.
	mixed := Conjunction{Conds: []Condition{
		ObjectCondition{pathexpr.MustParse("R.book"), "B1"},
		ValueCondition{pathexpr.MustParse("R.book.title"), "Lore"},
	}}
	if _, _, err := Select(pi, mixed); err == nil {
		t.Error("mixed conjunction accepted by fast path")
	}
	// ... but SelectGlobal answers it.
	_, p, err := SelectGlobal(pi, mixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Errorf("global conjunction P = %v", p)
	}
	// Empty conjunction = no constraint.
	empty := Conjunction{}
	out, p, err := Select(pi, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 1) || out == nil {
		t.Errorf("empty conjunction P = %v", p)
	}
}

// TestQuickConjunctionMatchesOracle: random pairs of object conditions on
// random trees agree with the global semantics.
func TestQuickConjunctionMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 || pi.NumObjects() < 3 {
			return true
		}
		objs := pi.Objects()
		o1 := objs[r.Intn(len(objs))]
		o2 := objs[r.Intn(len(objs))]
		cond := Conjunction{Conds: []Condition{
			ObjectCondition{pathToObject(pi, o1), o1},
			ObjectCondition{pathToObject(pi, o2), o2},
		}}
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}
