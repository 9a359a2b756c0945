package query

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/model"
)

func TestExistenceMarginalsChainTree(t *testing.T) {
	pi := chainTree(t)
	marg, err := ExistenceMarginals(pi)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"r": 1, "x": 0.7, "y": 0.6,
		"u": 0.7 * 0.6, "v": 0.6 * 0.5,
	}
	for o, w := range want {
		if math.Abs(marg[o]-w) > 1e-9 {
			t.Errorf("marg(%s) = %v, want %v", o, marg[o], w)
		}
	}
}

func TestExistenceMarginalsRejectsDAG(t *testing.T) {
	if _, err := ExistenceMarginals(fixtures.Figure2()); err != ErrNotTree {
		t.Fatalf("err = %v, want ErrNotTree", err)
	}
}

// TestQuickExistenceMarginalsMatchOracle: the one-pass marginals equal the
// brute-force per-object existence probabilities on random trees.
func TestQuickExistenceMarginalsMatchOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true
		}
		marg, err := ExistenceMarginals(pi)
		if err != nil {
			return false
		}
		gi, err := enumerate.EnumerateCtx(context.Background(), pi, 0)
		if err != nil {
			return false
		}
		for _, o := range pi.Objects() {
			want := gi.ProbWhere(func(s *model.Instance) bool { return s.HasObject(o) })
			if math.Abs(marg[o]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}
