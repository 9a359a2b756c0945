package algebra

import (
	"context"
	"fmt"
	"math"
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

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// treeBib builds a tree-structured bibliographic probabilistic instance
// (Figure 2 without the shared children, so the fast algorithms apply).
func treeBib(t testing.TB) *core.ProbInstance {
	pi := core.NewProbInstance("R")
	if err := pi.RegisterType(model.NewType("title-type", "VQDB", "Lore")); err != nil {
		t.Fatal(err)
	}
	pi.SetLCh("R", "book", "B1", "B2")
	pi.SetCard("R", "book", 1, 2)
	w := prob.NewOPF()
	w.Put(sets.NewSet("B1"), 0.3)
	w.Put(sets.NewSet("B2"), 0.2)
	w.Put(sets.NewSet("B1", "B2"), 0.5)
	pi.SetOPF("R", w)

	pi.SetLCh("B1", "author", "A1", "A2")
	pi.SetLCh("B1", "title", "T1")
	w = prob.NewOPF()
	w.Put(sets.NewSet(), 0.1)
	w.Put(sets.NewSet("A1"), 0.2)
	w.Put(sets.NewSet("A2", "T1"), 0.3)
	w.Put(sets.NewSet("A1", "A2"), 0.15)
	w.Put(sets.NewSet("A1", "A2", "T1"), 0.25)
	pi.SetOPF("B1", w)

	pi.SetLCh("B2", "author", "A3")
	w = prob.NewOPF()
	w.Put(sets.NewSet(), 0.4)
	w.Put(sets.NewSet("A3"), 0.6)
	pi.SetOPF("B2", w)

	pi.SetLCh("A1", "institution", "I1")
	w = prob.NewOPF()
	w.Put(sets.NewSet(), 0.25)
	w.Put(sets.NewSet("I1"), 0.75)
	pi.SetOPF("A1", w)

	pi.SetLCh("A2", "institution", "I2")
	w = prob.NewOPF()
	w.Put(sets.NewSet("I2"), 1)
	pi.SetOPF("A2", w)

	pi.SetLCh("A3", "institution", "I3")
	w = prob.NewOPF()
	w.Put(sets.NewSet(), 0.5)
	w.Put(sets.NewSet("I3"), 0.5)
	pi.SetOPF("A3", w)

	if err := pi.SetLeafType("T1", "title-type"); err != nil {
		t.Fatal(err)
	}
	v := prob.NewVPF()
	v.Put("VQDB", 0.6)
	v.Put("Lore", 0.4)
	pi.SetVPF("T1", v)

	if err := pi.Validate(); err != nil {
		t.Fatalf("treeBib invalid: %v", err)
	}
	if !pi.IsTree() {
		t.Fatal("treeBib must be a tree")
	}
	return pi
}

// checkProjectionAgainstOracle asserts the efficient ancestor projection's
// induced distribution equals the global-semantics result.
func checkProjectionAgainstOracle(t testing.TB, pi *core.ProbInstance, path string) {
	t.Helper()
	p := pathexpr.MustParse(path)
	fast, err := AncestorProject(pi, p)
	if err != nil {
		t.Fatalf("AncestorProject(%s): %v", path, err)
	}
	if err := fast.Validate(); err != nil {
		t.Fatalf("projection result invalid (%s): %v", path, err)
	}
	induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
	if err != nil {
		t.Fatalf("enumerating result: %v", err)
	}
	naive, err := AncestorProjectGlobal(pi, p, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !induced.Equal(naive, 1e-9) {
		t.Fatalf("projection on %s diverges from oracle\nfast:\n%v\nnaive:\n%v",
			path, dump(induced), dump(naive))
	}
}

func dump(gi *enumerate.GlobalInterpretation) string {
	out := ""
	for _, w := range gi.Worlds() {
		out += fmt.Sprintf("%s -> %.9f\n", w.S, w.P)
	}
	return out
}

func TestAncestorProjectTreeBib(t *testing.T) {
	pi := treeBib(t)
	for _, path := range []string{
		"R.book.author",
		"R.book.author.institution",
		"R.book.title",
		"R.book",
		"R.book.journal", // no match
		"R.*.author",     // wildcard extension
	} {
		checkProjectionAgainstOracle(t, pi, path)
	}
}

func TestAncestorProjectStructure(t *testing.T) {
	pi := treeBib(t)
	out, err := AncestorProject(pi, pathexpr.MustParse("R.book.author"))
	if err != nil {
		t.Fatal(err)
	}
	// Titles and institutions are gone; authors are untyped leaves.
	for _, gone := range []string{"T1", "I1", "I2", "I3"} {
		if out.HasObject(gone) {
			t.Errorf("object %s should be projected away", gone)
		}
	}
	for _, leaf := range []string{"A1", "A2", "A3"} {
		if !out.IsLeaf(leaf) {
			t.Errorf("%s should be a leaf", leaf)
		}
		if out.OPF(leaf) != nil || out.VPF(leaf) != nil {
			t.Errorf("%s should carry no local function", leaf)
		}
	}
	// B1's OPF marginalizes T1 away and drops ∅ (it must have an author).
	w := out.OPF("B1")
	if w == nil {
		t.Fatal("B1 lost its OPF")
	}
	if got := w.Prob(sets.NewSet()); got != 0 {
		t.Errorf("℘'(B1)(∅) = %v, want 0", got)
	}
	// Root keeps its ∅ mass: worlds where neither book has an author.
	rw := out.OPF("R")
	if rw.Prob(sets.NewSet()) <= 0 {
		t.Error("root should keep a no-match mass")
	}
	// Cardinality updated: author card of B1 is now [1,2].
	if got := out.Card("B1", "author"); got.Min != 1 || got.Max != 2 {
		t.Errorf("card'(B1,author) = %v", got)
	}
}

// TestAncestorProjectMatchedLeafKeepsVPF: projecting onto a path that ends
// at typed leaves keeps their VPFs.
func TestAncestorProjectMatchedLeafKeepsVPF(t *testing.T) {
	pi := treeBib(t)
	out, err := AncestorProject(pi, pathexpr.MustParse("R.book.title"))
	if err != nil {
		t.Fatal(err)
	}
	v := out.VPF("T1")
	if v == nil || !approx(v.Prob("VQDB"), 0.6) {
		t.Errorf("VPF(T1) = %v", v)
	}
	checkProjectionAgainstOracle(t, pi, "R.book.title")
}

func TestAncestorProjectNoMatchIsBareRoot(t *testing.T) {
	pi := treeBib(t)
	out, err := AncestorProject(pi, pathexpr.MustParse("R.nothing.here"))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumObjects() != 1 || !out.IsLeaf("R") {
		t.Errorf("no-match result = %v", out.Objects())
	}
	// Bare path expression (just the root).
	out, err = AncestorProject(pi, pathexpr.MustParse("R"))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumObjects() != 1 {
		t.Errorf("bare-root projection = %v", out.Objects())
	}
	// Wrong root.
	out, err = AncestorProject(pi, pathexpr.MustParse("Z.book"))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumObjects() != 1 {
		t.Errorf("wrong-root projection = %v", out.Objects())
	}
}

func TestAncestorProjectRejectsDAG(t *testing.T) {
	if _, err := AncestorProject(fixtures.Figure2(), pathexpr.MustParse("R.book.author")); err != ErrNotTree {
		t.Fatalf("err = %v, want ErrNotTree", err)
	}
}

// TestAncestorProjectZeroProbBranch: a child with zero marginal probability
// is stripped from the result even though it is structurally on a match
// path.
func TestAncestorProjectZeroProbBranch(t *testing.T) {
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "a", "x", "y")
	w := prob.NewOPF()
	w.Put(sets.NewSet("x"), 1) // y never occurs
	w.Put(sets.NewSet("y"), 0)
	pi.SetOPF("r", w)
	pi.SetLCh("x", "b", "u")
	wx := prob.NewOPF()
	wx.Put(sets.NewSet(), 0.5)
	wx.Put(sets.NewSet("u"), 0.5)
	pi.SetOPF("x", wx)
	pi.SetLCh("y", "b", "v")
	wy := prob.NewOPF()
	wy.Put(sets.NewSet("v"), 1)
	pi.SetOPF("y", wy)

	out, err := AncestorProject(pi, pathexpr.MustParse("r.a.b"))
	if err != nil {
		t.Fatal(err)
	}
	if out.HasObject("y") || out.HasObject("v") {
		t.Errorf("zero-probability branch survived: %v", out.Objects())
	}
	checkProjectionAgainstOracle(t, pi, "r.a.b")
}

// TestAncestorProjectImpossibleMatch: the match exists structurally but has
// probability zero everywhere; the result collapses to the bare root.
func TestAncestorProjectImpossibleMatch(t *testing.T) {
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "a", "x")
	w := prob.NewOPF()
	w.Put(sets.NewSet(), 1)
	w.Put(sets.NewSet("x"), 0)
	pi.SetOPF("r", w)
	out, err := AncestorProject(pi, pathexpr.MustParse("r.a"))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumObjects() != 1 {
		t.Errorf("impossible match result = %v", out.Objects())
	}
}

// TestQuickAncestorProjectMatchesOracle is the central property test: on
// random tree instances and random label paths, the Section 6.1 algorithm
// agrees exactly with the Definition 5.3 global semantics.
func TestQuickAncestorProjectMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true // keep the enumeration oracle tractable
		}
		p := randomPath(r, pi, r.Intn(4))
		fast, err := AncestorProject(pi, p)
		if err != nil {
			return false
		}
		if fast.Validate() != nil {
			return false
		}
		induced, err := enumerate.EnumerateCtx(context.Background(), fast, 0)
		if err != nil {
			return false
		}
		naive, err := AncestorProjectGlobal(pi, p, 0)
		if err != nil {
			return false
		}
		return induced.Equal(naive, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// randomPath builds a path expression of the given length over the labels
// actually used at each depth of the instance (mirroring the experimental
// design of Section 7.1), occasionally inserting labels that match nothing.
func randomPath(r *rand.Rand, pi *core.ProbInstance, length int) pathexpr.Path {
	g := pi.WeakInstance.Graph()
	p := pathexpr.Path{Root: pi.Root()}
	frontier := []string{pi.Root()}
	for i := 0; i < length; i++ {
		labelSet := map[string]bool{}
		var next []string
		for _, o := range frontier {
			g.EachChild(o, func(child, label string) {
				labelSet[label] = true
				next = append(next, child)
			})
		}
		labels := make([]string, 0, len(labelSet))
		for l := range labelSet {
			labels = append(labels, l)
		}
		var l string
		switch {
		case len(labels) == 0 || r.Intn(8) == 0:
			l = "zz" // no match from here on
		case r.Intn(8) == 0:
			l = pathexpr.Wildcard
		default:
			l = labels[r.Intn(len(labels))]
		}
		p.Labels = append(p.Labels, l)
		frontier = next
	}
	return p
}

// TestAncestorProjectTimings: the timed variant records non-negative phase
// durations that sum to Total.
func TestAncestorProjectTimings(t *testing.T) {
	pi := treeBib(t)
	var tm Timings
	if _, err := AncestorProjectTimed(pi, pathexpr.MustParse("R.book.author"), &tm); err != nil {
		t.Fatal(err)
	}
	if tm.Locate < 0 || tm.Structure < 0 || tm.Update < 0 {
		t.Errorf("negative timings: %+v", tm)
	}
	if tm.Total() != tm.Copy+tm.Locate+tm.Structure+tm.Update {
		t.Error("Total mismatch")
	}
}

// TestFigure5Merging reproduces Figure 5 of the paper: two compatible
// instances S1 (B1 with author A1 and title T1) and S2 (B1 with author A1
// only) both project under Λ_{R.book.author} to the same instance S3, so
// the probability of S3 in the result is P(S1) + P(S2).
func TestFigure5Merging(t *testing.T) {
	mkWorld := func(withTitle bool) *model.Instance {
		s := model.NewInstance("R")
		_ = s.AddEdge("R", "B1", "book")
		_ = s.AddEdge("B1", "A1", "author")
		if withTitle {
			_ = s.RegisterType(model.NewType("title-type", "VQDB", "Lore"))
			_ = s.AddEdge("B1", "T1", "title")
			_ = s.SetLeaf("T1", "title-type", "VQDB")
		}
		return s
	}
	gi := enumerate.NewGlobalInterpretation()
	gi.Add(mkWorld(true), 0.3)      // S1
	gi.Add(mkWorld(false), 0.2)     // S2
	other := model.NewInstance("R") // a world with no match at all
	gi.Add(other, 0.5)

	p := pathexpr.MustParse("R.book.author")
	projected := gi.Transform(func(s *model.Instance) *model.Instance {
		return pathexpr.ProjectAncestors(s, p)
	})
	s3 := model.NewInstance("R")
	_ = s3.AddEdge("R", "B1", "book")
	_ = s3.AddEdge("B1", "A1", "author")
	if got := projected.Prob(s3); !approx(got, 0.5) {
		t.Errorf("P(S3) = %v, want P(S1)+P(S2) = 0.5", got)
	}
	if got := projected.Prob(model.NewInstance("R")); !approx(got, 0.5) {
		t.Errorf("P(root-only) = %v, want 0.5", got)
	}
}

// TestQuickProjectionIdempotent: Λ_p(Λ_p(I)) = Λ_p(I). After a projection
// every kept child lies on a match path and every subtree terminates in
// matched objects, so all survival probabilities are one and a second
// projection changes nothing.
func TestQuickProjectionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		p := randomPath(r, pi, 1+r.Intn(3))
		once, err := AncestorProject(pi, p)
		if err != nil {
			return false
		}
		twice, err := AncestorProject(once, p)
		if err != nil {
			return false
		}
		return core.Equal(once, twice, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSelectionIdempotent: selecting the same object twice is a
// no-op with conditional probability one the second time.
func TestQuickSelectionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		objs := pi.Objects()
		o := objs[r.Intn(len(objs))]
		cond := ObjectCondition{pathToObject(pi, o), o}
		once, p1, err := Select(pi, cond)
		if err != nil {
			return true // unsatisfiable condition: nothing to check
		}
		twice, p2, err := Select(once, cond)
		if err != nil {
			return false
		}
		return math.Abs(p2-1) < 1e-9 && p1 > 0 && core.Equal(once, twice, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}
