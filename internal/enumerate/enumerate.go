// Package enumerate implements the global semantics of Section 4 by brute
// force: it materializes Domain(W), the set of semistructured instances
// compatible with a probabilistic instance's weak instance (Definition
// 4.1), together with the distribution P_℘ of Definition 4.4. It doubles as
// the paper's implicit baseline — "naively computing the probability by
// marginalizing over all of the compatible instances" (Section 6) — and as
// the oracle against which every efficient algorithm is property-tested.
package enumerate

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// DefaultWorldLimit bounds the number of compatible instances materialized
// by EnumerateCtx. The count grows exponentially with instance size, so the
// oracle is only intended for small inputs.
const DefaultWorldLimit = 200000

// World is one compatible semistructured instance together with its
// probability under the global interpretation.
type World struct {
	S *model.Instance
	P float64
}

// GlobalInterpretation is a distribution over compatible instances
// (Definition 4.2), stored with canonical-key indexing so identical
// instances can be merged and compared.
type GlobalInterpretation struct {
	worlds []World
	index  map[string]int
}

// NewGlobalInterpretation returns an empty distribution.
func NewGlobalInterpretation() *GlobalInterpretation {
	return &GlobalInterpretation{index: make(map[string]int)}
}

// Add accumulates probability p onto instance s, merging with any
// previously added identical instance.
func (gi *GlobalInterpretation) Add(s *model.Instance, p float64) {
	k := s.CanonicalKey()
	if i, ok := gi.index[k]; ok {
		gi.worlds[i].P += p
		return
	}
	gi.index[k] = len(gi.worlds)
	gi.worlds = append(gi.worlds, World{S: s, P: p})
}

// Worlds returns the worlds sorted by descending probability then canonical
// key, for stable output.
func (gi *GlobalInterpretation) Worlds() []World {
	out := make([]World, len(gi.worlds))
	copy(out, gi.worlds)
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].S.CanonicalKey() < out[j].S.CanonicalKey()
	})
	return out
}

// Len returns the number of distinct worlds.
func (gi *GlobalInterpretation) Len() int { return len(gi.worlds) }

// Prob returns the probability of the world identical to s (zero when
// absent).
func (gi *GlobalInterpretation) Prob(s *model.Instance) float64 {
	if i, ok := gi.index[s.CanonicalKey()]; ok {
		return gi.worlds[i].P
	}
	return 0
}

// TotalMass returns Σ_S P(S); Theorem 1 asserts this is 1 for the
// distribution induced by any local interpretation.
func (gi *GlobalInterpretation) TotalMass() float64 {
	total := 0.0
	for _, w := range gi.worlds {
		total += w.P
	}
	return total
}

// ProbWhere returns the total probability of worlds satisfying pred — the
// oracle for point and existence queries.
func (gi *GlobalInterpretation) ProbWhere(pred func(*model.Instance) bool) float64 {
	total := 0.0
	for _, w := range gi.worlds {
		if pred(w.S) {
			total += w.P
		}
	}
	return total
}

// Filter returns the distribution conditioned on pred, normalized per
// Definition 5.6 — the global semantics of selection. The boolean result
// is false when the predicate has probability zero.
func (gi *GlobalInterpretation) Filter(pred func(*model.Instance) bool) (*GlobalInterpretation, bool) {
	out := NewGlobalInterpretation()
	norm := 0.0
	for _, w := range gi.worlds {
		if pred(w.S) {
			out.Add(w.S, w.P)
			norm += w.P
		}
	}
	if norm <= 0 {
		return nil, false
	}
	for i := range out.worlds {
		out.worlds[i].P /= norm
	}
	return out, true
}

// Transform applies fn to every world and merges identical results by
// summing probabilities — the global semantics of projection (Definition
// 5.3: "combine the probabilities of identical instances by summing").
func (gi *GlobalInterpretation) Transform(fn func(*model.Instance) *model.Instance) *GlobalInterpretation {
	out := NewGlobalInterpretation()
	for _, w := range gi.worlds {
		out.Add(fn(w.S), w.P)
	}
	return out
}

// Equal reports whether two distributions agree on every world within tol.
func (gi *GlobalInterpretation) Equal(other *GlobalInterpretation, tol float64) bool {
	keys := make(map[string]bool, len(gi.index)+len(other.index))
	for k := range gi.index {
		keys[k] = true
	}
	for k := range other.index {
		keys[k] = true
	}
	for k := range keys {
		var a, b float64
		if i, ok := gi.index[k]; ok {
			a = gi.worlds[i].P
		}
		if i, ok := other.index[k]; ok {
			b = other.worlds[i].P
		}
		if math.Abs(a-b) > tol {
			return false
		}
	}
	return true
}

// EnumerateCtx materializes Domain(I) with probabilities P_℘. Objects are
// processed in topological order of the weak instance graph; each present
// non-leaf branches over the support of its OPF, and each present typed
// leaf branches over the support of its VPF. limit ≤ 0 uses
// DefaultWorldLimit. An error is returned when the weak instance graph is
// cyclic or the world count exceeds the limit.
//
// Under a context-carried resource governor (govern.From) each recursion
// step charges one work unit and each materialized world charges its
// object count, so an over-budget or cancelled enumeration unwinds within
// one branch instead of materializing the full domain.
func EnumerateCtx(ctx context.Context, pi *core.ProbInstance, limit int) (*GlobalInterpretation, error) {
	gov := govern.From(ctx)
	if limit <= 0 {
		limit = DefaultWorldLimit
	}
	g := pi.WeakInstance.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("enumerate: %w", err)
	}
	root := pi.Root()

	gi := NewGlobalInterpretation()
	// partial tracks one enumeration branch: which objects are present,
	// the chosen child set per present non-leaf, and the chosen value per
	// present typed leaf.
	type state struct {
		present map[model.ObjectID]bool
		chosen  map[model.ObjectID]sets.Set
		value   map[model.ObjectID]model.Value
		p       float64
	}
	count := 0
	var overflow error
	var rec func(i int, st *state)
	emit := func(st *state) {
		count++
		if count > limit {
			overflow = fmt.Errorf("enumerate: more than %d compatible instances", limit)
			return
		}
		if err := gov.Step(int64(len(st.present))); err != nil {
			overflow = err
			return
		}
		s := model.NewInstance(root)
		for _, t := range pi.Types() {
			_ = s.RegisterType(t)
		}
		for o := range st.present {
			s.AddObject(o)
		}
		for o, c := range st.chosen {
			for _, child := range c {
				l, _ := pi.LabelOf(o, child)
				// Error impossible: weak instances label each potential
				// child uniquely.
				_ = s.AddEdge(o, child, l)
			}
		}
		for o, v := range st.value {
			t, _ := pi.TypeOf(o)
			// Error impossible: VPF support was validated against the domain.
			_ = s.SetLeaf(o, t.Name, v)
		}
		gi.Add(s, st.p)
	}
	rec = func(i int, st *state) {
		if overflow != nil {
			return
		}
		if err := gov.Step(1); err != nil {
			overflow = err
			return
		}
		if i == len(order) {
			emit(st)
			return
		}
		o := order[i]
		if !st.present[o] {
			rec(i+1, st)
			return
		}
		if pi.IsLeaf(o) {
			vpf := pi.VPF(o)
			if vpf == nil {
				// Untyped leaf: unit factor.
				rec(i+1, st)
				return
			}
			for _, e := range vpf.Entries() {
				if e.Prob <= 0 {
					continue
				}
				st.value[o] = e.Value
				pp := st.p
				st.p *= e.Prob
				rec(i+1, st)
				st.p = pp
				delete(st.value, o)
			}
			return
		}
		opf := pi.OPF(o)
		if opf == nil {
			return // invalid instance; Validate would have caught it
		}
		for _, e := range opf.Entries() {
			if e.Prob <= 0 {
				continue
			}
			st.chosen[o] = e.Set
			pp := st.p
			st.p *= e.Prob
			var added []model.ObjectID
			for _, c := range e.Set {
				if !st.present[c] {
					st.present[c] = true
					added = append(added, c)
				}
			}
			rec(i+1, st)
			for _, c := range added {
				delete(st.present, c)
			}
			st.p = pp
			delete(st.chosen, o)
		}
	}
	st := &state{
		present: map[model.ObjectID]bool{root: true},
		chosen:  map[model.ObjectID]sets.Set{},
		value:   map[model.ObjectID]model.Value{},
		p:       1,
	}
	rec(0, st)
	if overflow != nil {
		return nil, overflow
	}
	return gi, nil
}

// FactorLocal recovers a local interpretation from a global one per the
// proof of Theorem 2: for each object o of the weak instance,
// ℘(o)(c) = P(c_S(o) = c | o ∈ S) — and analogously over values for typed
// leaves. Objects that never occur in a positive-probability world keep no
// local function. The recovered interpretation reproduces the global
// distribution exactly when the global interpretation satisfies W
// (Definition 4.5); SatisfiesLocal checks that.
func FactorLocal(gi *GlobalInterpretation, w *core.WeakInstance) *core.ProbInstance {
	pi := core.FromWeak(w)
	for _, o := range w.Objects() {
		occurs := 0.0
		if w.IsLeaf(o) {
			if _, typed := w.TypeOf(o); !typed {
				continue
			}
			vpf := prob.NewVPF()
			for _, wd := range gi.worlds {
				if !wd.S.HasObject(o) {
					continue
				}
				occurs += wd.P
				v, _ := wd.S.ValueOf(o)
				vpf.Put(v, vpf.Prob(v)+wd.P)
			}
			if occurs <= 0 {
				continue
			}
			norm := prob.NewVPF()
			for _, e := range vpf.Entries() {
				norm.Put(e.Value, e.Prob/occurs)
			}
			pi.SetVPF(o, norm)
			continue
		}
		opf := prob.NewOPF()
		for _, wd := range gi.worlds {
			if !wd.S.HasObject(o) {
				continue
			}
			occurs += wd.P
			opf.Add(sets.NewSet(wd.S.Children(o)...), wd.P)
		}
		if occurs <= 0 {
			continue
		}
		scaled := prob.NewOPF()
		opf.Each(func(c sets.Set, p float64) { scaled.Put(c, p/occurs) })
		pi.SetOPF(o, scaled)
	}
	return pi
}

// SatisfiesLocal reports whether the probabilistic instance's induced
// global distribution equals gi on every world within tol — i.e. whether
// the factorization of Theorem 2 reproduces the global interpretation.
func SatisfiesLocal(gi *GlobalInterpretation, pi *core.ProbInstance, tol float64) (bool, error) {
	induced, err := EnumerateCtx(context.Background(), pi, 0)
	if err != nil {
		return false, err
	}
	return induced.Equal(gi, tol), nil
}
