package algebra

import (
	"context"
	"fmt"

	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// AncestorProjectGlobal computes the ancestor projection by the global
// semantics of Definition 5.3: enumerate the compatible instances, project
// each, and merge identical results by summing probabilities. It works on
// DAGs and is the oracle/baseline for AncestorProject. limit bounds the
// enumeration (≤ 0 for the default).
func AncestorProjectGlobal(pi *core.ProbInstance, p pathexpr.Path, limit int) (*enumerate.GlobalInterpretation, error) {
	gi, err := enumerate.EnumerateCtx(context.Background(), pi, limit)
	if err != nil {
		return nil, err
	}
	return gi.Transform(func(s *model.Instance) *model.Instance {
		return pathexpr.ProjectAncestors(s, p)
	}), nil
}

// SelectGlobal computes selection by the global semantics of Definition
// 5.6: keep the compatible instances satisfying the condition and
// renormalize. It returns the conditioned distribution and the probability
// of the condition. It works on DAGs and on conditions whose conditional
// distribution does not factor (e.g. multi-leaf value conditions).
func SelectGlobal(pi *core.ProbInstance, cond Condition, limit int) (*enumerate.GlobalInterpretation, float64, error) {
	gi, err := enumerate.EnumerateCtx(context.Background(), pi, limit)
	if err != nil {
		return nil, 0, err
	}
	p := gi.ProbWhere(cond.Satisfies)
	filtered, ok := gi.Filter(cond.Satisfies)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrZeroProbability, cond)
	}
	return filtered, p, nil
}

// CartesianProductGlobal computes the product by the global semantics:
// every pair of operand worlds merges (roots fused into newRoot) with
// probability p₁·p₂, and identical merged worlds combine — the distribution
// CartesianProduct's result must induce. Operand object universes must
// already be disjoint (apply renames beforehand; CartesianProduct returns
// the mapping it used).
func CartesianProductGlobal(pi1, pi2 *core.ProbInstance, newRoot model.ObjectID, limit int) (*enumerate.GlobalInterpretation, error) {
	g1, err := enumerate.EnumerateCtx(context.Background(), pi1, limit)
	if err != nil {
		return nil, err
	}
	g2, err := enumerate.EnumerateCtx(context.Background(), pi2, limit)
	if err != nil {
		return nil, err
	}
	out := enumerate.NewGlobalInterpretation()
	for _, w1 := range g1.Worlds() {
		for _, w2 := range g2.Worlds() {
			merged, err := mergeRoots(w1.S, w2.S, newRoot)
			if err != nil {
				return nil, err
			}
			out.Add(merged, w1.P*w2.P)
		}
	}
	return out, nil
}

// mergeRoots builds the instance whose root newRoot adopts the children of
// both operand roots, with all other structure copied verbatim.
func mergeRoots(s1, s2 *model.Instance, newRoot model.ObjectID) (*model.Instance, error) {
	out := model.NewInstance(newRoot)
	for _, src := range []*model.Instance{s1, s2} {
		for _, t := range src.Types() {
			if err := out.RegisterType(t); err != nil {
				return nil, err
			}
		}
		for _, e := range src.Edges() {
			from := e.From
			if from == src.Root() {
				from = newRoot
			}
			if err := out.AddEdge(from, e.To, e.Label); err != nil {
				return nil, err
			}
		}
		for _, o := range src.Objects() {
			if o == src.Root() {
				continue
			}
			out.AddObject(o)
			if t, ok := src.TypeOf(o); ok {
				v, _ := src.ValueOf(o)
				if err := out.SetLeaf(o, t.Name, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// Mixture returns the convex combination w·g1 + (1−w)·g2 of two global
// interpretations — the natural "union" of two probabilistic sources of
// evidence over the same object universe. The paper defers union to its
// longer version; a mixture is the standard possible-worlds reading. Note a
// mixture of two factoring distributions need not factor, so the result is
// a distribution over worlds rather than a probabilistic instance.
func Mixture(g1, g2 *enumerate.GlobalInterpretation, w float64) (*enumerate.GlobalInterpretation, error) {
	if w < 0 || w > 1 {
		return nil, fmt.Errorf("algebra: mixture weight %v outside [0,1]", w)
	}
	out := enumerate.NewGlobalInterpretation()
	for _, wd := range g1.Worlds() {
		out.Add(wd.S, w*wd.P)
	}
	for _, wd := range g2.Worlds() {
		out.Add(wd.S, (1-w)*wd.P)
	}
	return out, nil
}
