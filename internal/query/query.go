// Package query implements the probabilistic queries of Section 6.2 of the
// PXML paper: the probability of a simple object chain, probabilistic point
// queries ("what is the probability that object o satisfies path expression
// p?", Definition 6.1) and their extension to existence queries ("what is
// the probability that some object satisfies p?"), plus value-existence
// queries combining a path with a leaf value — the ε lane of inference.
//
// The ε algorithms assume a tree-structured weak instance graph, exactly
// as Section 6 does. The *IndexedCtx kernels leave that check to their
// caller: internal/engine routes a query here only after its cached tree
// classification says so, and sends DAG instances to the bayes package
// (exact variable-elimination inference) instead.
package query

import (
	"fmt"

	"pxml/internal/algebra"
	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/graph"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// ErrNotTree is returned by the query fast paths on non-tree instances;
// it is the same sentinel the algebra fast paths use, so callers can check
// a single error value. Use bayes.PathProb or enumeration for DAGs.
var ErrNotTree = algebra.ErrNotTree

// ChainProb computes the probability of a simple object chain
// c = r.o₁.o₂…oᵢ per the Section 6.2 formula: the product over the chain of
// P(oₖ₊₁ ∈ c(oₖ)) — each factor conditional on the parent's existence, so
// the product telescopes into the chain probability. Unlike the other
// queries this is exact on DAGs too: a chain is a single path, and each
// object's child-set choice is independent of how the object was reached.
func ChainProb(pi *core.ProbInstance, chain []model.ObjectID) (float64, error) {
	if len(chain) == 0 {
		return 0, fmt.Errorf("query: empty chain")
	}
	if chain[0] != pi.Root() {
		return 0, fmt.Errorf("query: chain must start at the root %s, got %s", pi.Root(), chain[0])
	}
	p := 1.0
	for i := 0; i+1 < len(chain); i++ {
		opf := pi.OPF(chain[i])
		if opf == nil {
			return 0, nil // a leaf has no children: the chain is impossible
		}
		if _, ok := pi.LabelOf(chain[i], chain[i+1]); !ok {
			return 0, nil
		}
		p *= opf.ProbContains(chain[i+1])
		if p == 0 {
			return 0, nil
		}
	}
	return p, nil
}

// ValueExistsQuery computes the probability that some leaf satisfying p
// carries value v — the probabilistic reading of the value selection
// condition val(p) = v. Matched leaves succeed with probability VPF(v);
// matched non-leaves or unvalued leaves never do.
func ValueExistsQuery(pi *core.ProbInstance, p pathexpr.Path, v model.Value) (float64, error) {
	if !pi.IsTree() {
		return 0, ErrNotTree
	}
	return epsilonRoot(pi, nil, p, nil, valueSuccess(pi, v), nil)
}

// epsilonRoot runs the ε recursion of Section 6.1/6.2 over the plan of p
// restricted to targets (nil = all matches): bottom-up,
//
//	ε_o = 1 − Σ_c ω(o)(c) · Π_{j ∈ c ∩ kept} (1 − ε_j)
//
// with matched objects assigned success probability 1 (or success(o) when a
// success function is supplied, e.g. a VPF lookup for value queries). ε_r
// is the probability that a compatible instance contains a successful
// match. When idx is non-nil the plan is built through the label index
// (touching only same-label edges) instead of the full graph. A non-nil
// governor is charged one work unit per OPF entry scanned, so wide-OPF
// instances hit their step budget (or observe cancellation) within one
// kept object instead of finishing the full bottom-up pass.
func epsilonRoot(pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, targets map[model.ObjectID]bool, success func(model.ObjectID) float64, gov *govern.Governor) (float64, error) {
	if p.Root != pi.Root() {
		return 0, nil
	}
	if p.Len() == 0 {
		// The bare root always satisfies its own path expression; for
		// value queries the root has no value, so success is 0.
		if success != nil {
			return success(pi.Root()), nil
		}
		if targets != nil && !targets[pi.Root()] {
			return 0, nil
		}
		return 1, nil
	}
	var plan pathexpr.Plan
	if idx != nil {
		plan = pathexpr.NewPlanIndexed(idx, p, targets)
	} else {
		plan = pathexpr.NewPlan(pi.WeakInstance.Graph(), p, targets)
	}
	if plan.IsEmpty() {
		return 0, nil
	}
	keptChildren := groupPlanChildren(plan.Edges)
	eps := make(map[model.ObjectID]float64, planSize(plan))
	n := p.Len()
	for o := range plan.Keep[n] {
		if success != nil {
			eps[o] = success(o)
		} else {
			eps[o] = 1
		}
	}
	matched := plan.Keep[n]
	for level := n - 1; level >= 0; level-- {
		for o := range plan.Keep[level] {
			if matched[o] {
				continue // cannot happen in a tree; keep ε from the match
			}
			opf := pi.OPF(o)
			if opf == nil {
				return 0, fmt.Errorf("query: non-leaf %s has no OPF", o)
			}
			if err := gov.Step(int64(opf.Len())); err != nil {
				return 0, err
			}
			kept := keptChildren[o]
			fail := 0.0
			for _, e := range opf.Entries() {
				if e.Prob <= 0 {
					continue
				}
				f := e.Prob
				for _, j := range kept {
					if e.Set.Contains(j) {
						f *= 1 - eps[j]
					}
				}
				fail += f
			}
			eps[o] = 1 - fail
		}
	}
	e, ok := eps[pi.Root()]
	if !ok {
		return 0, nil
	}
	// Clamp tiny negative residue from floating-point cancellation.
	if e < 0 {
		e = 0
	}
	return e, nil
}

// groupPlanChildren groups a plan's kept edges by parent, carving every
// per-parent slice out of one shared backing array: a counting pass sizes
// each group, a placement pass fills it. The append-per-edge pattern this
// replaces reallocated each parent's slice O(log fan-out) times, which
// dominated the ε recursion's allocation profile on wide instances.
func groupPlanChildren(edges []graph.Edge) map[model.ObjectID][]model.ObjectID {
	counts := make(map[model.ObjectID]int, len(edges))
	for _, e := range edges {
		counts[e.From]++
	}
	backing := make([]model.ObjectID, 0, len(edges))
	out := make(map[model.ObjectID][]model.ObjectID, len(counts))
	for _, e := range edges {
		s, ok := out[e.From]
		if !ok {
			n := counts[e.From]
			s = backing[len(backing) : len(backing) : len(backing)+n]
			backing = backing[:len(backing)+n]
		}
		out[e.From] = append(s, e.To)
	}
	return out
}

// planSize counts the kept objects across all plan levels (an upper bound
// on how many ε values the recursion stores).
func planSize(plan pathexpr.Plan) int {
	n := 0
	for _, level := range plan.Keep {
		n += len(level)
	}
	return n
}
