package query

import (
	"context"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// The *IndexedCtx kernels answer the Section 6.2 point, existence and
// value queries by the ε recursion. A non-nil idx builds the path plan
// through a prebuilt pathexpr.Index, so only the edges of the queried
// labels are touched — the amortized route for the engine, which runs many
// queries against one immutable instance; a nil idx plans over the whole
// weak graph. Each kernel honours a context-carried resource governor
// (govern.From): the ε recursion charges its OPF scans against the query's
// step budget and polls cancellation at each kept object.
//
// Precondition: the instance's weak graph must be a tree. The caller is
// expected to have verified that once (and cached the answer); the kernels
// do not repeat the O(V+E) check that dominates small queries.

// PointQueryIndexedCtx computes the Definition 6.1 probabilistic point
// query P(o ∈ p). Per Section 6.2 it extracts o and its path ancestors and
// evaluates ε_r over that restriction; in a tree that restriction is the
// unique root chain of o.
func PointQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, o model.ObjectID) (float64, error) {
	return epsilonRoot(pi, idx, p, map[model.ObjectID]bool{o: true}, nil, govern.From(ctx))
}

// ExistsQueryIndexedCtx computes the extension the paper describes at the
// end of Section 6.2: P(∃o. o ∈ p). It keeps all objects satisfying the
// path expression together with their path ancestors and computes ε_r
// bottom-up.
func ExistsQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path) (float64, error) {
	return epsilonRoot(pi, idx, p, nil, nil, govern.From(ctx))
}

// ValueExistsQueryIndexedCtx computes P(∃ leaf o ∈ p with val(o) = v)
// (see ValueExistsQuery).
func ValueExistsQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, v model.Value) (float64, error) {
	return epsilonRoot(pi, idx, p, nil, valueSuccess(pi, v), govern.From(ctx))
}

// ValuePointQueryIndexedCtx computes P(o ∈ p ∧ val(o) = v) for a specific
// leaf o.
func ValuePointQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, o model.ObjectID, v model.Value) (float64, error) {
	return epsilonRoot(pi, idx, p, map[model.ObjectID]bool{o: true}, valueSuccess(pi, v), govern.From(ctx))
}

// valueSuccess is the success probability of a matched object in a value
// query: VPF(o)(v) on valued leaves, zero on non-leaves and unvalued leaves.
func valueSuccess(pi *core.ProbInstance, v model.Value) func(model.ObjectID) float64 {
	return func(o model.ObjectID) float64 {
		if vpf := pi.VPF(o); vpf != nil {
			return vpf.Prob(v)
		}
		return 0
	}
}
