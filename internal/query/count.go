package query

import (
	"context"
	"fmt"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// CountDistributionCtx computes the exact probability distribution of
// |{o : o ∈ p}| — how many objects satisfy the path expression in a
// possible world — on a tree-structured instance. It is the aggregate
// counterpart of the existence query: a bottom-up convolution over the
// projection plan, polynomial in the number of matched objects (each
// node's distribution has at most #matched+1 entries).
//
// The result maps counts to probabilities and always sums to one (count 0
// collects the no-match worlds). Under a context-carried resource governor
// each convolution product is charged against the step budget before it
// is computed, so a wide plan stops within one OPF entry of exhausting its
// budget or being cancelled.
func CountDistributionCtx(ctx context.Context, pi *core.ProbInstance, p pathexpr.Path) (map[int]float64, error) {
	gov := govern.From(ctx)
	if !pi.IsTree() {
		return nil, ErrNotTree
	}
	if p.Root != pi.Root() {
		return map[int]float64{0: 1}, nil
	}
	if p.Len() == 0 {
		return map[int]float64{1: 1}, nil // the root always matches itself
	}
	g := pi.WeakInstance.Graph()
	plan := pathexpr.NewPlan(g, p, nil)
	if plan.IsEmpty() {
		return map[int]float64{0: 1}, nil
	}
	keptChildren := groupPlanChildren(plan.Edges)
	// dist[o] is the distribution of the number of matches in o's kept
	// subtree given o exists.
	dist := make(map[model.ObjectID]map[int]float64, planSize(plan))
	n := p.Len()
	for o := range plan.Keep[n] {
		dist[o] = map[int]float64{1: 1}
	}
	matched := plan.Keep[n]
	for level := n - 1; level >= 0; level-- {
		for o := range plan.Keep[level] {
			if matched[o] {
				continue
			}
			opf := pi.OPF(o)
			if opf == nil {
				return nil, fmt.Errorf("query: non-leaf %s has no OPF", o)
			}
			kept := keptChildren[o]
			out := map[int]float64{}
			for _, e := range opf.Entries() {
				if e.Prob <= 0 {
					continue
				}
				if err := gov.Step(1); err != nil {
					return nil, err
				}
				// Convolve the kept children present in this child set.
				acc := map[int]float64{0: e.Prob}
				for _, j := range kept {
					if !e.Set.Contains(j) {
						continue
					}
					dj := dist[j]
					if err := gov.Step(int64(len(acc) * len(dj))); err != nil {
						return nil, err
					}
					next := make(map[int]float64, len(acc)*len(dj))
					for a, pa := range acc {
						for b, pb := range dj {
							next[a+b] += pa * pb
						}
					}
					acc = next
				}
				for k, v := range acc {
					out[k] += v
				}
			}
			dist[o] = out
		}
	}
	root := dist[pi.Root()]
	if root == nil {
		return map[int]float64{0: 1}, nil
	}
	return root, nil
}

// ExpectedCount returns E[|{o : o ∈ p}|] on a tree-structured instance.
// By linearity of expectation it equals the sum of the per-match chain
// probabilities, which the implementation cross-checks cheaply against the
// full distribution.
func ExpectedCount(pi *core.ProbInstance, p pathexpr.Path) (float64, error) {
	d, err := CountDistributionCtx(context.Background(), pi, p)
	if err != nil {
		return 0, err
	}
	e := 0.0
	for k, pr := range d {
		e += float64(k) * pr
	}
	return e, nil
}
