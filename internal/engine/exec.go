package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pxml/internal/algebra"
	"pxml/internal/enumerate"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/pxql"
	"pxml/internal/query"
)

// execStmt dispatches one parsed statement under ctx's governor (installed
// by exec). The probabilistic statements go through the engine's router
// (pointProb, existsProb, valueExistsProb, objectProb), which alone picks
// between the ε lane on trees and the Bayesian-network lane on DAGs. The
// enumeration, top-k and count paths cooperate with the governor at their
// loop boundaries; the algebra paths charge each result instance's size.
func (e *Engine) execStmt(ctx context.Context, q pxql.Query) (*pxql.Result, error) {
	gov := govern.From(ctx)
	if err := gov.Err(); err != nil {
		return nil, err
	}
	pi := e.pi
	switch q.Op {
	case "project", "single", "descend":
		op, sym := algebra.AncestorProject, "Λ"
		switch q.Op {
		case "single":
			op, sym = algebra.SingleProject, "Π"
		case "descend":
			op, sym = algebra.DescendantProject, "Δ"
		}
		out, err := op(pi, q.Path)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &pxql.Result{Instance: out, Text: fmt.Sprintf("%s_%s: %d objects", sym, q.Path, out.NumObjects())}, nil
	case "select":
		out, p, err := algebra.Select(pi, q.Cond)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &pxql.Result{Instance: out, Prob: &p, Text: fmt.Sprintf("σ(%s): P = %.9f", q.Cond, p)}, nil
	case "prob-point":
		p, err := e.pointProb(ctx, q.Path, q.Object)
		if err != nil {
			return nil, err
		}
		return &pxql.Result{Prob: &p, Text: fmt.Sprintf("P(%s ∈ %s) = %.9f", q.Object, q.Path, p)}, nil
	case "prob-exists":
		p, err := e.existsProb(ctx, q.Path)
		if err != nil {
			return nil, err
		}
		return &pxql.Result{Prob: &p, Text: fmt.Sprintf("P(∃ %s) = %.9f", q.Path, p)}, nil
	case "prob-value":
		p, err := e.valueExistsProb(ctx, q.Path, q.Value)
		if err != nil {
			return nil, err
		}
		return &pxql.Result{Prob: &p, Text: fmt.Sprintf("P(val(%s) = %s) = %.9f", q.Path, q.Value, p)}, nil
	case "prob-object":
		p, err := e.objectProb(ctx, q.Object)
		if err != nil {
			return nil, err
		}
		return &pxql.Result{Prob: &p, Text: fmt.Sprintf("P(%s exists) = %.9f", q.Object, p)}, nil
	case "chain":
		p, err := query.ChainProb(pi, q.Chain)
		if err != nil {
			return nil, err
		}
		return &pxql.Result{Prob: &p, Text: fmt.Sprintf("P(chain %s) = %.9f", strings.Join(q.Chain, "."), p)}, nil
	case "count":
		d, err := query.CountDistributionCtx(ctx, pi, q.Path)
		if err != nil {
			return nil, err
		}
		ev, maxK := 0.0, 0
		for k, pr := range d {
			ev += float64(k) * pr
			maxK = max(maxK, k)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "E[count(%s)] = %.6f\n", q.Path, ev)
		for k := 0; k <= maxK; k++ {
			if d[k] > 0 {
				fmt.Fprintf(&b, "P(count=%d) = %.9f\n", k, d[k])
			}
		}
		return &pxql.Result{Prob: &ev, Text: strings.TrimRight(b.String(), "\n")}, nil
	case "marginals":
		marg, err := e.Marginals()
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		objs := pi.Objects()
		sort.Strings(objs)
		for _, o := range objs {
			fmt.Fprintf(&b, "%s\t%.9f\n", o, marg[o])
		}
		return &pxql.Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "worlds":
		gi, err := enumerate.EnumerateCtx(ctx, pi, 0)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d worlds, total probability %.9f\n", gi.Len(), gi.TotalMass())
		for i, w := range gi.Worlds() {
			if q.Top > 0 && i == q.Top {
				break
			}
			fmt.Fprintf(&b, "p=%.9f objects=%v\n", w.P, w.S.Objects())
		}
		return &pxql.Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "estimate-exists", "estimate-point":
		est, err := e.estimate(ctx, estimatePred(q.Op, q.Path, q.Object), q.Top)
		if err != nil {
			return nil, err
		}
		p := est.P
		return &pxql.Result{Prob: &p, Text: fmt.Sprintf("P ≈ %s", est)}, nil
	case "topk":
		worlds, err := enumerate.TopKCtx(ctx, pi, q.Top, 0)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		for _, w := range worlds {
			fmt.Fprintf(&b, "p=%.9f objects=%v\n", w.P, w.S.Objects())
		}
		return &pxql.Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "stats":
		st := pi.ComputeStats()
		return &pxql.Result{Text: fmt.Sprintf(
			"root=%s objects=%d edges=%d leaves=%d depth=%d opf-entries=%d vpf-entries=%d tree=%v",
			pi.Root(), st.Objects, st.Edges, st.Leaves, st.Depth, st.OPFEntries, st.VPFEntries, pi.IsTree())}, nil
	default:
		return nil, fmt.Errorf("pxql: unknown operation %q", q.Op)
	}
}

// estimatePred builds the possible-world predicate of an ESTIMATE
// statement: op is "estimate-exists" or "estimate-point".
func estimatePred(op string, p pathexpr.Path, o model.ObjectID) func(*model.Instance) bool {
	if op == "estimate-exists" {
		return func(s *model.Instance) bool { return len(p.Targets(s.Graph())) > 0 }
	}
	return func(s *model.Instance) bool { return p.Matches(s.Graph(), o) }
}
