package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"pxml/internal/core"
	"pxml/internal/fixtures"
)

// dagShapes are the fixtures.RandomInstance configurations infer_dag
// draws from, cycled in order: DAG mode, depth ≤ 4, fan-out ≤ 4.
var dagShapes = []fixtures.RandomConfig{
	{MaxDepth: 3, MaxChildren: 3, DAG: true, LeafDomain: 2},
	{MaxDepth: 3, MaxChildren: 4, DAG: true, LeafDomain: 2},
	{MaxDepth: 4, MaxChildren: 3, DAG: true, LeafDomain: 2},
	{MaxDepth: 4, MaxChildren: 4, DAG: true, LeafDomain: 2},
}

// widthClasses stratify instances by eliminationCells, the table cells a
// min-degree variable elimination over the compiled network fills. Class
// 0 holds instances that turned out to be trees (answered by the ε
// recursion); class i > 0 holds DAGs with cells < widthClasses[i]. Equal
// quotas per class keep the work mix the same for every seed, and the
// top bound keeps every statement well under the 2^22-cell factor cap.
var widthClasses = []float64{0, 1 << 8, 1 << 10, 1 << 12, 1 << 14}

// maxDAGObjects bounds candidate size so elimination scopes fit a uint64.
const maxDAGObjects = 64

// genDAGs draws n instances with equal quotas per width class. It depends
// only on r: candidates are classified by structure, never by timing or
// by any query's outcome.
func genDAGs(r *rand.Rand, n int) ([]*core.ProbInstance, error) {
	k := len(widthClasses)
	quota := make([]int, k)
	for i := range quota {
		quota[i] = n / k
		if i < n%k {
			quota[i]++
		}
	}
	left := n
	out := make([]*core.ProbInstance, 0, n)
	for attempt := 0; left > 0; attempt++ {
		if attempt > 200*n+1000 {
			return nil, fmt.Errorf("infer_dag: width classes not filled after %d candidates (quotas left %v)", attempt, quota)
		}
		pi := fixtures.RandomInstance(r, dagShapes[attempt%len(dagShapes)])
		c := widthClass(pi)
		if c < 0 || quota[c] == 0 {
			continue
		}
		quota[c]--
		left--
		out = append(out, pi)
	}
	return out, nil
}

// widthClass returns pi's class index, or -1 when pi is outside every
// class.
func widthClass(pi *core.ProbInstance) int {
	if pi.IsTree() {
		return 0
	}
	cells, ok := eliminationCells(pi)
	if !ok {
		return -1
	}
	for i := 1; i < len(widthClasses); i++ {
		if cells < widthClasses[i] {
			return i
		}
	}
	return -1
}

// eliminationCells predicts the inference work of one point query on pi:
// the summed table sizes of a min-degree elimination over the scopes of
// the CPTs bayes.Compile builds (each object with its parents; state
// counts as in govern.Measure). It is a structural quantity of the
// instance (its width), computed without allocating any factor.
func eliminationCells(pi *core.ProbInstance) (float64, bool) {
	g := pi.WeakInstance.Graph()
	root := pi.Root()
	reach := g.ReachableFrom(root)
	if len(reach) > maxDAGObjects {
		return 0, false
	}
	idx := make(map[string]int, len(reach))
	for i, o := range reach {
		idx[o] = i
	}
	card := make([]float64, len(reach))
	for i, o := range reach {
		card[i] = float64(stateCount(pi, o, o == root))
	}
	scopes := make([]uint64, 0, len(reach))
	for i, o := range reach {
		s := uint64(1) << i
		for _, p := range g.Parents(o) {
			if j, ok := idx[p]; ok {
				s |= 1 << j
			}
		}
		scopes = append(scopes, s)
	}
	alive := uint64(1)<<len(reach) - 1
	if len(reach) == 64 {
		alive = math.MaxUint64
	}
	total := 0.0
	for alive != 0 {
		best, bestCost, bestUnion := -1, math.MaxFloat64, uint64(0)
		for rest := alive; rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros64(rest)
			var u uint64
			for _, s := range scopes {
				if s&(1<<v) != 0 {
					u |= s
				}
			}
			c := 1.0
			for m := u &^ (1 << v); m != 0; m &= m - 1 {
				c *= card[bits.TrailingZeros64(m)]
			}
			if c < bestCost {
				best, bestCost, bestUnion = v, c, u
			}
		}
		total += bestCost * card[best]
		kept := scopes[:0]
		for _, s := range scopes {
			if s&(1<<best) == 0 {
				kept = append(kept, s)
			}
		}
		scopes = append(kept, bestUnion&^(1<<best))
		alive &^= 1 << best
	}
	return total, true
}

// stateCount mirrors bayes.Compile's variable cardinality for o.
func stateCount(pi *core.ProbInstance, o string, isRoot bool) int {
	n := 0
	if !pi.IsLeaf(o) {
		if opf := pi.OPF(o); opf != nil {
			for _, e := range opf.Entries() {
				if e.Prob > 0 {
					n++
				}
			}
		}
	} else if vpf := pi.VPF(o); vpf != nil {
		for _, e := range vpf.Entries() {
			if e.Prob > 0 {
				n++
			}
		}
	} else {
		n = 1
	}
	if !isRoot {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
