// Package bayes is the Bayesian-network substrate the PXML paper leans on
// in Section 6 ("there is a mapping between a probabilistic instance and a
// Bayesian network ... inference in Bayesian networks has been studied
// extensively"): discrete variables, factors, and exact inference by
// variable elimination (bucket elimination, Dechter [8]). The Compile
// function realizes the paper's mapping — one variable per object whose
// states are the object's possible child sets (or leaf values) plus an
// "absent" state — and PathProb extends it with deterministic reachability
// variables so that probabilistic point queries are answered exactly on
// DAG-structured instances, where the Section 6 tree algorithms do not
// apply.
package bayes

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pxml/internal/govern"
)

// Factor is a nonnegative function over a set of discrete variables,
// identified by integer ids. Values are stored row-major with the first
// variable varying slowest.
type Factor struct {
	vars []int
	card []int
	vals []float64
}

// NewFactor creates a zero factor over the given variables (ids must be
// distinct) with the given cardinalities.
func NewFactor(vars []int, card []int) *Factor {
	if len(vars) != len(card) {
		panic("bayes: vars/card length mismatch")
	}
	size := 1
	for _, c := range card {
		if c <= 0 {
			panic("bayes: nonpositive cardinality")
		}
		if size > MaxFactorEntries/c {
			// Refuse rather than overflow int and make() a garbage size.
			// Governed paths pre-check with cellsOf and never reach this.
			panic(fmt.Sprintf("bayes: factor over %d vars exceeds %d entries", len(card), MaxFactorEntries))
		}
		size *= c
	}
	return &Factor{
		vars: append([]int(nil), vars...),
		card: append([]int(nil), card...),
		vals: make([]float64, size),
	}
}

// Vars returns the factor's variable ids.
func (f *Factor) Vars() []int { return f.vars }

// Size returns the number of table entries.
func (f *Factor) Size() int { return len(f.vals) }

// index converts an assignment (parallel to f.vars) to a flat index.
func (f *Factor) index(assign []int) int {
	idx := 0
	for i, v := range assign {
		idx = idx*f.card[i] + v
	}
	return idx
}

// Set assigns the value at the given per-variable assignment.
func (f *Factor) Set(assign []int, v float64) { f.vals[f.index(assign)] = v }

// At reads the value at the given per-variable assignment.
func (f *Factor) At(assign []int) float64 { return f.vals[f.index(assign)] }

// EachAssignment invokes fn for every assignment of the factor's variables.
// The slice passed to fn is reused between calls.
func (f *Factor) EachAssignment(fn func(assign []int, v float64)) {
	assign := make([]int, len(f.vars))
	for i := range f.vals {
		fn(assign, f.vals[i])
		// Increment the mixed-radix counter.
		for j := len(assign) - 1; j >= 0; j-- {
			assign[j]++
			if assign[j] < f.card[j] {
				break
			}
			assign[j] = 0
		}
	}
}

// Multiply returns the product factor over the union of the variables.
func Multiply(a, b *Factor) *Factor {
	pos := make(map[int]int, len(a.vars)+len(b.vars))
	var vars []int
	var card []int
	for i, v := range a.vars {
		pos[v] = len(vars)
		vars = append(vars, v)
		card = append(card, a.card[i])
	}
	for i, v := range b.vars {
		if _, ok := pos[v]; !ok {
			pos[v] = len(vars)
			vars = append(vars, v)
			card = append(card, b.card[i])
		}
	}
	out := NewFactor(vars, card)
	aIdx := make([]int, len(a.vars))
	bIdx := make([]int, len(b.vars))
	for i, v := range a.vars {
		aIdx[i] = pos[v]
		_ = i
	}
	for i, v := range b.vars {
		bIdx[i] = pos[v]
	}
	assign := make([]int, len(vars))
	aAssign := make([]int, len(a.vars))
	bAssign := make([]int, len(b.vars))
	total := len(out.vals)
	for flat := 0; flat < total; flat++ {
		// Decode flat into assign.
		rem := flat
		for i := len(vars) - 1; i >= 0; i-- {
			assign[i] = rem % card[i]
			rem /= card[i]
		}
		for i := range a.vars {
			aAssign[i] = assign[aIdx[i]]
		}
		for i := range b.vars {
			bAssign[i] = assign[bIdx[i]]
		}
		out.vals[flat] = a.At(aAssign) * b.At(bAssign)
	}
	return out
}

// SumOut returns the factor with variable v marginalized away. Summing out
// a variable the factor does not mention returns a copy.
func (f *Factor) SumOut(v int) *Factor {
	pos := -1
	for i, fv := range f.vars {
		if fv == v {
			pos = i
			break
		}
	}
	if pos == -1 {
		c := NewFactor(f.vars, f.card)
		copy(c.vals, f.vals)
		return c
	}
	var vars []int
	var card []int
	for i, fv := range f.vars {
		if i != pos {
			vars = append(vars, fv)
			card = append(card, f.card[i])
		}
	}
	out := NewFactor(vars, card)
	assign := make([]int, len(f.vars))
	reduced := make([]int, len(vars))
	f.EachAssignment(func(a []int, val float64) {
		copy(assign, a)
		k := 0
		for i := range assign {
			if i != pos {
				reduced[k] = assign[i]
				k++
			}
		}
		out.vals[out.index(reduced)] += val
	})
	return out
}

// Reduce returns the factor restricted to variable v taking state s: rows
// inconsistent with the evidence are dropped (the variable is removed).
func (f *Factor) Reduce(v, s int) *Factor {
	pos := -1
	for i, fv := range f.vars {
		if fv == v {
			pos = i
			break
		}
	}
	if pos == -1 {
		c := NewFactor(f.vars, f.card)
		copy(c.vals, f.vals)
		return c
	}
	var vars []int
	var card []int
	for i, fv := range f.vars {
		if i != pos {
			vars = append(vars, fv)
			card = append(card, f.card[i])
		}
	}
	out := NewFactor(vars, card)
	reduced := make([]int, len(vars))
	f.EachAssignment(func(a []int, val float64) {
		if a[pos] != s {
			return
		}
		k := 0
		for i := range a {
			if i != pos {
				reduced[k] = a[i]
				k++
			}
		}
		out.vals[out.index(reduced)] = val
	})
	return out
}

// Scalar returns the value of a zero-variable factor.
func (f *Factor) Scalar() (float64, error) {
	if len(f.vars) != 0 {
		return 0, fmt.Errorf("bayes: factor over %v is not scalar", f.vars)
	}
	return f.vals[0], nil
}

// MaxFactorEntries is the hard cap on any factor table built during
// compilation or elimination, governed or not. It bounds a single
// allocation to 32 MiB of float64s regardless of configured budgets.
const MaxFactorEntries = 1 << 22

// maxFactorSize is the historical internal name for the same cap.
const maxFactorSize = MaxFactorEntries

// cellsOf returns the table size for the given cardinalities as a
// float64, so width-bomb products that overflow int64 stay comparable.
func cellsOf(card []int) float64 {
	p := 1.0
	for _, c := range card {
		p *= float64(c)
	}
	return p
}

// productCells returns the table size Multiply(a, b) would allocate.
func productCells(a, b *Factor) float64 {
	cells := cellsOf(a.card)
	seen := make(map[int]bool, len(a.vars))
	for _, v := range a.vars {
		seen[v] = true
	}
	for i, v := range b.vars {
		if !seen[v] {
			cells *= float64(b.card[i])
		}
	}
	return cells
}

// checkedMultiply charges the governor for the product table and refuses
// it before allocation when it exceeds the hard cap or the byte budget.
func checkedMultiply(g *govern.Governor, a, b *Factor) (*Factor, error) {
	cells := productCells(a, b)
	if cells > MaxFactorEntries {
		return nil, fmt.Errorf("%w: intermediate factor needs %.4g entries (cap %d)", govern.ErrIntractable, cells, MaxFactorEntries)
	}
	if err := g.Alloc(int64(cells) * 8); err != nil {
		return nil, err
	}
	if err := g.Step(int64(cells)); err != nil {
		return nil, err
	}
	return Multiply(a, b), nil
}

// checkedNewFactor refuses an oversized factor table before allocating
// it and charges the governor for the table it admits. CPT construction
// and the path-reachability augmentation build factors through this so
// a width-bomb fails with a typed error instead of an OOM.
func checkedNewFactor(g *govern.Governor, vars []int, card []int) (*Factor, error) {
	cells := cellsOf(card)
	if cells > MaxFactorEntries {
		return nil, fmt.Errorf("%w: factor over %d variables needs %.4g entries (cap %d)", govern.ErrIntractable, len(card), cells, MaxFactorEntries)
	}
	if err := g.Alloc(int64(cells) * 8); err != nil {
		return nil, err
	}
	if err := g.Step(int64(cells)); err != nil {
		return nil, err
	}
	return NewFactor(vars, card), nil
}

// EliminateAllCtx multiplies the factors and sums out every variable in
// keep's complement, returning the joint factor over keep (nil keep =
// eliminate everything, yielding a scalar factor). Elimination order is
// min-degree greedy over the factor graph.
//
// Under a context-carried resource governor (govern.From) every
// intermediate product is charged against the query's
// step and byte budgets and size-checked BEFORE its table is allocated,
// and cancellation is honoured between bucket multiplications, so an
// abandoned query stops within one factor product instead of running
// the elimination to completion.
func EliminateAllCtx(ctx context.Context, factors []*Factor, keep map[int]bool) (*Factor, error) {
	g := govern.From(ctx)
	work := append([]*Factor(nil), factors...)
	// Collect variables to eliminate.
	varCard := map[int]int{}
	for _, f := range work {
		for i, v := range f.vars {
			varCard[v] = f.card[i]
		}
	}
	var elim []int
	for v := range varCard {
		if keep == nil || !keep[v] {
			elim = append(elim, v)
		}
	}
	sort.Ints(elim)
	for len(elim) > 0 {
		if err := g.Err(); err != nil {
			return nil, err
		}
		// Min-degree: pick the variable whose bucket product is smallest.
		best, bestCost := -1, math.MaxFloat64
		for _, v := range elim {
			cost := bucketCost(work, v)
			if cost < bestCost {
				best, bestCost = v, cost
			}
		}
		v := best
		// Remove v from elim.
		for i, e := range elim {
			if e == v {
				elim = append(elim[:i], elim[i+1:]...)
				break
			}
		}
		// Multiply the bucket and sum out v.
		var bucket *Factor
		var rest []*Factor
		for _, f := range work {
			if mentions(f, v) {
				if bucket == nil {
					bucket = f
				} else {
					var err error
					if bucket, err = checkedMultiply(g, bucket, f); err != nil {
						return nil, err
					}
				}
			} else {
				rest = append(rest, f)
			}
		}
		if bucket == nil {
			continue
		}
		work = append(rest, bucket.SumOut(v))
	}
	// Multiply the remainder.
	out := NewFactor(nil, nil)
	out.vals[0] = 1
	for _, f := range work {
		var err error
		if out, err = checkedMultiply(g, out, f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mentions(f *Factor, v int) bool {
	for _, fv := range f.vars {
		if fv == v {
			return true
		}
	}
	return false
}

// bucketCost estimates the table size produced by eliminating v.
func bucketCost(work []*Factor, v int) float64 {
	seen := map[int]int{}
	for _, f := range work {
		if !mentions(f, v) {
			continue
		}
		for i, fv := range f.vars {
			seen[fv] = f.card[i]
		}
	}
	if len(seen) == 0 {
		return math.MaxFloat64
	}
	cost := 1.0
	for fv, c := range seen {
		if fv == v {
			continue
		}
		cost *= float64(c)
	}
	return cost
}
