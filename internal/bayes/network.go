package bayes

import (
	"context"
	"fmt"
	"sort"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/sets"
)

// Absent is the reserved state name for "object does not occur in the
// compatible instance".
const Absent = "⊥"

// Variable is one discrete network variable with named states.
type Variable struct {
	ID     int
	Name   string
	States []string
}

// Card returns the number of states.
func (v Variable) Card() int { return len(v.States) }

// StateIndex returns the index of a named state, or -1.
func (v Variable) StateIndex(name string) int {
	for i, s := range v.States {
		if s == name {
			return i
		}
	}
	return -1
}

// Network is a Bayesian network compiled from a probabilistic instance:
// one variable per object (child-set choice for non-leaves, value for typed
// leaves, presence for untyped leaves) with a CPT factor each.
type Network struct {
	vars    []Variable
	factors []*Factor
	byName  map[string]int
	// objVar maps an object id to its variable id.
	objVar map[model.ObjectID]int
	// setKeyState maps (variable, child-set key) to the state index, used
	// when conditioning on a parent's choice containing a given child.
	containsChild map[int]map[model.ObjectID][]int
	root          model.ObjectID
}

// Var returns a variable by id.
func (n *Network) Var(id int) Variable { return n.vars[id] }

// NumVars returns the number of variables.
func (n *Network) NumVars() int { return len(n.vars) }

// NumFactors returns the number of CPT factors.
func (n *Network) NumFactors() int { return len(n.factors) }

// VarOf returns the variable id of an object. The boolean result is false
// for unknown objects.
func (n *Network) VarOf(o model.ObjectID) (int, bool) {
	id, ok := n.objVar[o]
	return id, ok
}

func (n *Network) addVar(name string, states []string) int {
	id := len(n.vars)
	n.vars = append(n.vars, Variable{ID: id, Name: name, States: states})
	n.byName[name] = id
	return id
}

// CompileCtx maps a probabilistic instance to its Bayesian network per the
// Section 6 correspondence. Variables are created in topological order of
// the weak instance graph, so every object's weak parents already have
// variables when its CPT is built.
//
// Under a context-carried resource governor (govern.From) each CPT is
// size-checked against the hard factor cap and the query's byte
// budget BEFORE its table is allocated, and cancellation is honoured
// between objects. Even without a governor the hard cap applies, so a
// width-bomb instance fails compilation with a typed error instead of
// allocating an astronomically large table.
func CompileCtx(ctx context.Context, pi *core.ProbInstance) (*Network, error) {
	gov := govern.From(ctx)
	g := pi.WeakInstance.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("bayes: %w", err)
	}
	net := &Network{
		byName:        make(map[string]int),
		objVar:        make(map[model.ObjectID]int),
		containsChild: make(map[int]map[model.ObjectID][]int),
		root:          pi.Root(),
	}
	// Only objects reachable from the root matter.
	reach := make(map[model.ObjectID]bool)
	for _, o := range g.ReachableFrom(pi.Root()) {
		reach[o] = true
	}
	for _, o := range order {
		if !reach[o] {
			continue
		}
		if err := gov.Err(); err != nil {
			return nil, err
		}
		isRoot := o == pi.Root()
		var states []string
		var childSets []sets.Set
		var probs []float64
		switch {
		case !pi.IsLeaf(o):
			opf := pi.OPF(o)
			if opf == nil {
				return nil, fmt.Errorf("bayes: non-leaf %s has no OPF", o)
			}
			for _, e := range opf.Entries() {
				if e.Prob <= 0 {
					continue
				}
				states = append(states, "c:"+e.Set.Key())
				childSets = append(childSets, e.Set)
				probs = append(probs, e.Prob)
			}
		default:
			if vpf := pi.VPF(o); vpf != nil {
				for _, e := range vpf.Entries() {
					if e.Prob <= 0 {
						continue
					}
					states = append(states, "v:"+e.Value)
					probs = append(probs, e.Prob)
				}
			} else {
				states = append(states, "present")
				probs = append(probs, 1)
			}
		}
		if !isRoot {
			states = append(states, Absent)
		}
		id := net.addVar(string(o), states)
		net.objVar[o] = id
		// Record which states of this variable include each child.
		cc := make(map[model.ObjectID][]int)
		for si, cs := range childSets {
			for _, ch := range cs {
				cc[ch] = append(cc[ch], si)
			}
		}
		net.containsChild[id] = cc

		// CPT: X_o given the weak parents' variables.
		parents := g.Parents(o)
		var keptParents []model.ObjectID
		for _, p := range parents {
			if reach[p] {
				keptParents = append(keptParents, p)
			}
		}
		sort.Strings(keptParents)
		fvars := []int{id}
		fcard := []int{len(states)}
		for _, p := range keptParents {
			pv := net.objVar[p]
			fvars = append(fvars, pv)
			fcard = append(fcard, net.vars[pv].Card())
		}
		f, err := checkedNewFactor(gov, fvars, fcard)
		if err != nil {
			return nil, fmt.Errorf("compiling CPT for %s: %w", o, err)
		}
		f.EachAssignment(func(assign []int, _ float64) {
			present := isRoot
			for i, p := range keptParents {
				pv := net.objVar[p]
				if includesChild(net, pv, assign[i+1], o) {
					present = true
					break
				}
			}
			st := assign[0]
			var pr float64
			if present {
				if st < len(probs) {
					pr = probs[st]
				} else {
					pr = 0 // absent while some parent includes it
				}
			} else {
				if !isRoot && st == len(states)-1 {
					pr = 1 // absent
				} else {
					pr = 0
				}
			}
			f.Set(assign, pr)
		})
		net.factors = append(net.factors, f)
	}
	return net, nil
}

// includesChild reports whether state st of variable pv corresponds to a
// child set containing o.
func includesChild(net *Network, pv, st int, o model.ObjectID) bool {
	for _, si := range net.containsChild[pv][o] {
		if si == st {
			return true
		}
	}
	return false
}

// MarginalCtx computes the marginal distribution of an object's variable,
// with elimination governed by ctx's budget.
func (n *Network) MarginalCtx(ctx context.Context, o model.ObjectID) (map[string]float64, error) {
	id, ok := n.objVar[o]
	if !ok {
		return nil, fmt.Errorf("bayes: unknown object %s", o)
	}
	f, err := EliminateAllCtx(ctx, n.factors, map[int]bool{id: true})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, n.vars[id].Card())
	f.EachAssignment(func(assign []int, v float64) {
		out[n.vars[id].States[assign[0]]] += v
	})
	return out, nil
}

// ProbExistsCtx returns the probability that object o occurs in a
// compatible instance — the Section 2 scenario 4 query ("the probability
// that a particular author exists"), exact on DAGs — with elimination
// governed by ctx's budget.
func (n *Network) ProbExistsCtx(ctx context.Context, o model.ObjectID) (float64, error) {
	m, err := n.MarginalCtx(ctx, o)
	if err != nil {
		return 0, err
	}
	return 1 - m[Absent], nil
}

// ProbValue returns the probability that typed leaf o occurs with value v.
func (n *Network) ProbValue(o model.ObjectID, v model.Value) (float64, error) {
	m, err := n.MarginalCtx(context.Background(), o)
	if err != nil {
		return 0, err
	}
	return m["v:"+v], nil
}

// PathProb answers a probabilistic point query on an arbitrary acyclic
// instance: the probability that object o satisfies path expression p (or,
// with o == "", that any object does). It augments the compiled network
// with deterministic reachability variables R_{i,x} — "x is reached by the
// first i labels of p" — whose OR-structure mirrors the level sets of the
// path plan, then eliminates everything.
func PathProb(pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	if p.Root != pi.Root() {
		return 0, nil
	}
	net, err := CompileCtx(context.Background(), pi)
	if err != nil {
		return 0, err
	}
	return pathProbOn(context.Background(), net, pi, p, o)
}

// PathProbWithCtx is PathProb over a previously compiled network: callers
// holding many queries against one immutable instance compile once and
// reuse. The shared network is never mutated — the path augmentation works
// on a shallow per-query clone of the variable table. Under a
// context-carried resource governor the reachability factors and every elimination product are
// budget-checked before allocation and cancellation is honoured at the
// per-variable loop boundaries.
func PathProbWithCtx(ctx context.Context, net *Network, pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	if p.Root != pi.Root() {
		return 0, nil
	}
	return pathProbOn(ctx, net.queryClone(), pi, p, o)
}

// queryClone returns a shallow copy whose variable table can be extended
// by addVar without touching the receiver. Factors, objVar and
// containsChild are shared: the augmentation only reads them.
func (n *Network) queryClone() *Network {
	byName := make(map[string]int, len(n.byName))
	for k, v := range n.byName {
		byName[k] = v
	}
	return &Network{
		vars:          append([]Variable(nil), n.vars...),
		factors:       n.factors,
		byName:        byName,
		objVar:        n.objVar,
		containsChild: n.containsChild,
		root:          n.root,
	}
}

// pathProbOn runs the reachability augmentation and elimination on net,
// which it may extend with fresh variables (pass a queryClone when the
// network is shared).
func pathProbOn(ctx context.Context, net *Network, pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	gov := govern.From(ctx)
	if p.Len() == 0 {
		if o == "" || o == pi.Root() {
			return 1, nil
		}
		return 0, nil
	}
	g := pi.WeakInstance.Graph()
	var targets map[model.ObjectID]bool
	if o != "" {
		targets = map[model.ObjectID]bool{o: true}
	}
	plan := pathexpr.NewPlan(g, p, targets)
	if plan.IsEmpty() {
		return 0, nil
	}
	// Kept edges grouped by (level, child).
	type lk struct {
		level int
		child model.ObjectID
	}
	parentsOf := make(map[lk][]model.ObjectID)
	for level := 1; level < len(plan.Keep); level++ {
		want := p.Labels[level-1]
		for x := range plan.Keep[level] {
			for _, e := range plan.Edges {
				// An edge contributes reach at this level only when its
				// label matches the level's path label (kept edges may
				// stem from other levels of a DAG plan).
				if e.To == x && plan.Keep[level-1][e.From] &&
					(want == pathexpr.Wildcard || e.Label == want) {
					parentsOf[lk{level, x}] = append(parentsOf[lk{level, x}], e.From)
				}
			}
		}
	}
	factors := append([]*Factor(nil), net.factors...)
	// rvar[(level, x)] = id of R_{level,x}; level 0 root is implicitly true.
	rvar := make(map[lk]int)
	boolStates := []string{"f", "t"}
	for level := 1; level < len(plan.Keep); level++ {
		for _, x := range sortedKeys(plan.Keep[level]) {
			if err := gov.Err(); err != nil {
				return 0, err
			}
			key := lk{level, x}
			ps := parentsOf[key]
			sort.Strings(ps)
			id := net.addVar(fmt.Sprintf("R%d:%s", level, x), boolStates)
			rvar[key] = id
			// Factor over (R_{level,x}, for each kept parent y: X_y [, R_{level-1,y}]).
			fvars := []int{id}
			fcard := []int{2}
			type pref struct {
				xvar int
				rvar int // -1 when level-1 == 0 (root reach is certain)
				y    model.ObjectID
			}
			var prefs []pref
			for _, y := range ps {
				xv := net.objVar[y]
				rv := -1
				if level-1 > 0 {
					rv = rvar[lk{level - 1, y}]
				}
				prefs = append(prefs, pref{xvar: xv, rvar: rv, y: y})
				fvars = append(fvars, xv)
				fcard = append(fcard, net.vars[xv].Card())
				if rv >= 0 {
					fvars = append(fvars, rv)
					fcard = append(fcard, 2)
				}
			}
			f, err := checkedNewFactor(gov, fvars, fcard)
			if err != nil {
				return 0, fmt.Errorf("reachability factor R%d:%s: %w", level, x, err)
			}
			f.EachAssignment(func(assign []int, _ float64) {
				reached := false
				pos := 1
				for _, pr := range prefs {
					xState := assign[pos]
					pos++
					parentReached := true
					if pr.rvar >= 0 {
						parentReached = assign[pos] == 1
						pos++
					}
					if parentReached && includesChild(net, pr.xvar, xState, x) {
						reached = true
					}
				}
				want := 0
				if reached {
					want = 1
				}
				if assign[0] == want {
					f.Set(assign, 1)
				} else {
					f.Set(assign, 0)
				}
			})
			factors = append(factors, f)
		}
	}
	// Final event: OR over the matched objects' reach variables.
	n := p.Len()
	matchedIDs := sortedKeys(plan.Keep[n])
	anyVar := net.addVar("ANY", boolStates)
	fvars := []int{anyVar}
	fcard := []int{2}
	for _, m := range matchedIDs {
		rv := rvar[lk{n, m}]
		fvars = append(fvars, rv)
		fcard = append(fcard, 2)
	}
	f, err := checkedNewFactor(gov, fvars, fcard)
	if err != nil {
		return 0, fmt.Errorf("path match factor: %w", err)
	}
	f.EachAssignment(func(assign []int, _ float64) {
		any := false
		for i := 1; i < len(assign); i++ {
			if assign[i] == 1 {
				any = true
				break
			}
		}
		want := 0
		if any {
			want = 1
		}
		if assign[0] == want {
			f.Set(assign, 1)
		}
	})
	factors = append(factors, f)
	joint, err := EliminateAllCtx(ctx, factors, map[int]bool{anyVar: true})
	if err != nil {
		return 0, err
	}
	total, trueMass := 0.0, 0.0
	joint.EachAssignment(func(assign []int, v float64) {
		total += v
		if assign[0] == 1 {
			trueMass += v
		}
	})
	if total <= 0 {
		return 0, nil
	}
	return trueMass / total, nil
}

func sortedKeys(m map[model.ObjectID]bool) []model.ObjectID {
	out := make([]model.ObjectID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Evidence asserts facts about objects when querying: each listed object
// is required to occur (Exists) or to be absent (Absent) in the compatible
// instance.
type Evidence struct {
	Exists []model.ObjectID
	Absent []model.ObjectID
}

// evidenceFactors builds indicator factors for the evidence.
func (n *Network) evidenceFactors(ev Evidence) ([]*Factor, error) {
	var fs []*Factor
	add := func(o model.ObjectID, wantAbsent bool) error {
		id, ok := n.objVar[o]
		if !ok {
			return fmt.Errorf("bayes: unknown object %s in evidence", o)
		}
		v := n.vars[id]
		absentIdx := v.StateIndex(Absent)
		f := NewFactor([]int{id}, []int{v.Card()})
		for s := 0; s < v.Card(); s++ {
			isAbsent := s == absentIdx
			if isAbsent == wantAbsent {
				f.Set([]int{s}, 1)
			}
		}
		fs = append(fs, f)
		return nil
	}
	for _, o := range ev.Exists {
		if err := add(o, false); err != nil {
			return nil, err
		}
	}
	for _, o := range ev.Absent {
		if err := add(o, true); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// ProbEvidence returns the probability that all the evidence holds.
func (n *Network) ProbEvidence(ev Evidence) (float64, error) {
	evf, err := n.evidenceFactors(ev)
	if err != nil {
		return 0, err
	}
	joint, err := EliminateAllCtx(context.Background(), append(append([]*Factor(nil), n.factors...), evf...), nil)
	if err != nil {
		return 0, err
	}
	return joint.Scalar()
}

// MarginalGiven computes the marginal distribution of object o conditioned
// on the evidence — the Bayesian-network counterpart of the selection
// operator's renormalization (Definition 5.6), exact on DAGs. It returns
// an error when the evidence has probability zero.
func (n *Network) MarginalGiven(o model.ObjectID, ev Evidence) (map[string]float64, error) {
	id, ok := n.objVar[o]
	if !ok {
		return nil, fmt.Errorf("bayes: unknown object %s", o)
	}
	evf, err := n.evidenceFactors(ev)
	if err != nil {
		return nil, err
	}
	joint, err := EliminateAllCtx(context.Background(), append(append([]*Factor(nil), n.factors...), evf...), map[int]bool{id: true})
	if err != nil {
		return nil, err
	}
	total := 0.0
	out := make(map[string]float64, n.vars[id].Card())
	joint.EachAssignment(func(assign []int, v float64) {
		out[n.vars[id].States[assign[0]]] += v
		total += v
	})
	if total <= 0 {
		return nil, fmt.Errorf("bayes: evidence has probability zero")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// ProbExistsGiven returns P(o exists | evidence).
func (n *Network) ProbExistsGiven(o model.ObjectID, ev Evidence) (float64, error) {
	m, err := n.MarginalGiven(o, ev)
	if err != nil {
		return 0, err
	}
	return 1 - m[Absent], nil
}
