package govern

import (
	"math"

	"pxml/internal/core"
	"pxml/internal/model"
)

// Profile is the upfront width/cost estimate for one probabilistic
// instance: the structural quantities that determine how expensive
// inference can get, computed in O(objects + OPF entries) without
// allocating any factor tables. MaxCPTCells mirrors bayes.CompileCtx's
// CPT construction cell for cell, so "Profile says it fits" and "the
// compile's own pre-allocation guard passes" agree.
//
// Cell counts are float64 on purpose: a width-bomb's CPT size overflows
// int64 long before it overflows float64's exponent, and the estimator
// must refuse such instances, not wrap around into a plausible number.
type Profile struct {
	// Objects reachable from the root (only those enter the BN).
	Objects int
	// Tree reports whether the weak instance graph is a tree (the
	// ε-algorithms apply; no BN compile needed for path queries).
	Tree bool
	// MaxFanout is the largest potential child set in any OPF entry.
	MaxFanout int
	// MaxOPFEntries is the entry count of the widest local distribution
	// (an OPF over b optional children holds up to 2^b entries).
	MaxOPFEntries int
	// TotalOPFEntries sums OPF and VPF entries over reachable objects —
	// the dominant per-sample and per-ε-pass scan cost.
	TotalOPFEntries int64
	// MaxCPTCells is the cell count of the largest conditional
	// probability table bayes.CompileCtx would materialize.
	MaxCPTCells float64
	// TotalCPTCells sums predicted CPT cells over the compiled network —
	// a lower bound on exact-inference work before elimination even starts.
	TotalCPTCells float64
	// WorldsFloor is a lower bound on |Domain(I)|: each positive root
	// child set yields at least one distinct possible world.
	WorldsFloor float64
	// WidestObject names the object owning MaxCPTCells (diagnostics).
	WidestObject string
}

// Measure computes the Profile for pi. It never allocates proportional
// to the predicted cost — that is the point.
func Measure(pi *core.ProbInstance) Profile {
	p := Profile{Tree: pi.IsTree(), WorldsFloor: 1}
	g := pi.WeakInstance.Graph()
	root := pi.Root()
	reach := make(map[model.ObjectID]bool)
	for _, o := range g.ReachableFrom(root) {
		reach[o] = true
	}
	p.Objects = len(reach)

	// First pass: per-object BN state counts, mirroring bayes.CompileCtx
	// (positive OPF entries for interior objects, positive VPF entries
	// or a single "present" state for leaves, +1 absent for non-roots).
	states := make(map[model.ObjectID]int, len(reach))
	for o := range reach {
		n := 0
		if !pi.IsLeaf(o) {
			if opf := pi.OPF(o); opf != nil {
				entries := opf.Entries()
				if len(entries) > p.MaxOPFEntries {
					p.MaxOPFEntries = len(entries)
				}
				p.TotalOPFEntries += int64(len(entries))
				for _, e := range entries {
					if len(e.Set) > p.MaxFanout {
						p.MaxFanout = len(e.Set)
					}
					if e.Prob > 0 {
						n++
					}
				}
				if o == root && n > 1 {
					p.WorldsFloor = float64(n)
				}
			}
		} else if vpf := pi.VPF(o); vpf != nil {
			p.TotalOPFEntries += int64(vpf.Len())
			for _, e := range vpf.Entries() {
				if e.Prob > 0 {
					n++
				}
			}
		} else {
			n = 1
		}
		if o != root {
			n++
		}
		if n < 1 {
			// A zero-state variable is invalid input, not a cost blowup;
			// count it as 1 so products stay meaningful.
			n = 1
		}
		states[o] = n
	}

	// Second pass: predicted CPT cells per object — its own cardinality
	// times the product of its kept (reachable) parents' cardinalities.
	for o := range reach {
		cells := float64(states[o])
		for _, par := range g.Parents(o) {
			if reach[par] {
				cells *= float64(states[par])
			}
		}
		p.TotalCPTCells += cells
		if cells > p.MaxCPTCells {
			p.MaxCPTCells = cells
			p.WidestObject = o
		}
	}
	return p
}

// ClampSteps converts a float64 cell/step count to an int64 suitable
// for Governor bookkeeping without overflow.
func ClampSteps(f float64) int64 {
	if f >= math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	if f < 0 {
		return 0
	}
	return int64(f)
}
