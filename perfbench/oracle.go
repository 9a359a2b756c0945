package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"pxml/internal/algebra"
	"pxml/internal/core"
	"pxml/internal/engine"
	"pxml/internal/pathexpr"
)

// probTolerance is the one tolerance every probability in a reply is
// checked against: |reply − expected| ≤ probTolerance. Server and oracle
// run the same kernels, so any larger difference is a wrong answer.
const probTolerance = 1e-9

// probe is one engine answer the oracle computes: statement stmt on
// instance pi, evaluated by a fresh engine.New with no result cache.
type probe struct {
	pi   *core.ProbInstance
	stmt string
	prob float64
	err  error
}

type probeKey struct {
	pi   *core.ProbInstance
	stmt string
}

// oracle computes every expected answer in-process through the library.
// Engine answers are collected as probes and evaluated by resolve;
// algebra answers are computed immediately because later reads are asked
// of the instances they produce.
type oracle struct {
	w       *workload
	index   map[probeKey]int
	results map[probeKey]algebraResult
}

type algebraResult struct {
	pi  *core.ProbInstance
	ans answer
}

func newOracle(w *workload) *oracle {
	return &oracle{w: w, index: map[probeKey]int{}, results: map[probeKey]algebraResult{}}
}

// read registers statement stmt on pi and returns its pending answer.
func (o *oracle) read(pi *core.ProbInstance, stmt string) answer {
	k := probeKey{pi, stmt}
	i, ok := o.index[k]
	if !ok {
		i = len(o.w.probes)
		o.w.probes = append(o.w.probes, probe{pi: pi, stmt: stmt})
		o.index[k] = i
	}
	return answer{probe: i, hasProb: true, objects: -1}
}

// project is Λ_p(pi): the result instance and the kept-object count the
// PROJECT reply must report.
func (o *oracle) project(pi *core.ProbInstance, p pathexpr.Path) (*core.ProbInstance, answer) {
	k := probeKey{pi, "PROJECT " + p.String()}
	if r, ok := o.results[k]; ok {
		return r.pi, r.ans
	}
	out, err := algebra.AncestorProject(pi, p)
	r := algebraResult{pi: out, ans: answer{probe: -1, objects: -1}}
	if err != nil {
		r.ans.refused = err.Error()
	} else {
		r.ans.objects = out.NumObjects()
	}
	o.results[k] = r
	return r.pi, r.ans
}

// selectObj is σ_{p=obj}(pi): the result instance and the selection
// probability the SELECT reply must report.
func (o *oracle) selectObj(pi *core.ProbInstance, p pathexpr.Path, obj string) (*core.ProbInstance, answer) {
	k := probeKey{pi, fmt.Sprintf("SELECT %s = %s", p, obj)}
	if r, ok := o.results[k]; ok {
		return r.pi, r.ans
	}
	out, pr, err := algebra.Select(pi, algebra.ObjectCondition{Path: p, Object: obj})
	r := algebraResult{pi: out, ans: answer{probe: -1, objects: -1, prob: pr, hasProb: true}}
	if err != nil {
		r.ans = answer{probe: -1, objects: -1, refused: err.Error()}
	}
	o.results[k] = r
	return r.pi, r.ans
}

// resolve evaluates every pending probe, one fresh engine per instance,
// over GOMAXPROCS workers, and fills in the answers of every op.
func resolve(w *workload) {
	byPI := map[*core.ProbInstance][]int{}
	var order []*core.ProbInstance
	for i, p := range w.probes {
		if _, ok := byPI[p.pi]; !ok {
			order = append(order, p.pi)
		}
		byPI[p.pi] = append(byPI[p.pi], i)
	}
	jobs := make(chan *core.ProbInstance)
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := range jobs {
				eng := engine.New(pi)
				for _, i := range byPI[pi] {
					res, err := eng.Run(context.Background(), w.probes[i].stmt)
					switch {
					case err != nil:
						w.probes[i].err = err
					case res.Prob == nil:
						w.probes[i].err = fmt.Errorf("statement %q has no probability", w.probes[i].stmt)
					default:
						w.probes[i].prob = *res.Prob
					}
				}
			}
		}()
	}
	for _, pi := range order {
		jobs <- pi
	}
	close(jobs)
	wg.Wait()
	fill := func(o *op) {
		if o.want.probe < 0 {
			return
		}
		p := w.probes[o.want.probe]
		if p.err != nil {
			o.want.refused = p.err.Error()
			return
		}
		o.want.prob = p.prob
	}
	for i := range w.catalog {
		fill(&w.catalog[i])
	}
	for _, o := range w.flat() {
		fill(o)
	}
}
