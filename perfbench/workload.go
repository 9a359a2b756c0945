package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/pathexpr"
)

// opKind is the HTTP shape of one request.
type opKind uint8

const (
	opRead  opKind = iota // POST /v1/instances/{name}/query
	opStore               // POST /v1/instances/{name}/query?store={dst}
	opPut                 // PUT /v1/instances/{name} (text codec)
)

// op is one request of a workload together with its expected answer.
type op struct {
	kind     opKind
	instance string // instance named in the URL (the admission tenant)
	store    string // ?store= target for opStore
	body     []byte // statement, or instance text for opPut
	want     answer
}

// answer is what a correct reply carries, computed in-process through
// the library before any request is sent.
type answer struct {
	probe   int     // index into workload.probes for engine answers; -1 none
	prob    float64 // expected "prob" field (reads, SELECT)
	hasProb bool
	objects int    // PUT: decoded object count; PROJECT: kept objects; -1 unchecked
	refused string // non-empty: the library refuses this statement too
}

// script is a run of ops one client issues in order. Scripts sharing a
// slot (instance names they write and then read) never overlap; an
// exclusive script runs while every other client waits between scripts.
type script struct {
	slot      int // -1: independent
	exclusive bool
	ops       []op
}

// workload is one seeded, fully materialized benchmark input.
type workload struct {
	name    string
	catalog []op // PUTs loaded during set-up
	scripts []script
	slots   int
	probes  []probe
	digest  string
}

// numOps returns the number of requests in the measured sequence.
func (w *workload) numOps() int {
	n := 0
	for _, s := range w.scripts {
		n += len(s.ops)
	}
	return n
}

// flat returns the measured sequence in script order; index i of the
// result is the op's sequence number in every phase of a run.
func (w *workload) flat() []*op {
	out := make([]*op, 0, w.numOps())
	for si := range w.scripts {
		for oi := range w.scripts[si].ops {
			out = append(out, &w.scripts[si].ops[oi])
		}
	}
	return out
}

// Structural parameters. Sequence lengths are a rate per second of
// --seconds; with the seed they fix the inputs, which never depend on a
// measured time, so a faster program finishes the same sequence sooner.
const (
	readHotReadsPerSecond = 20000
	readHotTrickleEvery   = 1000 // one trickle script per this many scripts
	inferDAGInstPerSecond = 190
	inferDAGTrickleEvery  = 125
	writeMixRoundsPerSec  = 160
	readHotTricklePuts    = 5
	inferDAGTricklePuts   = 10 // its larger heap gives the write tail more spread, so more samples
	writeMixSlots         = 8
	readHotTrees          = 8
	readHotStmtsPerTree   = 32
	writeMixPoolTrees     = 8
	writeMixMenusPerTree  = 3
	trickleTrees          = 4
	zipfS                 = 1.1
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"read_hot", "infer_dag", "write_mix"}

// generate builds the named workload from seed; expected answers of
// engine probes stay pending until resolve.
func generate(name string, seed int64, seconds int) (*workload, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be >= 1")
	}
	w := &workload{name: name}
	o := newOracle(w)
	r := rand.New(rand.NewSource(seed))
	var err error
	switch name {
	case "read_hot":
		err = genReadHot(w, o, r, seconds)
	case "infer_dag":
		err = genInferDAG(w, o, r, seconds)
	case "write_mix":
		err = genWriteMix(w, o, r, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.digest = digest(w, seed, seconds)
	return w, nil
}

// digest fingerprints everything the server will see: the PUT bodies and
// the statement list, in order.
func digest(w *workload, seed int64, seconds int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d\n", w.name, seed, seconds)
	put := func(o *op) {
		fmt.Fprintf(h, "%d %s %s %d\n", o.kind, o.instance, o.store, len(o.body))
		h.Write(o.body)
	}
	for i := range w.catalog {
		put(&w.catalog[i])
	}
	for _, o := range w.flat() {
		put(o)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// encodeText renders pi in the text codec a client uploads.
func encodeText(pi *core.ProbInstance) ([]byte, error) {
	var b bytes.Buffer
	if err := codec.EncodeText(&b, pi); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// putOp uploads pi under name; the reply must report its object count.
func putOp(name string, body []byte, pi *core.ProbInstance) op {
	return op{kind: opPut, instance: name, body: body, want: answer{probe: -1, objects: pi.NumObjects()}}
}

// readOp asks statement stmt of the instance currently named name, whose
// content is pi.
func readOp(o *oracle, name string, pi *core.ProbInstance, stmt string) op {
	return op{kind: opRead, instance: name, body: []byte(stmt), want: o.read(pi, stmt)}
}

// treeInstance is a generated Section 7.1 tree ready to upload.
type treeInstance struct {
	in   *gen.Instance
	body []byte
}

func genTree(depth, branch int, lab gen.Labeling, seed int64) (treeInstance, error) {
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: branch, Labeling: lab, LeafDomainSize: 2, Seed: seed})
	if err != nil {
		return treeInstance{}, err
	}
	body, err := encodeText(in.PI)
	if err != nil {
		return treeInstance{}, err
	}
	return treeInstance{in: in, body: body}, nil
}

func labeling(i int) gen.Labeling {
	if i%2 == 0 {
		return gen.SL
	}
	return gen.FR
}

// trickle is the write script read_hot and infer_dag carry, so that
// each end-to-end and per-layer metric has samples on every workload:
// PUTs of 364-object Section 7.1 trees (the workload's only writes, so the
// write percentiles describe one kind of request, and each does enough
// work that its median holds from run to run), then PROJECT and SELECT on
// the first of them as unstored reads.
type trickle struct {
	puts  int
	trees []treeInstance
	menus []trickleMenu
}

type trickleMenu struct {
	proj    pathexpr.Path
	projAns answer
	sel     pathexpr.Path
	obj     string
	selAns  answer
}

func newTrickle(o *oracle, r *rand.Rand, puts int) (*trickle, error) {
	t := &trickle{puts: puts}
	for i := 0; i < trickleTrees; i++ {
		ti, err := genTree(5, 3, labeling(i), r.Int63())
		if err != nil {
			return nil, err
		}
		p, obj, ok := ti.in.RandomSelection(r)
		pp, ok2 := ti.in.RandomQuery(r)
		if !ok || !ok2 {
			return nil, fmt.Errorf("trickle tree %d has no satisfiable query", i)
		}
		m := trickleMenu{proj: pp, sel: p, obj: obj}
		_, m.projAns = o.project(ti.in.PI, pp)
		_, m.selAns = o.selectObj(ti.in.PI, p, obj)
		t.trees = append(t.trees, ti)
		t.menus = append(t.menus, m)
	}
	return t, nil
}

func trickleName(i int) string { return "s" + strconv.Itoa(i) }

// catalog returns the initial PUTs of the trickle's instance names.
func (t *trickle) catalog() []op {
	var out []op
	for i := 0; i < t.puts; i++ {
		ti := t.trees[i%len(t.trees)]
		out = append(out, putOp(trickleName(i), ti.body, ti.in.PI))
	}
	return out
}

// script builds one trickle script. It is exclusive: the other clients
// pause between their scripts while it runs, so its writes are measured
// against an otherwise idle server rather than against whatever the
// read loop happens to have in flight.
func (t *trickle) script(r *rand.Rand) script {
	var ops []op
	first := r.Intn(len(t.trees))
	for i := 0; i < t.puts; i++ {
		ti := t.trees[(first+i)%len(t.trees)]
		ops = append(ops, putOp(trickleName(i), ti.body, ti.in.PI))
	}
	m := t.menus[first]
	name := trickleName(0)
	return script{slot: -1, exclusive: true, ops: append(ops,
		op{kind: opRead, instance: name, body: []byte("PROJECT " + m.proj.String()), want: m.projAns},
		op{kind: opRead, instance: name, body: []byte(fmt.Sprintf("SELECT %s = %s", m.sel, m.obj)), want: m.selAns},
	)}
}

// genReadHot: a Zipf-skewed stream over a few hundred scalar statements on
// eight 121-object Section 7.1 trees plus Figure 2.
func genReadHot(w *workload, o *oracle, r *rand.Rand, seconds int) error {
	type stmt struct {
		name string
		pi   *core.ProbInstance
		text string
	}
	var pool []stmt
	for i := 0; i < readHotTrees; i++ {
		ti, err := genTree(4, 3, labeling(i), r.Int63())
		if err != nil {
			return err
		}
		name := "t" + strconv.Itoa(i)
		w.catalog = append(w.catalog, putOp(name, ti.body, ti.in.PI))
		seen := map[string]bool{}
		for attempt := 0; len(seen) < readHotStmtsPerTree && attempt < 20*readHotStmtsPerTree; attempt++ {
			s, ok := treeStatement(ti.in, r)
			if ok && !seen[s] {
				seen[s] = true
				pool = append(pool, stmt{name, ti.in.PI, s})
			}
		}
	}
	fig := fixtures.Figure2()
	body, err := encodeText(fig)
	if err != nil {
		return err
	}
	w.catalog = append(w.catalog, putOp("fig2", body, fig))
	for _, s := range figureStatements(fig) {
		pool = append(pool, stmt{"fig2", fig, s})
	}
	tr, err := newTrickle(o, r, readHotTricklePuts)
	if err != nil {
		return err
	}
	w.catalog = append(w.catalog, tr.catalog()...)

	// Zipf rank k maps to pool[perm[k]], so which statements are hot is
	// seeded too.
	perm := r.Perm(len(pool))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(pool)-1))
	reads := make([]op, len(pool))
	for i, s := range pool {
		reads[i] = readOp(o, s.name, s.pi, s.text)
	}
	n := readHotReadsPerSecond * seconds
	w.scripts = make([]script, 0, n)
	for k := 0; k < n; k++ {
		if k%readHotTrickleEvery == readHotTrickleEvery-1 {
			w.scripts = append(w.scripts, tr.script(r))
			continue
		}
		w.scripts = append(w.scripts, script{slot: -1, ops: []op{reads[perm[z.Uint64()]]}})
	}
	return nil
}

// treeStatement draws one scalar statement on a Section 7.1 tree: a point
// query, an existence query, a value-existence query or an existence
// marginal.
func treeStatement(in *gen.Instance, r *rand.Rand) (string, bool) {
	switch r.Intn(4) {
	case 0:
		p, obj, ok := in.RandomSelection(r)
		return fmt.Sprintf("PROB %s = %s", p, obj), ok
	case 1:
		p, ok := in.RandomQuery(r)
		return "PROB EXISTS " + p.String(), ok
	case 2:
		p, ok := in.RandomQuery(r)
		return fmt.Sprintf("PROB VAL(%s) = w%d", p, r.Intn(2)), ok
	default:
		objs := in.PI.Objects()
		sort.Strings(objs)
		return "PROB OBJECT " + objs[r.Intn(len(objs))], true
	}
}

// figureStatements lists every point, existence and marginal statement of
// Figure 2.
func figureStatements(pi *core.ProbInstance) []string {
	out := pointStatements(pi)
	paths := map[string]bool{}
	for _, pq := range pointPaths(pi) {
		if !paths[pq.path] {
			paths[pq.path] = true
			out = append(out, "PROB EXISTS "+pq.path)
		}
	}
	objs := pi.Objects()
	sort.Strings(objs)
	for _, obj := range objs {
		out = append(out, "PROB OBJECT "+obj)
	}
	return out
}

type pathObj struct{ path, obj string }

// pointPaths enumerates every distinct (label path from the root, object
// it reaches) pair, breadth first in sorted child order.
func pointPaths(pi *core.ProbInstance) []pathObj {
	g := pi.WeakInstance.Graph()
	seen := map[pathObj]bool{}
	var out []pathObj
	frontier := []pathObj{{string(pi.Root()), pi.Root()}}
	for len(frontier) > 0 {
		var next []pathObj
		for _, s := range frontier {
			children := g.Children(s.obj)
			sort.Strings(children)
			for _, c := range children {
				l, _ := g.Label(s.obj, c)
				k := pathObj{s.path + "." + l, c}
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
					next = append(next, k)
				}
			}
		}
		frontier = next
	}
	return out
}

// pointStatements renders every distinct PROB <path> = <obj> of pi.
func pointStatements(pi *core.ProbInstance) []string {
	var out []string
	for _, pq := range pointPaths(pi) {
		out = append(out, fmt.Sprintf("PROB %s = %s", pq.path, pq.obj))
	}
	return out
}

// genInferDAG: a seeded permutation of every distinct point query over
// width-stratified DAG instances; every statement is new to the result
// cache.
func genInferDAG(w *workload, o *oracle, r *rand.Rand, seconds int) error {
	dags, err := genDAGs(r, inferDAGInstPerSecond*seconds)
	if err != nil {
		return err
	}
	var reads []op
	for i, pi := range dags {
		name := "d" + strconv.Itoa(i)
		body, err := encodeText(pi)
		if err != nil {
			return err
		}
		w.catalog = append(w.catalog, putOp(name, body, pi))
		for _, s := range pointStatements(pi) {
			reads = append(reads, readOp(o, name, pi, s))
		}
	}
	r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	tr, err := newTrickle(o, r, inferDAGTricklePuts)
	if err != nil {
		return err
	}
	w.catalog = append(w.catalog, tr.catalog()...)
	for i := range reads {
		if i%inferDAGTrickleEvery == inferDAGTrickleEvery-1 {
			w.scripts = append(w.scripts, tr.script(r))
		}
		w.scripts = append(w.scripts, script{slot: -1, ops: []op{reads[i]}})
	}
	return nil
}

// writeMenu is one (selection, projection) choice on a write_mix tree.
type writeMenu struct {
	sel      pathexpr.Path
	obj      string
	proj     pathexpr.Path
	projPI   *core.ProbInstance
	projAns  answer
	selPI    *core.ProbInstance
	selAns   answer
	pointStm string
	existStm string
	objStm   string
}

// genWriteMix: PUTs of 364-object Section 7.1 trees interleaved with
// PROJECT/SELECT stored back via ?store= and reads of the instances just
// written, one of them a PROB OBJECT on the stored projection (the
// Bayesian-network route).
func genWriteMix(w *workload, o *oracle, r *rand.Rand, seconds int) error {
	trees := make([]treeInstance, writeMixPoolTrees)
	menus := make([][]writeMenu, writeMixPoolTrees)
	for i := range trees {
		ti, err := genTree(5, 3, labeling(i), r.Int63())
		if err != nil {
			return err
		}
		trees[i] = ti
		for m := 0; m < writeMixMenusPerTree; m++ {
			p, obj, ok := ti.in.RandomSelection(r)
			pp, ok2 := ti.in.RandomQuery(r)
			if !ok || !ok2 {
				return fmt.Errorf("write_mix tree %d has no satisfiable query", i)
			}
			wm := writeMenu{sel: p, obj: obj, proj: pp,
				pointStm: fmt.Sprintf("PROB %s = %s", p, obj),
				existStm: "PROB EXISTS " + pp.String()}
			wm.projPI, wm.projAns = o.project(ti.in.PI, pp)
			wm.selPI, wm.selAns = o.selectObj(ti.in.PI, p, obj)
			kept := wm.projPI.Objects()
			sort.Strings(kept)
			wm.objStm = "PROB OBJECT " + kept[len(kept)-1]
			menus[i] = append(menus[i], wm)
		}
	}
	w.slots = writeMixSlots
	for s := 0; s < writeMixSlots; s++ {
		ti := trees[s%len(trees)]
		w.catalog = append(w.catalog, putOp("w"+strconv.Itoa(s), ti.body, ti.in.PI))
	}
	fig := fixtures.Figure2()
	body, err := encodeText(fig)
	if err != nil {
		return err
	}
	w.catalog = append(w.catalog, putOp("fig2", body, fig))

	rounds := writeMixRoundsPerSec * seconds
	for round := 0; round < rounds; round++ {
		slot := round % writeMixSlots
		i := r.Intn(len(trees))
		ti, m := trees[i], menus[i][r.Intn(writeMixMenusPerTree)]
		name := "w" + strconv.Itoa(slot)
		w.scripts = append(w.scripts, script{slot: slot, ops: []op{
			putOp(name, ti.body, ti.in.PI),
			readOp(o, name, ti.in.PI, m.pointStm),
			{kind: opStore, instance: name, store: name + "p", body: []byte("PROJECT " + m.proj.String()), want: m.projAns},
			{kind: opStore, instance: name, store: name + "s", body: []byte(fmt.Sprintf("SELECT %s = %s", m.sel, m.obj)), want: m.selAns},
			readOp(o, name+"p", m.projPI, m.existStm),
			readOp(o, name+"s", m.selPI, m.pointStm),
			readOp(o, name+"p", m.projPI, m.objStm),
		}})
	}
	return nil
}
