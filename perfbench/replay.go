package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"pxml/internal/admission"
	"pxml/internal/algebra"
	"pxml/internal/bayes"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/engine"
	"pxml/internal/govern"
	"pxml/internal/metrics"
	"pxml/internal/pathexpr"
	"pxml/internal/pxql"
	"pxml/internal/query"
	"pxml/internal/rescache"
	"pxml/internal/store"
)

// spanName identifies one layer entry point the replay calls.
type spanName uint8

const (
	spAdmit         spanName = iota // admission.Controller.Admit
	spRelease                       // admission.Controller.Release
	spBreakerAllow                  // govern.Breaker.Allow
	spBreakerRecord                 // govern.Breaker.Record
	spCache                         // rescache.Cache.DoCtx
	spEngine                        // the engine's statement routing around the calls below
	spParse                         // pxql.Parse
	spIsTree                        // engine.Engine.IsTree
	spIndex                         // engine.Engine.Index
	spNetwork                       // engine.Engine.Network
	spProfile                       // engine.Engine.Profile
	spEps                           // query.*IndexedCtx (the ε recursion)
	spValueScan                     // query.ValueExistsQuery (DAG value existence)
	spVE                            // bayes.PathProbWithCtx, bayes.Network.ProbExistsCtx
	spProject                       // algebra.AncestorProject
	spSelect                        // algebra.Select
	spDecode                        // codec.DecodeText
	spValidate                      // core.ProbInstance.ValidateLite
	spStorePut                      // store.Store.Put
	spMarshal                       // json.Marshal of the reply
	numSpanNames
)

// span is one call into a layer. built marks an engine accessor call that
// built its structure (a lazy build) and a DoCtx call that missed.
type span struct {
	name   spanName
	built  bool
	req    int32
	parent int32
	start  int64 // ns since the tracer's base
	end    int64
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced replay runs the same calls without the clock reads.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(n spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, req: t.req, parent: parent, start: int64(time.Since(t.base))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) mark(id int32) {
	if t != nil {
		t.spans[id].built = true
	}
}

// replayStats are the counts a replay makes; for one seed they repeat
// exactly from run to run.
type replayStats struct {
	statements  int   // statements evaluated (result-cache misses)
	lazyBuilds  int   // engine structures built on first touch
	steps       int64 // governor steps over all statements
	bytes       int64 // governor bytes over all statements
	bnSteps     int64 // governor steps of statements answered by the BN route
	bnQueries   int
	kept        []int
	encodeBin   []time.Duration // codec.EncodeBinary side calls (not in the span tree)
	wrong       int
	firstWrong  string
	cacheMisses int64
}

// replay re-enacts the serving stack in-process: the same layer entry
// points Server.Handler reaches, called in the handler's order, on fresh
// instances of each layer configured as serverConfig configures pxmld.
type replay struct {
	t       *tracer
	st      *store.Store
	rc      *rescache.Cache
	adm     *admission.Controller
	br      *govern.Breaker
	budget  govern.Budget
	timeout time.Duration
	engines map[string]*rEngine
	version uint64
	stats   replayStats
}

// rEngine is one instance's engine as the server holds it.
type rEngine struct {
	eng    *engine.Engine
	pi     *core.ProbInstance
	prefix string // result-cache key prefix, "<name>@<version>\x00"
	built  [4]bool
}

// resultCacheBytes is the server's default result-cache budget.
const resultCacheBytes = 32 << 20

func newReplay(dir string) (*replay, error) {
	cfg := serverConfig(dir)
	reg := metrics.NewRegistry()
	opts := cfg.StoreOptions
	opts.Registry = reg
	opts.Stamps = true
	st, _, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	adm, err := admission.New(admission.Config{
		Default:       cfg.DefaultQuota,
		InflightLimit: cfg.MaxInflight,
		Registry:      reg,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &replay{
		st:      st,
		rc:      rescache.New(resultCacheBytes),
		adm:     adm,
		br:      govern.NewBreaker(govern.BreakerConfig{Threshold: cfg.BreakerThreshold}),
		budget:  govern.Budget{Deadline: cfg.QueryDeadline, MaxSteps: cfg.QueryMaxNodes, MaxBytes: cfg.QueryMaxBytes},
		timeout: cfg.RequestTimeout,
		engines: map[string]*rEngine{},
	}, nil
}

func (r *replay) close() error { return r.st.Close() }

// load stores the catalog untraced, as set-up does over PUT.
func (r *replay) load(catalog []op) error {
	for i := range catalog {
		pi, err := codec.DecodeText(bytes.NewReader(catalog[i].body))
		if err != nil {
			return err
		}
		if err := r.st.Put(catalog[i].instance, pi); err != nil {
			return err
		}
		r.install(catalog[i].instance, pi)
	}
	return nil
}

// step replays request i of the sequence.
func (r *replay) step(i int, o *op) {
	if r.t != nil {
		r.t.req = int32(i)
	}
	if o.kind == opPut {
		r.put(o)
	} else {
		r.query(o)
	}
}

// install mirrors Server.Put's engine publication: a fresh engine under a
// new result-cache prefix.
func (r *replay) install(name string, pi *core.ProbInstance) {
	r.version++
	r.engines[name] = &rEngine{
		eng:    engine.New(pi, engine.WithBudget(r.budget)),
		pi:     pi,
		prefix: fmt.Sprintf("%s@%d\x00", name, r.version),
	}
}

func (r *replay) fail(o *op, err error) {
	r.stats.wrong++
	if r.stats.firstWrong == "" {
		r.stats.firstWrong = fmt.Sprintf("%s: %v", describe(o), err)
	}
}

// queryResponse mirrors the server's query reply body.
type queryResponse struct {
	Text   string   `json:"text"`
	Prob   *float64 `json:"prob,omitempty"`
	Stored string   `json:"stored,omitempty"`
}

// query replays POST /v1/instances/{name}/query[?store=].
func (r *replay) query(o *op) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	s := r.t.begin(spAdmit)
	d := r.adm.Admit(o.instance)
	r.t.end(s)
	if !d.OK {
		r.fail(o, fmt.Errorf("admission shed (%s)", d.Reason))
		return
	}
	defer func() {
		s := r.t.begin(spRelease)
		r.adm.Release(o.instance)
		r.t.end(s)
	}()
	stmt := string(o.body)
	key := o.instance + "." + pxql.ClassifyShape(stmt)
	s = r.t.begin(spBreakerAllow)
	allowed, _ := r.br.Allow(key)
	r.t.end(s)
	if !allowed {
		r.fail(o, errors.New("breaker open"))
		return
	}
	re := r.engines[o.instance]
	if re == nil {
		r.fail(o, errors.New("no such instance"))
		return
	}
	computed := false
	s = r.t.begin(spCache)
	v, err := r.rc.DoCtx(ctx, re.prefix+stmt, func() (any, int64, error) {
		computed = true
		res, err := r.eval(ctx, re, stmt)
		if err != nil {
			return nil, 0, err
		}
		if res.Instance != nil {
			return res, -1, nil
		}
		return res, int64(len(stmt)) + int64(len(res.Text)) + 64, nil
	})
	r.t.end(s)
	if computed {
		r.t.mark(s)
	}
	s = r.t.begin(spBreakerRecord)
	r.br.Record(key, isTrip(err))
	r.t.end(s)
	if err != nil {
		r.fail(o, err)
		return
	}
	res := v.(*pxql.Result)
	resp := queryResponse{Text: res.Text, Prob: res.Prob}
	if o.kind == opStore {
		s = r.t.begin(spStorePut)
		err := r.st.Put(o.store, res.Instance)
		r.t.end(s)
		if err != nil {
			r.fail(o, err)
			return
		}
		r.install(o.store, res.Instance)
		resp.Stored = o.store
	}
	s = r.t.begin(spMarshal)
	body, err := json.Marshal(resp)
	r.t.end(s)
	if err == nil {
		err = check(o, 200, body)
	}
	if err != nil {
		r.fail(o, err)
	}
}

// put replays PUT /v1/instances/{name}.
func (r *replay) put(o *op) {
	s := r.t.begin(spAdmit)
	d := r.adm.Admit(o.instance)
	r.t.end(s)
	if !d.OK {
		r.fail(o, fmt.Errorf("admission shed (%s)", d.Reason))
		return
	}
	defer func() {
		s := r.t.begin(spRelease)
		r.adm.Release(o.instance)
		r.t.end(s)
	}()
	s = r.t.begin(spDecode)
	pi, err := codec.DecodeText(bytes.NewReader(o.body))
	r.t.end(s)
	if err != nil {
		r.fail(o, err)
		return
	}
	s = r.t.begin(spValidate)
	err = pi.ValidateLite()
	r.t.end(s)
	if err != nil {
		r.fail(o, err)
		return
	}
	s = r.t.begin(spStorePut)
	err = r.st.Put(o.instance, pi)
	r.t.end(s)
	if err != nil {
		r.fail(o, err)
		return
	}
	r.install(o.instance, pi)
	s = r.t.begin(spMarshal)
	body, err := json.Marshal(map[string]any{"name": o.instance, "objects": pi.NumObjects()})
	r.t.end(s)
	if err == nil {
		err = check(o, 201, body)
	}
	if err != nil {
		r.fail(o, err)
	}
	// The store encodes the binary record inside Put; a side call times
	// that encoding on its own, outside the request's span tree.
	t0 := time.Now()
	if err := codec.EncodeBinary(io.Discard, pi); err == nil {
		r.stats.encodeBin = append(r.stats.encodeBin, time.Since(t0))
	}
}

// isTrip mirrors the server's breaker classification.
func isTrip(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, govern.ErrBudgetExceeded) || errors.Is(err, govern.ErrIntractable) ||
		errors.Is(err, engine.ErrQueryPanic) || errors.Is(err, context.DeadlineExceeded)
}

// access calls one engine accessor under a span and counts first-touch
// builds (one per structure per engine, as the engine's cache_misses do).
func (r *replay) access(re *rEngine, slot int, n spanName, f func()) {
	s := r.t.begin(n)
	f()
	r.t.end(s)
	if !re.built[slot] {
		re.built[slot] = true
		r.stats.lazyBuilds++
		r.t.mark(s)
	}
}

func (r *replay) isTree(re *rEngine) (tree bool) {
	r.access(re, 0, spIsTree, func() { tree = re.eng.IsTree() })
	return tree
}

func (r *replay) index(re *rEngine) (idx *pathexpr.Index) {
	r.access(re, 1, spIndex, func() { idx = re.eng.Index() })
	return idx
}

func (r *replay) network(re *rEngine) (net *bayes.Network, err error) {
	r.access(re, 2, spNetwork, func() { net, err = re.eng.Network() })
	return net, err
}

func (r *replay) profile(re *rEngine) (p govern.Profile) {
	r.access(re, 3, spProfile, func() { p = re.eng.Profile() })
	return p
}

// admit mirrors the engine's upfront admission for the statements the
// workloads send.
func (r *replay) admit(re *rEngine, q pxql.Query, g *govern.Governor) error {
	b := r.budget
	if b.MaxSteps == 0 && b.MaxBytes == 0 {
		return nil
	}
	switch q.Op {
	case "prob-object", "prob-point", "prob-exists", "prob-value":
	default:
		return nil
	}
	prof := r.profile(re)
	if prof.Tree && q.Op != "prob-object" {
		g.SetEstimate(prof.TotalOPFEntries)
		return nil
	}
	g.SetEstimate(govern.ClampSteps(prof.TotalCPTCells))
	switch {
	case prof.MaxCPTCells > float64(bayes.MaxFactorEntries):
		return fmt.Errorf("%w: CPT over the factor cap", govern.ErrIntractable)
	case b.MaxBytes > 0 && prof.TotalCPTCells*8 > float64(b.MaxBytes):
		return fmt.Errorf("%w: network over the byte budget", govern.ErrIntractable)
	case b.MaxSteps > 0 && prof.TotalCPTCells > float64(b.MaxSteps):
		return fmt.Errorf("%w: network over the step budget", govern.ErrIntractable)
	}
	return nil
}

// eval mirrors Engine.Run's uncached path: a governor on the context,
// pxql.Parse, upfront admission, then the kernel pxql.ExecWithCtx and the
// engine backend route the statement to.
func (r *replay) eval(ctx context.Context, re *rEngine, stmt string) (*pxql.Result, error) {
	s := r.t.begin(spEngine)
	defer r.t.end(s)
	g := govern.New(ctx, r.budget)
	ctx = govern.With(ctx, g)
	p := r.t.begin(spParse)
	q, err := pxql.Parse(stmt)
	r.t.end(p)
	if err != nil {
		return nil, err
	}
	if err := r.admit(re, q, g); err != nil {
		return nil, err
	}
	r.stats.statements++
	res, bn, err := r.kernel(ctx, re, q, g)
	r.stats.steps += g.Steps()
	r.stats.bytes += g.Bytes()
	if bn {
		r.stats.bnSteps += g.Steps()
		r.stats.bnQueries++
	}
	return res, err
}

// kernel runs the statement's inference or algebra kernel; bn reports
// whether the Bayesian-network route answered it.
func (r *replay) kernel(ctx context.Context, re *rEngine, q pxql.Query, g *govern.Governor) (res *pxql.Result, bn bool, err error) {
	var pr float64
	var k int32
	switch q.Op {
	case "prob-point", "prob-exists":
		obj := q.Object
		if r.isTree(re) {
			idx := r.index(re)
			k = r.t.begin(spEps)
			if q.Op == "prob-point" {
				pr, err = query.PointQueryIndexedCtx(ctx, re.pi, idx, q.Path, obj)
			} else {
				pr, err = query.ExistsQueryIndexedCtx(ctx, re.pi, idx, q.Path)
			}
			r.t.end(k)
		} else {
			net, nerr := r.network(re)
			if nerr != nil {
				return nil, false, nerr
			}
			k = r.t.begin(spVE)
			pr, err = bayes.PathProbWithCtx(ctx, net, re.pi, q.Path, obj)
			r.t.end(k)
			bn = true
		}
		if err != nil {
			return nil, bn, err
		}
		if q.Op == "prob-point" {
			return &pxql.Result{Prob: &pr, Text: fmt.Sprintf("P(%s ∈ %s) = %.9f", q.Object, q.Path, pr)}, bn, nil
		}
		return &pxql.Result{Prob: &pr, Text: fmt.Sprintf("P(∃ %s) = %.9f", q.Path, pr)}, bn, nil
	case "prob-value":
		if r.isTree(re) {
			idx := r.index(re)
			k = r.t.begin(spEps)
			pr, err = query.ValueExistsQueryIndexedCtx(ctx, re.pi, idx, q.Path, q.Value)
		} else {
			k = r.t.begin(spValueScan)
			pr, err = query.ValueExistsQuery(re.pi, q.Path, q.Value)
		}
		r.t.end(k)
		if err != nil {
			return nil, false, err
		}
		return &pxql.Result{Prob: &pr, Text: fmt.Sprintf("P(val(%s) = %s) = %.9f", q.Path, q.Value, pr)}, false, nil
	case "prob-object":
		net, nerr := r.network(re)
		if nerr != nil {
			return nil, false, nerr
		}
		k = r.t.begin(spVE)
		pr, err = net.ProbExistsCtx(ctx, q.Object)
		r.t.end(k)
		if err != nil {
			return nil, true, err
		}
		return &pxql.Result{Prob: &pr, Text: fmt.Sprintf("P(%s exists) = %.9f", q.Object, pr)}, true, nil
	case "project":
		k = r.t.begin(spProject)
		out, err := algebra.AncestorProject(re.pi, q.Path)
		r.t.end(k)
		if err != nil {
			return nil, false, err
		}
		if err := g.Step(int64(out.NumObjects())); err != nil {
			return nil, false, err
		}
		r.stats.kept = append(r.stats.kept, out.NumObjects())
		return &pxql.Result{Instance: out, Text: fmt.Sprintf("Λ_%s: %d objects", q.Path, out.NumObjects())}, false, nil
	case "select":
		k = r.t.begin(spSelect)
		out, p, err := algebra.Select(re.pi, q.Cond)
		r.t.end(k)
		if err != nil {
			return nil, false, err
		}
		if err := g.Step(int64(out.NumObjects())); err != nil {
			return nil, false, err
		}
		return &pxql.Result{Instance: out, Prob: &p, Text: fmt.Sprintf("σ(%s): P = %.9f", q.Cond, p)}, false, nil
	}
	return nil, false, fmt.Errorf("replay: statement kind %q is not part of any workload", q.Op)
}
