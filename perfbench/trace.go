package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// metricsSnapshot is the part of GET /v1/metrics the traced run reads.
type metricsSnapshot struct {
	Server      map[string]json.RawMessage `json:"server"`
	ResultCache struct {
		Hits      float64 `json:"hits"`
		Misses    float64 `json:"misses"`
		Evictions float64 `json:"evictions"`
		Collapsed float64 `json:"collapsed"`
	} `json:"result_cache"`
}

// num reads a counter or gauge of the server section (0 when absent).
func (m *metricsSnapshot) num(name string) float64 {
	var v float64
	_ = json.Unmarshal(m.Server[name], &v)
	return v
}

// hist reads the count and sum of an integer histogram.
func (m *metricsSnapshot) hist(name string) (count, sum float64) {
	var h struct{ Count, Sum float64 }
	_ = json.Unmarshal(m.Server[name], &h)
	return h.Count, h.Sum
}

// runTraced measures the per-layer metrics: a tagged HTTP pass over the
// sequence (handler times and /v1/metrics deltas from the server
// process), then the in-process replay of the same sequence, untraced and
// traced in lockstep.
func runTraced(cfg config, w *workload, dir string) (*result, error) {
	seq := w.flat()
	p, _, err := setUp(cfg, w, filepath.Join(dir, "data"), len(seq))
	if err != nil {
		return nil, err
	}
	var m0, m1 metricsSnapshot
	var c0, c1 clockReport
	if err := firstErr(getJSON(p.base, "/v1/metrics", &m0), getJSON(p.base, clockPath, &c0)); err != nil {
		p.stop()
		return nil, err
	}
	out := drive(p.base, w.scripts, w.slots, cfg.clients, true)
	if err := firstErr(getJSON(p.base, "/v1/metrics", &m1), getJSON(p.base, clockPath, &c1)); err != nil {
		p.stop()
		return nil, err
	}
	if err := p.stop(); err != nil {
		return nil, err
	}

	t := newTracer(8 * len(seq))
	untraced, traced, wallU, wallT, err := replayPair(w, filepath.Join(dir, "replay-untraced"), filepath.Join(dir, "replay-traced"), t)
	if err != nil {
		return nil, err
	}

	res := &result{
		workload:  w.name,
		digest:    w.digest,
		attempted: len(seq),
		failed:    out.failed(),
		defs:      perLayer,
		metrics:   map[string]float64{},
	}
	for _, rp := range []*replay{untraced, traced} {
		if rp.stats.wrong > 0 {
			res.failed += rp.stats.wrong
			res.notes = append(res.notes, fmt.Sprintf("FAILED replay: %d wrong answers, first: %s", rp.stats.wrong, rp.stats.firstWrong))
		}
	}
	for _, e := range out.errs {
		res.notes = append(res.notes, "FAILED "+e)
	}
	mt := res.metrics
	layerTimes(mt, seq, out, c1.HandlerNs, t)
	mt["server.allocs_per_req"] = float64(c1.Mallocs-c0.Mallocs) / float64(len(seq))
	mt["trace.overhead"] = wallT.Seconds() / wallU.Seconds()

	delta := func(name string) float64 { return m1.num(name) - m0.num(name) }
	mt["admission.shed"] = delta("http_shed")
	hits, misses := m1.ResultCache.Hits-m0.ResultCache.Hits, m1.ResultCache.Misses-m0.ResultCache.Misses
	if hits+misses > 0 {
		mt["rescache.hit_ratio"] = hits / (hits + misses)
	}
	mt["rescache.evictions"] = m1.ResultCache.Evictions - m0.ResultCache.Evictions
	mt["rescache.collapsed"] = m1.ResultCache.Collapsed - m0.ResultCache.Collapsed
	mt["govern.refused"] = delta("query_intractable") + delta("query_budget_exceeded") + delta("breaker_shed")
	writes, userBytes := 0, 0
	for _, o := range seq {
		if o.kind != opRead {
			writes++
			userBytes += len(o.body)
		}
	}
	if writes > 0 {
		mt["store.fsyncs_per_write"] = delta("store_wal_fsyncs") / float64(writes)
		mt["store.disk_bytes_per_user_byte"] = delta("store_wal_append_bytes") / float64(userBytes)
	}
	n0, s0 := m0.hist("store_commit_batch_size")
	n1, s1 := m1.hist("store_commit_batch_size")
	if n1 > n0 {
		mt["store.commit_batch_size_mean"] = (s1 - s0) / (n1 - n0)
	}
	mt["runtime.gc_cycles"] = delta("runtime_num_gc")
	mt["runtime.gc_pause_ms"] = delta("runtime_gc_pause_total_ns") / 1e6

	st := traced.stats
	mt["engine.lazy_builds"] = float64(st.lazyBuilds)
	if st.bnQueries > 0 {
		mt["bayes.steps_per_query"] = float64(st.bnSteps) / float64(st.bnQueries)
	}
	if st.statements > 0 {
		mt["govern.bytes_per_query"] = float64(st.bytes) / float64(st.statements)
	}
	kept := make([]float64, len(st.kept))
	for i, k := range st.kept {
		kept[i] = float64(k)
	}
	mt["algebra.objects_kept"] = mean(kept)
	mt["codec.encode_binary_ms_p50"] = median(durationsIn(st.encodeBin, time.Millisecond))

	res.notes = append(res.notes, w.describe(),
		fmt.Sprintf("tagged HTTP pass: %d clients, %d requests in %.3fs; replay untraced %.3fs, traced %.3fs, %d spans",
			cfg.clients, len(seq), out.wall.Seconds(), wallU.Seconds(), wallT.Seconds(), len(t.spans)),
		fmt.Sprintf("replay counts: statements %d, result-cache misses %d, lazy builds %d, governor steps %d",
			st.statements, st.cacheMisses, st.lazyBuilds, st.steps))
	if c := mt["trace.coverage"]; c < coverageFloor {
		res.notes = append(res.notes, fmt.Sprintf("COVERAGE BELOW FLOOR: trace.coverage %.3f < %.2f; the named layers miss part of the request time", c, coverageFloor))
	}
	return res, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayPair replays w's sequence twice in lockstep, untraced in dirU and
// traced by t in dirT: request i goes through one replay, then the other,
// so both see the same warm-up, heap growth and machine state, and their
// summed per-request times compare fairly.
func replayPair(w *workload, dirU, dirT string, t *tracer) (u, tr *replay, wallU, wallT time.Duration, err error) {
	if u, err = newLoadedReplay(w, dirU); err != nil {
		return nil, nil, 0, 0, err
	}
	if tr, err = newLoadedReplay(w, dirT); err != nil {
		u.close()
		return nil, nil, 0, 0, err
	}
	tr.t = t
	t.base = time.Now()
	// Whichever replay runs a request second finds the machine warmed by
	// the first (caches, a just-decoded body), so the order alternates.
	timed := func(rp *replay, i int, o *op) time.Duration {
		t0 := time.Now()
		rp.step(i, o)
		return time.Since(t0)
	}
	for i, o := range w.flat() {
		if i%2 == 0 {
			wallU += timed(u, i, o)
			wallT += timed(tr, i, o)
		} else {
			wallT += timed(tr, i, o)
			wallU += timed(u, i, o)
		}
	}
	u.stats.cacheMisses = u.rc.Stats().Misses
	tr.stats.cacheMisses = tr.rc.Stats().Misses
	return u, tr, wallU, wallT, firstErr(u.close(), tr.close())
}

// newLoadedReplay builds a replay in dir and loads w's catalog into it.
func newLoadedReplay(w *workload, dir string) (*replay, error) {
	rp, err := newReplay(dir)
	if err != nil {
		return nil, err
	}
	if err := rp.load(w.catalog); err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

// layerTimes derives the self-time metrics from the spans, the handler
// times of the tagged pass, and its client-observed latencies.
func layerTimes(mt map[string]float64, seq []*op, out *outcome, handlerNs []int64, t *tracer) {
	spans := t.spans
	childSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	reqTotal := make([]int64, len(seq))
	breaker := make([]int64, len(seq))
	engineExtra := make([]int64, len(spans))
	var self [numSpanNames][]float64
	var builds [numSpanNames][]float64
	lazyTotal := int64(0)
	for i, s := range spans {
		d := s.end - s.start
		own := d - childSum[i]
		if s.parent < 0 {
			reqTotal[s.req] += d
		}
		self[s.name] = append(self[s.name], float64(own))
		switch s.name {
		case spIsTree, spIndex, spNetwork, spProfile:
			if s.built {
				builds[s.name] = append(builds[s.name], float64(d))
				lazyTotal += d
			} else if s.parent >= 0 {
				engineExtra[s.parent] += d
			}
		case spBreakerAllow, spBreakerRecord:
			breaker[s.req] += own
		}
	}
	var engineSelf []float64
	for i, s := range spans {
		if s.name == spEngine {
			engineSelf = append(engineSelf, float64(s.end-s.start-childSum[i]+engineExtra[i]))
		}
	}
	var breakerReq []float64
	for i, o := range seq {
		if o.kind != opPut {
			breakerReq = append(breakerReq, float64(breaker[i]))
		}
	}
	p50 := func(xs []float64, unit float64) float64 { return median(xs) / unit }
	mt["admission.admit_ns_p50"] = p50(self[spAdmit], 1)
	mt["govern.breaker_ns_p50"] = p50(breakerReq, 1)
	mt["rescache.lookup_ns_p50"] = p50(self[spCache], 1)
	mt["pxql.parse_us_p50"] = p50(self[spParse], 1e3)
	mt["engine.self_us_p50"] = p50(engineSelf, 1e3)
	mt["bayes.compile_ms_p50"] = p50(builds[spNetwork], 1e6)
	mt["bayes.ve_us_p50"] = p50(self[spVE], 1e3)
	mt["bayes.ve_ms_p99"] = quantile(self[spVE], 0.99) / 1e6
	mt["query.eps_us_p50"] = p50(self[spEps], 1e3)
	mt["codec.decode_text_ms_p50"] = p50(self[spDecode], 1e6)
	mt["core.validate_ms_p50"] = p50(self[spValidate], 1e6)
	mt["store.put_ms_p50"] = p50(self[spStorePut], 1e6)
	mt["algebra.project_ms_p50"] = p50(self[spProject], 1e6)
	mt["algebra.select_ms_p50"] = p50(self[spSelect], 1e6)
	mt["engine.lazy_build_ms_total"] = float64(lazyTotal) / 1e6
	mt["pathexpr.index_build_ms_p50"] = p50(builds[spIndex], 1e6)
	mt["server.encode_us_p50"] = p50(self[spMarshal], 1e3)

	// Transport is the client-observed latency the handler did not see;
	// server self is the handler time the replayed layers do not account
	// for. Coverage is the share of client latency explained by transport
	// plus the layer self times.
	var transport, serverSelf []float64
	var client, explained float64
	for i := range seq {
		c := float64(out.latency[i])
		h := float64(handlerNs[i])
		unexplained := h - float64(reqTotal[i])
		if unexplained < 0 {
			unexplained = 0
		}
		transport = append(transport, c-h)
		serverSelf = append(serverSelf, unexplained)
		client += c
		explained += c - unexplained
	}
	mt["transport.self_us_p50"] = p50(transport, 1e3)
	mt["server.self_us_p50"] = p50(serverSelf, 1e3)
	if client > 0 {
		mt["trace.coverage"] = explained / client
	}
}
