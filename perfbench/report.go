package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef names one printed metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"transport.self_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.allocs_per_req", "count"},
	{"server.encode_us_p50", "us"},
	{"admission.admit_ns_p50", "ns"},
	{"admission.shed", "count"},
	{"govern.breaker_ns_p50", "ns"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.lookup_ns_p50", "ns"},
	{"rescache.evictions", "count"},
	{"rescache.collapsed", "count"},
	{"pxql.parse_us_p50", "us"},
	{"engine.self_us_p50", "us"},
	{"engine.lazy_builds", "count"},
	{"bayes.compile_ms_p50", "ms"},
	{"bayes.ve_us_p50", "us"},
	{"bayes.ve_ms_p99", "ms"},
	{"bayes.steps_per_query", "count"},
	{"query.eps_us_p50", "us"},
	{"govern.refused", "count"},
	{"govern.bytes_per_query", "bytes"},
	{"codec.decode_text_ms_p50", "ms"},
	{"codec.encode_binary_ms_p50", "ms"},
	{"core.validate_ms_p50", "ms"},
	{"store.put_ms_p50", "ms"},
	{"store.fsyncs_per_write", "count"},
	{"store.commit_batch_size_mean", "count"},
	{"store.disk_bytes_per_user_byte", "ratio"},
	{"algebra.project_ms_p50", "ms"},
	{"algebra.select_ms_p50", "ms"},
	{"algebra.objects_kept", "count"},
	{"engine.lazy_build_ms_total", "ms"},
	{"pathexpr.index_build_ms_p50", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "x"},
}

// coverageFloor is the share of client-observed latency the traced layer
// self times must account for; a workload below it is flagged.
const coverageFloor = 0.8

// result is one run's output.
type result struct {
	workload  string
	digest    string
	attempted int
	failed    int
	metrics   map[string]float64
	defs      []metricDef
	notes     []string // extra human-readable lines
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result as the
// last line.
func (r *result) print(w io.Writer) error {
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "workload %s  input digest %s\n", r.workload, r.digest)
	fmt.Fprintf(w, "attempted %d  failed %d  fail_ratio %.6g\n", r.attempted, r.failed, ratio)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the nearest-rank q-quantile of xs (xs is sorted in
// place); 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// durationsIn converts durations to floats in unit u.
func durationsIn(ds []time.Duration, u time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(u)
	}
	return out
}

// percentileNote describes a latency sample: its median, p99, and how
// many samples lie beyond the p99.
func percentileNote(name string, xs []float64) string {
	if len(xs) == 0 {
		return name + ": no samples"
	}
	beyond := len(xs) - int(math.Ceil(0.99*float64(len(xs))))
	return fmt.Sprintf("%s: %d samples, %d beyond p99", name, len(xs), beyond)
}

// joinFloats renders xs compactly for a note line.
func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
