package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pxml/internal/server"
)

// TestMain lets the test binary serve as the benchmark's server process,
// which startServer launches as os.Executable() -serve.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(realMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// tinySeconds keeps every test run to about a second of work.
const tinySeconds = 1

func TestSameSeedSameDigest(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, tinySeconds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, tinySeconds)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(name, 8, tinySeconds)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a.digest)
		}
	}
}

// TestCorruptedReplyFails serves a workload through the real handler but
// corrupts chosen replies; each corrupted reply must count as failed.
func TestCorruptedReplyFails(t *testing.T) {
	w, err := generate("write_mix", 3, tinySeconds)
	if err != nil {
		t.Fatal(err)
	}
	resolve(w)
	srv, err := server.New(serverConfig(filepath.Join(t.TempDir(), "data")))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seq := w.flat()
	corrupt := map[int]bool{}
	for i, o := range seq {
		if len(corrupt) < 3 && o.kind == opRead && i%5 == 0 {
			corrupt[i] = true
		}
	}
	if len(corrupt) == 0 {
		t.Fatal("no read to corrupt")
	}
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil || !corrupt[n] {
			h.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var rep map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Errorf("reply %d: %v", n, err)
		}
		rep["prob"] = rep["prob"].(float64) + 1e-6
		rw.WriteHeader(rec.Code)
		_ = json.NewEncoder(rw).Encode(rep)
	}))
	defer ts.Close()

	load := make([]script, len(w.catalog))
	for i := range w.catalog {
		load[i] = script{slot: -1, ops: w.catalog[i : i+1]}
	}
	if out := drive(ts.URL, load, 0, 2, false); out.failed() != 0 {
		t.Fatalf("catalog load failed: %v", out.errs)
	}
	out := drive(ts.URL, w.scripts, w.slots, 2, true)
	if got := out.failed(); got != len(corrupt) {
		t.Fatalf("failed = %d, want %d (the corrupted replies); errors: %v", got, len(corrupt), out.errs)
	}
	for i := range corrupt {
		if out.ok[i] {
			t.Errorf("corrupted reply %d counted as correct", i)
		}
	}

	o := seq[0]
	good := []byte(`{"name":"` + o.instance + `","objects":` + strconv.Itoa(o.want.objects) + `}`)
	if o.kind != opPut || check(o, http.StatusCreated, good) != nil {
		t.Fatalf("first op should be a PUT that checks: %v", check(o, http.StatusCreated, good))
	}
	if check(o, http.StatusUnprocessableEntity, good) == nil {
		t.Error("a non-2xx reply counted as correct")
	}
	if check(o, http.StatusCreated, []byte(`{"name":"`+o.instance+`","objects":1}`)) == nil {
		t.Error("a wrong object count counted as correct")
	}
}

// TestCountsRepeat replays each workload twice, once untraced and once
// traced: the counts a later change may cite must repeat exactly.
func TestCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		w, err := generate(name, 5, tinySeconds)
		if err != nil {
			t.Fatal(err)
		}
		resolve(w)
		dir := t.TempDir()
		u, tr, _, _, err := replayPair(w, filepath.Join(dir, "u"), filepath.Join(dir, "t"), newTracer(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, rp := range []*replay{u, tr} {
			if rp.stats.wrong != 0 {
				t.Fatalf("%s: replay gave %d wrong answers, first: %s", name, rp.stats.wrong, rp.stats.firstWrong)
			}
		}
		a, b := u.stats, tr.stats
		if a.statements != b.statements || a.cacheMisses != b.cacheMisses || a.lazyBuilds != b.lazyBuilds || a.steps != b.steps {
			t.Errorf("%s: counts differ: statements %d/%d, result-cache misses %d/%d, lazy builds %d/%d, governor steps %d/%d",
				name, a.statements, b.statements, a.cacheMisses, b.cacheMisses, a.lazyBuilds, b.lazyBuilds, a.steps, b.steps)
		}
		if a.statements == 0 || a.lazyBuilds == 0 || a.steps == 0 {
			t.Errorf("%s: replay counted nothing: %+v", name, a)
		}
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestPrintedMetricsInBenchmarkJSON runs every workload untraced and
// traced and checks that each printed metric, with its unit, is declared
// in BENCHMARK.json, and that every declared metric is printed.
func TestPrintedMetricsInBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range bf.Workloads {
		names = append(names, wl.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	declared := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		declared["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared["1"][m.Name] = m.Unit
	}
	work := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"-workload", name, "-seed", "2", "-seconds", strconv.Itoa(tinySeconds),
				"-trace", trace, "-work", work}
			if code := realMain(args, &out); code != 0 {
				t.Fatalf("%s trace %s: exit %d", name, trace, code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			for m, v := range res.Metrics {
				unit, ok := declared[trace][m]
				if !ok || unit != v.Unit {
					t.Errorf("%s trace %s: printed %s [%s], BENCHMARK.json has [%s] (declared %v)", name, trace, m, v.Unit, unit, ok)
				}
			}
			if len(res.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace %s: printed %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(declared[trace]))
			}
		}
	}
}
