package server

// Hardening and degraded-mode coverage: health probes, panic recovery,
// the in-flight limiter, per-request deadlines, and the acceptance
// scenario from the fault-tolerance issue — with every fsync failing,
// the handler stack keeps serving reads and queries, writes answer 503,
// and /readyz reports the degradation.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pxml/internal/fixtures"
	"pxml/internal/store"
	"pxml/internal/vfs"
)

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestHealthzAndReadyz(t *testing.T) {
	s, ts := newTestServer(t)

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["uptime_s"].(float64); !ok {
		t.Fatalf("healthz missing uptime_s: %q", body)
	}

	if resp, body = get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz = %d %q", resp.StatusCode, body)
	}

	s.SetDraining(true)
	if resp, body = get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("draining readyz = %d %q", resp.StatusCode, body)
	}
	// Liveness is unaffected by draining.
	if resp, _ = get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
	s.SetDraining(false)
	if resp, _ = get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after drain cleared = %d", resp.StatusCode)
	}
}

// TestDegradedStoreKeepsServingReads is the issue's acceptance scenario:
// every fsync fails, yet the service stays up read-only.
func TestDegradedStoreKeepsServingReads(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	s, err := New(Config{StoreDir: t.TempDir(), StoreOptions: store.Options{Fsync: store.FsyncAlways, FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	putInstance := func(name string) *http.Response {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/instances/"+name, strings.NewReader(figure2Text(t)))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := putInstance("bib"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("healthy PUT = %d", resp.StatusCode)
	}

	// The disk dies: every subsequent fsync fails.
	ffs.FailAll(vfs.OpSync, "")

	// The write that trips the failure and every write after it: 503.
	if resp := putInstance("doomed"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degrading PUT = %d, want 503", resp.StatusCode)
	}
	if resp := putInstance("also-doomed"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT on degraded store = %d, want 503", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/instances/bib", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE on degraded store = %d, want 503", resp.StatusCode)
	}

	// Reads and queries keep serving from memory.
	if resp, _ := get(t, ts.URL+"/instances/bib"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET on degraded store = %d, want 200", resp.StatusCode)
	}
	qresp, err := client.Post(ts.URL+"/instances/bib/query", "text/plain",
		strings.NewReader("PROB EXISTS R.book"))
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query on degraded store = %d %s, want 200", qresp.StatusCode, qbody)
	}

	// Probes: alive, not ready, reason surfaced.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz on degraded store = %d", resp.StatusCode)
	}
	resp2, body := get(t, ts.URL+"/readyz")
	if resp2.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded"`) {
		t.Fatalf("readyz on degraded store = %d %q", resp2.StatusCode, body)
	}

	// /metrics carries the health section and the degraded gauge.
	_, mbody := get(t, ts.URL+"/metrics")
	var m struct {
		Server map[string]any `json:"server"`
		Store  struct {
			Health store.Health `json:"health"`
		} `json:"store"`
	}
	if err := json.Unmarshal([]byte(mbody), &m); err != nil {
		t.Fatal(err)
	}
	if !m.Store.Health.Degraded || m.Store.Health.Reason == "" {
		t.Fatalf("metrics health = %+v, want degraded with reason", m.Store.Health)
	}
	if got := m.Server["store_degraded"].(float64); got != 1 {
		t.Fatalf("store_degraded gauge = %v, want 1", got)
	}
}

// occupySlot parks one admitted API request inside the real handler — a
// PUT whose body has not arrived yet — and waits until admission counts
// it in flight. finish sends the body and returns the PUT's status. The
// caller closes its test server through t.Cleanup, which then runs after
// the cleanup here has unblocked a request left parked by a failure.
func occupySlot(t *testing.T, s *Server, url string) (finish func() int) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest(http.MethodPut, url+"/v1/instances/slow", pr)
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.State().Inflight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked PUT never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	return func() int {
		io.WriteString(pw, figure2Text(t))
		pw.Close()
		return <-status
	}
}

func TestInflightLimiterSheds(t *testing.T) {
	s := MustNew(Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	finish := occupySlot(t, s, ts.URL)

	// The slot is taken: the next request is shed, not queued.
	resp, body := do(t, "GET", ts.URL+"/v1/instances", "", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After (body %q)", body)
	}
	if !strings.Contains(body, `"code":"overloaded"`) {
		t.Fatalf("429 body = %s, want code overloaded", body)
	}
	if got := s.reg.Counter("http_shed").Value(); got != 1 {
		t.Fatalf("http_shed = %d, want 1", got)
	}

	if got := finish(); got != http.StatusCreated {
		t.Fatalf("parked PUT = %d, want 201", got)
	}
	// Slot free again: requests pass.
	if resp, body := do(t, "GET", ts.URL+"/v1/instances", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after release = %d, want 200: %s", resp.StatusCode, body)
	}
}

func TestHealthProbesBypassLimiter(t *testing.T) {
	s := MustNew(Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	finish := occupySlot(t, s, ts.URL)

	if resp, _ := do(t, "GET", ts.URL+"/v1/instances", "", ""); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("API request under saturation = %d, want 429", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz under saturation = %d, want 200", resp.StatusCode)
	}
	// Admin endpoints bypass admission, so operators can still inspect
	// and loosen quotas while the API sheds.
	if resp, body := do(t, "GET", ts.URL+"/v1/admin/quotas", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin quotas under saturation = %d, want 200: %s", resp.StatusCode, body)
	}
	if got := finish(); got != http.StatusCreated {
		t.Fatalf("parked PUT = %d, want 201", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := MustNew(Config{})
	h := s.instrument(s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/instances", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != "internal" || body.Error.Message == "" {
		t.Fatalf("panic response body = %q, %v; want v1 error envelope", rec.Body.String(), err)
	}
	if got := s.reg.Counter("http_panics").Value(); got != 1 {
		t.Fatalf("http_panics = %d, want 1", got)
	}
	// The server keeps serving after the panic.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/instances", nil))
	if got := s.reg.Counter("http_panics").Value(); got != 2 {
		t.Fatalf("http_panics after second panic = %d, want 2", got)
	}
}

func TestRequestDeadlineAnswers503(t *testing.T) {
	// The deadline expires before the engine runs.
	s := MustNew(Config{RequestTimeout: time.Nanosecond})
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()

	resp, err := http.Post(ts2.URL+"/instances/fig/query", "text/plain",
		strings.NewReader("PROB EXISTS R.book"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-deadline query = %d %s, want 503", resp.StatusCode, body)
	}
}
