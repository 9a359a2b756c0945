package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// seqHeader tags each measured request with its sequence number so the
// traced server can report the handler time of that exact request.
const seqHeader = "X-Bench-Seq"

// outcome is what one closed-loop pass over a sequence observed.
type outcome struct {
	latency []time.Duration // client-observed, per sequence number
	ok      []bool
	wall    time.Duration
	errs    []string // the first few failure descriptions
}

func (o *outcome) failed() int {
	n := 0
	for _, ok := range o.ok {
		if !ok {
			n++
		}
	}
	return n
}

// newClient returns an HTTP client that keeps exactly one keep-alive
// connection to the server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 2 * time.Minute,
	}
}

// drive runs scripts as a closed loop: clients goroutines, each on one
// keep-alive connection, each sending its next request only after the
// previous reply. Scripts are claimed in order; scripts on the same slot
// never overlap, and an exclusive script waits for the scripts in flight
// and holds the others back until it is done. With tag set every request
// carries its sequence number.
func drive(base string, scripts []script, slots, clients int, tag bool) *outcome {
	n := 0
	offsets := make([]int, len(scripts))
	for i, s := range scripts {
		offsets[i] = n
		n += len(s.ops)
	}
	out := &outcome{latency: make([]time.Duration, n), ok: make([]bool, n)}
	slotMu := make([]sync.Mutex, slots)
	var gate sync.RWMutex
	var next atomic.Int64
	var errMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for {
				si := int(next.Add(1) - 1)
				if si >= len(scripts) {
					return
				}
				s := &scripts[si]
				if s.exclusive {
					gate.Lock()
				} else {
					gate.RLock()
				}
				if s.slot >= 0 {
					slotMu[s.slot].Lock()
				}
				for oi := range s.ops {
					seq := offsets[si] + oi
					t0 := time.Now()
					status, body, err := send(hc, base, &s.ops[oi], seq, tag)
					out.latency[seq] = time.Since(t0)
					if err == nil {
						err = check(&s.ops[oi], status, body)
					}
					out.ok[seq] = err == nil
					if err != nil {
						errMu.Lock()
						if len(out.errs) < 5 {
							out.errs = append(out.errs, fmt.Sprintf("request %d (%s): %v", seq, describe(&s.ops[oi]), err))
						}
						errMu.Unlock()
					}
				}
				if s.slot >= 0 {
					slotMu[s.slot].Unlock()
				}
				if s.exclusive {
					gate.Unlock()
				} else {
					gate.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// requestPath is the v1 URL path of o.
func requestPath(o *op) string {
	switch o.kind {
	case opPut:
		return "/v1/instances/" + o.instance
	case opStore:
		return "/v1/instances/" + o.instance + "/query?store=" + o.store
	default:
		return "/v1/instances/" + o.instance + "/query"
	}
}

func describe(o *op) string {
	if o.kind == opPut {
		return "PUT " + requestPath(o)
	}
	return "POST " + requestPath(o) + " " + string(o.body)
}

// send issues o and returns the status and the whole reply body.
func send(hc *http.Client, base string, o *op, seq int, tag bool) (int, []byte, error) {
	method := http.MethodPost
	if o.kind == opPut {
		method = http.MethodPut
	}
	req, err := http.NewRequest(method, base+requestPath(o), bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if tag {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// reply is the union of the query and PUT reply bodies.
type reply struct {
	Name    string   `json:"name"`
	Objects *int     `json:"objects"`
	Text    string   `json:"text"`
	Prob    *float64 `json:"prob"`
	Stored  string   `json:"stored"`
}

// check compares one reply with the op's expected answer. A refusal the
// oracle predicted still fails: refused statements count in fail_ratio.
func check(o *op, status int, body []byte) error {
	if o.want.refused != "" {
		return fmt.Errorf("statement refused in-process too (%s); HTTP %d", o.want.refused, status)
	}
	wantStatus := http.StatusOK
	if o.kind == opPut {
		wantStatus = http.StatusCreated
	}
	if status != wantStatus {
		return fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("undecodable reply %q: %v", body, err)
	}
	switch o.kind {
	case opPut:
		if r.Name != o.instance || r.Objects == nil || *r.Objects != o.want.objects {
			return fmt.Errorf("PUT reply %s, want name %s and %d objects", body, o.instance, o.want.objects)
		}
		return nil
	case opStore:
		if r.Stored != o.store {
			return fmt.Errorf("stored %q, want %q", r.Stored, o.store)
		}
	}
	if o.want.objects >= 0 {
		if got := keptObjects(r.Text); got != o.want.objects {
			return fmt.Errorf("projection kept %d objects (%q), want %d", got, r.Text, o.want.objects)
		}
	}
	if o.want.hasProb {
		if r.Prob == nil {
			return fmt.Errorf("reply %s has no probability", body)
		}
		if math.Abs(*r.Prob-o.want.prob) > probTolerance {
			return fmt.Errorf("probability %.12g, want %.12g", *r.Prob, o.want.prob)
		}
	}
	return nil
}

// keptObjects parses the object count of a projection reply text
// ("Λ_<path>: <n> objects"); -1 when absent.
func keptObjects(text string) int {
	_, rest, ok := strings.Cut(text, ": ")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(rest, " objects"))
	if err != nil {
		return -1
	}
	return n
}
