// Command perfbench is pxmld's end-to-end benchmark. It generates a
// seeded workload, serves it with pxmld's serving stack in a child
// process, drives it over loopback HTTP as a closed loop, checks every
// answer against the library, and prints each metric by name with its
// unit; the last stdout line is a JSON result. With -trace 1 it instead
// splits the same sequence into per-layer times: a tagged HTTP pass
// gives the server-side and transport shares, and an in-process replay
// of the layers' entry points gives each layer's self time.
//
// Usage (from the repository root, see run.sh):
//
//	bash perfbench/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
//
// The workloads and metrics are described in perfbench/WORKLOADS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
	clients  int // closed-loop clients: one per processor
}

// setUps is how many set-ups an untraced run makes; setup_s is their
// median.
const setUps = 3

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

// realMain parses args, runs the benchmark (or the server process) and
// returns the exit code. The report goes to stdout.
func realMain(args []string, stdout io.Writer) int {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: read_hot, infer_dag or write_mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "sequence length in seconds of work at the reference rate")
	fs.IntVar(&traceFlag, "trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
	fs.StringVar(&cfg.work, "work", ".bench_build/perfbench/work", "scratch directory for store data")
	serveMode := fs.Bool("serve", false, "internal: run as the server process")
	dataDir := fs.String("data", "", "internal: server store directory")
	clock := fs.Int("clock", 0, "internal: record handler times for this many tagged requests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.clients = runtime.NumCPU()

	if *serveMode {
		if err := serve(*dataDir, *clock); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			return 1
		}
		return 0
	}
	res, err := run(cfg)
	if err == nil {
		err = res.print(stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// run generates the workload, resolves its expected answers, and makes
// one untraced or traced run.
func run(cfg config) (*result, error) {
	w, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	resolve(w)
	// The load generator keeps to one processor so that the server
	// process always has the others; the expected answers above are
	// computed before, on all of them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return runTraced(cfg, w, dir)
	}
	return runUntraced(cfg, w, dir)
}

// describe summarizes the workload's inputs for the report.
func (w *workload) describe() string {
	bytes := 0
	for _, o := range w.catalog {
		bytes += len(o.body)
	}
	return fmt.Sprintf("catalog: %d instances, %d bytes of text; sequence: %d requests in %d scripts",
		len(w.catalog), bytes, w.numOps(), len(w.scripts))
}

// setUp regenerates the workload from its seed (it must match w),
// starts a server on dataDir and loads the catalog over PUT until the
// server is ready. The elapsed time is one setup_s sample.
func setUp(cfg config, w *workload, dataDir string, clockSize int) (*serverProc, time.Duration, error) {
	start := time.Now()
	again, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, 0, err
	}
	if again.digest != w.digest {
		return nil, 0, fmt.Errorf("workload generation is not deterministic: digest %s then %s", w.digest, again.digest)
	}
	p, err := startServer(dataDir, clockSize)
	if err != nil {
		return nil, 0, err
	}
	load := make([]script, len(again.catalog))
	for i := range again.catalog {
		load[i] = script{slot: -1, ops: again.catalog[i : i+1]}
	}
	if out := drive(p.base, load, 0, cfg.clients, false); out.failed() > 0 {
		p.stop()
		return nil, 0, fmt.Errorf("loading the catalog failed: %v", out.errs)
	}
	if err := p.waitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg config, w *workload, dir string) (*result, error) {
	var setups []float64
	var p *serverProc
	for i := 0; i < setUps; i++ {
		if p != nil {
			if err := p.stop(); err != nil {
				return nil, err
			}
		}
		data := filepath.Join(dir, fmt.Sprintf("data-%d", i))
		var d time.Duration
		var err error
		if p, d, err = setUp(cfg, w, data, 0); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	out := drive(p.base, w.scripts, w.slots, cfg.clients, false)
	rss, rssErr := p.peakRSSMB()
	if err := p.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}

	var reads, writes []float64
	completed := 0
	for i, o := range w.flat() {
		ms := float64(out.latency[i]) / float64(time.Millisecond)
		if o.kind == opRead {
			reads = append(reads, ms)
		} else {
			writes = append(writes, ms)
		}
		if out.ok[i] {
			completed++
		}
	}
	res := &result{
		workload:  w.name,
		digest:    w.digest,
		attempted: len(out.ok),
		failed:    out.failed(),
		defs:      endToEnd,
		metrics: map[string]float64{
			"setup_s":          median(append([]float64(nil), setups...)),
			"throughput_ops_s": float64(completed) / out.wall.Seconds(),
			"read_p50_ms":      quantile(reads, 0.5),
			"read_p99_ms":      quantile(reads, 0.99),
			"write_p50_ms":     quantile(writes, 0.5),
			"write_p99_ms":     quantile(writes, 0.99),
			"peak_rss_mb":      rss,
		},
	}
	res.notes = append(res.notes, w.describe(),
		fmt.Sprintf("closed loop: %d clients, %d requests in %.3fs; fsync=always", cfg.clients, len(out.ok), out.wall.Seconds()),
		fmt.Sprintf("setup_s samples: %s", joinFloats(setups)),
		percentileNote("reads", reads), percentileNote("writes", writes))
	for _, e := range out.errs {
		res.notes = append(res.notes, "FAILED "+e)
	}
	return res, nil
}
