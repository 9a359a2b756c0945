package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"pxml/internal/algebra"
	"pxml/internal/enumerate"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/pxql"
)

// BatchResult pairs one statement of a batch with its outcome.
type BatchResult struct {
	Result *pxql.Result
	Err    error
}

// acquire takes a worker-pool slot, or reports the context error if the
// caller is cancelled first.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

// RunBatch evaluates independent statements concurrently over the bounded
// worker pool, returning one BatchResult per statement in input order.
// Statements queued behind a full pool observe cancellation while waiting.
func (e *Engine) RunBatch(ctx context.Context, statements []string) []BatchResult {
	out := make([]BatchResult, len(statements))
	// Warm the shared structures once up front so concurrent statements
	// don't all count a miss racing the same builder.
	if err := e.Warm(ctx); err != nil && ctx.Err() != nil {
		for i := range out {
			out[i] = BatchResult{Err: ctx.Err()}
		}
		return out
	}
	var wg sync.WaitGroup
	for i, stmt := range statements {
		wg.Add(1)
		go func(i int, stmt string) {
			defer wg.Done()
			if err := e.acquire(ctx); err != nil {
				out[i] = BatchResult{Err: err}
				return
			}
			defer e.release()
			// acquire's select can win the slot even when ctx is already
			// done; re-check so a cancelled batch stops draining the queue
			// into fresh evaluations.
			if err := ctx.Err(); err != nil {
				out[i] = BatchResult{Err: err}
				return
			}
			res, err := e.Run(ctx, stmt)
			out[i] = BatchResult{Result: res, Err: err}
		}(i, stmt)
	}
	wg.Wait()
	return out
}

// BatchPoint answers the point queries P(o ∈ p) for many objects
// concurrently, returning probabilities in input order. The first error
// aborts the remaining queries (cancellation errors take precedence so
// callers see the timeout, not a downstream symptom).
func (e *Engine) BatchPoint(ctx context.Context, p pathexpr.Path, objects []model.ObjectID) (probs []float64, err error) {
	start := time.Now()
	e.queries.Add(int64(len(objects)))
	defer func() { e.finish(start, err) }()
	defer e.observeShape(pxql.ShapeBatch, start)
	if err = e.Warm(ctx); err != nil {
		return nil, err
	}
	probs = make([]float64, len(objects))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, o := range objects {
		wg.Add(1)
		go func(i int, o model.ObjectID) {
			defer wg.Done()
			if aerr := e.acquire(ctx); aerr != nil {
				return // cancelled while queued; firstErr already set or ctx expired
			}
			defer e.release()
			if ctx.Err() != nil {
				return // won the slot racing cancellation; don't start work
			}
			// Each point gets its own governor (per-point budget) and its
			// own panic containment, so one pathological object neither
			// exhausts the whole batch's budget nor takes down its workers.
			pr, qerr := func() (pr float64, qerr error) {
				pctx, g, pcancel := e.governed(ctx)
				defer pcancel()
				if qerr = e.admit("prob-point", 0, g); qerr != nil {
					return 0, qerr
				}
				defer recoverQueryPanic(&qerr)
				return e.pointProb(pctx, p, o)
			}()
			if qerr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = qerr
				}
				mu.Unlock()
				cancel()
				return
			}
			probs[i] = pr
		}(i, o)
	}
	wg.Wait()
	if firstErr == nil {
		// Our own cancel fires only after firstErr is set, so a bare
		// context error here is the caller's cancellation.
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return probs, nil
}

// estimateShards fixes how a Monte-Carlo estimate splits across the pool.
// A constant (independent of the worker bound) keeps the sharded seed
// sequence — and therefore the estimate — deterministic on any machine.
const estimateShards = 8

// estimate runs the ESTIMATE statement's forward sampling sharded over the
// worker pool: shard i draws its samples from a deterministic per-shard
// seed, and the shard hit counts combine exactly. The estimate differs
// from the sequential single-stream one only in which (deterministic)
// pseudo-random worlds are drawn.
func (e *Engine) estimate(ctx context.Context, pred func(*model.Instance) bool, n int) (enumerate.Estimate, error) {
	if n < estimateShards {
		// Too small to be worth fanning out: one sequential stream.
		r := rand.New(rand.NewSource(1))
		return enumerate.EstimateProbCtx(ctx, e.pi, pred, n, r)
	}
	// The shards share the statement's governor: the step budget bounds
	// the total sample work regardless of how it is split.
	gov := govern.From(ctx)
	perSample := int64(e.pi.NumObjects())
	if perSample < 1 {
		perSample = 1
	}
	per := n / estimateShards
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		hits     int
		firstErr error
	)
	for shard := 0; shard < estimateShards; shard++ {
		cnt := per
		if shard == 0 {
			cnt += n % estimateShards
		}
		wg.Add(1)
		go func(shard, cnt int) {
			defer wg.Done()
			if err := e.acquire(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer e.release()
			if err := ctx.Err(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			r := rand.New(rand.NewSource(1 + int64(shard)))
			h := 0
			for i := 0; i < cnt; i++ {
				if err := gov.Step(perSample); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if gov == nil && i&63 == 0 {
					if err := ctx.Err(); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
				s, err := enumerate.Sample(e.pi, r)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if pred(s) {
					h++
				}
			}
			mu.Lock()
			hits += h
			mu.Unlock()
		}(shard, cnt)
	}
	wg.Wait()
	if firstErr != nil {
		return enumerate.Estimate{}, firstErr
	}
	pr := float64(hits) / float64(n)
	return enumerate.Estimate{
		P:       pr,
		StdErr:  math.Sqrt(pr * (1 - pr) / float64(n)),
		Samples: n,
	}, nil
}

// warmPair warms two engines' cached structures concurrently — the
// independent per-operand analysis preceding a binary operator.
func warmPair(ctx context.Context, a, b *Engine) error {
	var wg sync.WaitGroup
	var aerr, berr error
	wg.Add(2)
	go func() { defer wg.Done(); aerr = a.Warm(ctx) }()
	go func() { defer wg.Done(); berr = b.Warm(ctx) }()
	wg.Wait()
	if aerr != nil {
		return aerr
	}
	return berr
}

// Product computes the Cartesian product of the two engines' instances
// (Definition 5.7), preparing both operands' support structures
// concurrently, and wraps the product in a fresh engine. The rename map
// records identifier renames applied to the second operand.
func Product(ctx context.Context, a, b *Engine, newRoot model.ObjectID) (*Engine, map[model.ObjectID]model.ObjectID, error) {
	if err := warmPair(ctx, a, b); err != nil {
		return nil, nil, err
	}
	out, renames, err := algebra.CartesianProduct(a.pi, b.pi, newRoot)
	if err != nil {
		return nil, nil, err
	}
	return New(out, WithWorkers(cap(a.sem)), WithBudget(a.budget)), renames, nil
}

// Join computes σ_cond(a × b), the paper's join, preparing both operands
// concurrently like Product, and wraps the joined instance in a fresh
// engine alongside the algebra result.
func Join(ctx context.Context, a, b *Engine, newRoot model.ObjectID, cond algebra.Condition) (*Engine, *algebra.JoinResult, error) {
	if err := warmPair(ctx, a, b); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res, err := algebra.Join(a.pi, b.pi, newRoot, cond)
	if err != nil {
		return nil, nil, err
	}
	return New(res.Instance, WithWorkers(cap(a.sem)), WithBudget(a.budget)), res, nil
}
