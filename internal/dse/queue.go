// Persistent work queue: the package's one batch primitive. A long-running
// server keeps one Pool that every request shards its items over, with a
// bounded queue for backpressure, per-request cancellation, and a graceful
// drain on shutdown; ForEach (parallel.go) builds a transient Pool for a
// single batch. The determinism contract: results land at their item's
// index, so any worker count (including one) produces identical output,
// and the lowest-indexed error wins.

package dse

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrPoolClosed is returned for items submitted after Close began; items
// accepted before Close still run to completion (graceful drain).
var ErrPoolClosed = errors.New("dse: pool closed")

// Pool is a persistent bounded work queue shared across requests: a fixed
// set of worker goroutines draining one bounded job channel. Submissions
// block when the queue is full (backpressure), respect per-request context
// cancellation, and are rejected once Close begins. Safe for concurrent use
// by any number of requests.
type Pool struct {
	jobs chan func()
	quit chan struct{}

	workers    sync.WaitGroup // worker goroutines
	submitters sync.WaitGroup // in-flight Submit calls

	mu      sync.Mutex
	closed  bool
	nworker int
	depth   int
}

// NewPool starts a pool of workers goroutines (<= 0 selects
// runtime.GOMAXPROCS(0)) over a job queue of the given
// depth (<= 0 selects an unbuffered queue: every submission rendezvouses
// with an idle worker).
func NewPool(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 0 {
		depth = 0
	}
	p := &Pool{
		jobs:    make(chan func(), depth),
		quit:    make(chan struct{}),
		nworker: workers,
		depth:   depth,
	}
	for w := 0; w < workers; w++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count; Depth its queue bound.
func (p *Pool) Workers() int { return p.nworker }
func (p *Pool) Depth() int   { return p.depth }

// submit enqueues one job, blocking while the queue is full. It returns
// ctx.Err() on cancellation and ErrPoolClosed once Close began; in either
// case the job will not run.
func (p *Pool) submit(ctx context.Context, job func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	// Registering under the lock orders every in-flight submit before
	// Close's drain: Close flips closed, then waits for submitters, and
	// only then closes the job channel — no send on a closed channel.
	p.submitters.Add(1)
	p.mu.Unlock()
	defer p.submitters.Done()
	select {
	case p.jobs <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.quit:
		return ErrPoolClosed
	}
}

// Err returns the error a ForEach begun now would give every item without
// running it: ErrPoolClosed once Close began, else ctx.Err(). A caller
// that answers some items without the pool checks it first, so those
// items fail as the pool would fail them.
func (p *Pool) Err(ctx context.Context) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrPoolClosed
	}
	return ctx.Err()
}

// ForEach runs fn(i) for every index in [0, n) on the pool's workers and
// waits for the batch to finish. Results must land at their index inside
// fn, the lowest-indexed error is returned, and a panicking item surfaces
// as that index's error instead of killing a worker. A failing item does
// not stop the others. Cancellation is per request: once ctx is
// done, items not yet started return ctx.Err() without running (queued
// items drain cheaply), while already-running items finish — a canceled
// request never corrupts another request's work, it only stops consuming
// workers. Every item of one call observes the same pool as every other
// request's items; fairness between concurrent requests is FIFO over the
// shared queue.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		job := func() {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = protect(i, fn)
		}
		if err := p.submit(ctx, job); err != nil {
			errs[i] = err
			wg.Done()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops accepting work and drains gracefully: submissions in flight
// are resolved (accepted jobs run, blocked ones unblock with
// ErrPoolClosed), every accepted job completes, and the workers exit.
// Close is idempotent and safe to call concurrently with submissions.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.workers.Wait()
		return
	}
	p.closed = true
	close(p.quit)
	p.mu.Unlock()
	p.submitters.Wait()
	close(p.jobs)
	p.workers.Wait()
}
