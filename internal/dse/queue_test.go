package dse

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolForEachRunsAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers, 4)
		n := 100
		got := make([]int32, n)
		err := p.ForEach(context.Background(), n, func(i int) error {
			atomic.AddInt32(&got[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range got {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		p.Close()
	}
}

func TestPoolLowestIndexedErrorWins(t *testing.T) {
	p := NewPool(4, 4)
	defer p.Close()
	err := p.ForEach(context.Background(), 50, func(i int) error {
		if i == 7 || i == 30 {
			return fmt.Errorf("item %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 7 failed" {
		t.Fatalf("got %v, want item 7's error", err)
	}
}

func TestPoolPanicSurfacesAsError(t *testing.T) {
	p := NewPool(2, 2)
	defer p.Close()
	err := p.ForEach(context.Background(), 4, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "work item 2 panicked: kaboom") {
		t.Fatalf("got %v, want recovered panic error", err)
	}
	// The worker that recovered the panic must still be alive.
	if err := p.ForEach(context.Background(), 8, func(int) error { return nil }); err != nil {
		t.Fatalf("pool broken after panic: %v", err)
	}
}

func TestPoolCancellationSkipsPendingItems(t *testing.T) {
	p := NewPool(1, 0) // one worker, no queue: strictly one item at a time
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	release := make(chan struct{})
	err := p.ForEach(ctx, 10, func(i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
			close(release)
		}
		return nil
	})
	<-release
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10 {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
}

func TestPoolSharedAcrossConcurrentBatches(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for b := 0; b < 6; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.ForEach(context.Background(), 25, func(i int) error {
				total.Add(1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if total.Load() != 6*25 {
		t.Fatalf("ran %d items, want %d", total.Load(), 6*25)
	}
}

func TestPoolCloseDrainsAcceptedWork(t *testing.T) {
	p := NewPool(2, 16)
	var done atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.ForEach(context.Background(), 16, func(i int) error {
			time.Sleep(time.Millisecond)
			done.Add(1)
			return nil
		})
	}()
	// Give the batch a moment to enqueue, then drain.
	time.Sleep(5 * time.Millisecond)
	p.Close()
	wg.Wait()
	// Everything accepted before Close must have completed; anything
	// rejected must not have run. Either way no goroutine leaked and the
	// counts are consistent.
	if done.Load() == 0 {
		t.Fatal("close drained nothing")
	}
	// New work after Close is rejected cleanly.
	err := p.ForEach(context.Background(), 3, func(int) error { return nil })
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("got %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2, 2)
	p.Close()
	p.Close()
}

func TestPoolDeterministicResultsAnyWorkerCount(t *testing.T) {
	// The byte-identity contract the service relies on: results land at
	// their index, so any worker count assembles the same output slice.
	var want []int
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers, 4)
		out := make([]int, 64)
		err := p.ForEach(context.Background(), 64, func(i int) error {
			out[i] = i * i
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out
			continue
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, out[i], want[i])
			}
		}
	}
}

// TestPoolErrMatchesForEach checks that Err names the error ForEach gives
// an item it does not run: nil on an open pool with a live context,
// ctx.Err() once the context is done, and ErrPoolClosed (which wins over
// a done context) once Close began.
func TestPoolErrMatchesForEach(t *testing.T) {
	p := NewPool(1, 0)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	never := func(int) error { t.Error("item ran"); return nil }
	if err := p.Err(context.Background()); err != nil {
		t.Fatalf("open pool: %v", err)
	}
	for _, phase := range []string{"open", "closed"} {
		want := context.Canceled
		if phase == "closed" {
			want = ErrPoolClosed
		}
		if err := p.Err(canceled); !errors.Is(err, want) {
			t.Fatalf("%s pool, canceled context: Err %v, want %v", phase, err, want)
		}
		if err := p.ForEach(canceled, 3, never); !errors.Is(err, want) {
			t.Fatalf("%s pool, canceled context: ForEach %v, want %v", phase, err, want)
		}
		p.Close()
	}
	if err := p.Err(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("closed pool: %v", err)
	}
}
