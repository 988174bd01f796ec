package memostore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetCompletedOnly pins Get's contract: an absent key and an in-flight
// one come back empty and count nothing; a completed entry (value or
// memoized error) counts one hit.
func TestGetCompletedOnly(t *testing.T) {
	s := New(0)
	if v, ok, err := s.Get("k"); ok || v != nil || err != nil {
		t.Fatalf("absent key: %v %v %v", v, ok, err)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("absent Get counted: %+v", st)
	}

	entered, block, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.GetOrCompute("k", func() (any, error) {
			close(entered)
			<-block
			return 7, nil
		})
	}()
	<-entered
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("Get returned an in-flight entry")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("in-flight Get counted: %+v", st)
	}
	close(block)
	<-done
	if v, ok, err := s.Get("k"); !ok || v != 7 || err != nil {
		t.Fatalf("completed key: %v %v %v", v, ok, err)
	}

	boom := errors.New("boom")
	s.GetOrCompute("e", func() (any, error) { return nil, boom })
	if v, ok, err := s.Get("e"); !ok || v != nil || !errors.Is(err, boom) {
		t.Fatalf("memoized error: %v %v %v", v, ok, err)
	}
	if st := s.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 2 hits (the two found Gets), 2 misses", st)
	}
}

// TestGetRefreshesLRU checks that a found Get makes its entry the most
// recently used, as a GetOrCompute hit does.
func TestGetRefreshesLRU(t *testing.T) {
	s := New(2)
	for _, k := range []string{"a", "b"} {
		s.GetOrCompute(k, func() (any, error) { return k, nil })
	}
	s.Get("a")
	s.GetOrCompute("c", func() (any, error) { return "c", nil })
	if _, ok, _ := s.Get("a"); !ok {
		t.Fatal("the key just read was evicted")
	}
	if _, ok, _ := s.Get("b"); ok {
		t.Fatal("the least recently used key survived")
	}
}

// TestGetRacesGetOrCompute interleaves Get and GetOrCompute on one key
// from many goroutines and checks the counters against the sequential
// model: the first GetOrCompute misses and computes, every later one hits,
// a Get hits exactly when it returns the value, and a Get issued after
// the caller's own GetOrCompute returned always finds the entry.
func TestGetRacesGetOrCompute(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(0)
		var computes, getOrComputes, foundGets atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				computed := false
				for i := 0; i < 50; i++ {
					if (g+i)%3 != 0 {
						v, ok, err := s.Get("k")
						if computed && !ok {
							t.Errorf("goroutine %d: Get missed a completed entry", g)
							return
						}
						if ok {
							if v != "v" || err != nil {
								t.Errorf("Get returned %v, %v", v, err)
								return
							}
							foundGets.Add(1)
						}
						continue
					}
					v, err := s.GetOrCompute("k", func() (any, error) {
						computes.Add(1)
						return "v", nil
					})
					if v != "v" || err != nil {
						t.Errorf("GetOrCompute returned %v, %v", v, err)
						return
					}
					getOrComputes.Add(1)
					computed = true
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		st := s.Stats()
		if computes.Load() != 1 || st.Misses != 1 {
			t.Fatalf("round %d: %d computations, %d misses, want 1 each", round, computes.Load(), st.Misses)
		}
		if want := uint64(getOrComputes.Load() - 1 + foundGets.Load()); st.Hits != want {
			t.Fatalf("round %d: %d hits, want %d (%d GetOrCompute, %d found Gets)",
				round, st.Hits, want, getOrComputes.Load(), foundGets.Load())
		}
	}
}
