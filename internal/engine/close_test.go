package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"brepartition/internal/core"
	"brepartition/internal/topk"
)

// slowBackend serves canned answers, blocking each search until release
// is closed, so the tests can hold queries in flight deterministically.
type slowBackend struct {
	release chan struct{}
	mu      sync.Mutex
	calls   int
}

func (b *slowBackend) Query(dst []topk.Item, q *core.Query) (core.Result, error) {
	<-b.release
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	return core.Result{Stats: core.SearchStats{Candidates: 1}}, nil
}

func (b *slowBackend) Version() uint64 { return 0 }

// TestDrainCloseLifecycle pins the engine's explicit shutdown semantics:
// Close waits for every in-flight future to complete, and a post-close
// Submit fails cleanly with ErrClosed instead of hanging or panicking.
func TestDrainCloseLifecycle(t *testing.T) {
	b := &slowBackend{release: make(chan struct{})}
	e := New(b, Config{Workers: 2, CacheSize: -1})

	const n = 6
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = e.Submit([]float64{1}, 1)
	}
	// Both workers block in the backend and the rest of the submissions
	// queue behind them (poll: the workers pop their first job async).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats()
		if st.InFlight == 2 && st.QueueDepth == n-2 &&
			e.InFlight() == 2 && e.QueueDepth() == n-2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler never settled: depth %d inflight %d", st.QueueDepth, st.InFlight)
		}
		time.Sleep(time.Millisecond)
	}

	// Close must block until the backend lets the queries finish.
	closed := make(chan struct{})
	go func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while queries were still blocked in the backend")
	case <-time.After(20 * time.Millisecond):
	}

	close(b.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the backend unblocked")
	}

	// Every future submitted before Close resolved with its real answer.
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if res.Stats.Candidates != 1 {
			t.Fatalf("future %d: lost its answer: %+v", i, res)
		}
	}
	b.mu.Lock()
	if b.calls != n {
		t.Fatalf("backend saw %d searches, want %d", b.calls, n)
	}
	b.mu.Unlock()

	// Post-close submissions fail cleanly and immediately.
	f := e.Submit([]float64{1}, 1)
	if _, err := f.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Submit err = %v, want ErrClosed", err)
	}
	if _, err := e.BatchSearch([][]float64{{1}}, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close BatchSearch err = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if e.QueueDepth() != 0 || e.InFlight() != 0 {
		t.Fatalf("closed engine reports depth %d inflight %d", e.QueueDepth(), e.InFlight())
	}
}

// TestDrainWaitsForBacklog pins that Drain covers queued-but-unstarted
// work, not just running queries, and that the engine stays usable after.
func TestDrainWaitsForBacklog(t *testing.T) {
	b := &slowBackend{release: make(chan struct{})}
	e := New(b, Config{Workers: 1, CacheSize: -1})
	for i := 0; i < 4; i++ {
		e.Submit([]float64{1}, 1)
	}
	done := make(chan struct{})
	go func() { e.Drain(); close(done) }()
	select {
	case <-done:
		t.Fatal("Drain returned with a backlog outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	close(b.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned")
	}
	// Not closed: new work still runs.
	if _, err := e.Submit([]float64{1}, 1).Wait(); err != nil {
		t.Fatalf("post-drain Submit: %v", err)
	}
}

func TestWaitContextDeadline(t *testing.T) {
	b := &slowBackend{release: make(chan struct{})}
	e := New(b, Config{Workers: 1, CacheSize: -1})
	f := e.Submit([]float64{1}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := f.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext err = %v, want DeadlineExceeded", err)
	}
	// The query still completes in the background and Wait gets it.
	close(b.release)
	if res, err := f.Wait(); err != nil || res.Stats.Candidates != 1 {
		t.Fatalf("Wait after expired WaitContext: %+v, %v", res, err)
	}
	e.Close()
}
