package broker

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/obs"
)

// TestMain enables the default registry so the broker counters record —
// the suite's conservation laws read them directly.
func TestMain(m *testing.M) {
	obs.Default().SetEnabled(true)
	m.Run()
}

// counterDelta runs fn and reports how much each named counter moved.
func counterDelta(names []string, fn func()) map[string]uint64 {
	before := make(map[string]uint64, len(names))
	for _, n := range names {
		before[n] = obs.Default().Counter(n).Value()
	}
	fn()
	d := make(map[string]uint64, len(names))
	for _, n := range names {
		d[n] = obs.Default().Counter(n).Value() - before[n]
	}
	return d
}

var accounting = []string{
	"broker.submitted", "broker.rejected",
	"broker.completed", "broker.failed", "broker.cancelled",
}

// stableGoroutines samples the goroutine count until it stops moving, so
// leak checks tolerate runtime bookkeeping goroutines that exit lazily.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	last := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			return n
		}
		last = n
	}
	return last
}

// TestBrokerConcurrentSubmit hammers the broker from many goroutines and
// asserts every accepted submission resolves exactly once with the right
// value, and that the accounting conservation law holds:
// submitted == completed + failed + cancelled.
func TestBrokerConcurrentSubmit(t *testing.T) {
	const clients = 16
	const perClient = 50
	d := counterDelta(accounting, func() {
		b := New(4, clients*perClient)
		defer func() {
			if err := b.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		var wg sync.WaitGroup
		var sum atomic.Int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					v := c*perClient + i
					ch, err := b.Submit(context.Background(), func(context.Context) (any, error) {
						return v, nil
					})
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					res := <-ch
					if res.Err != nil {
						t.Errorf("task error: %v", res.Err)
						return
					}
					got := res.Value.(int)
					if got != v {
						t.Errorf("cross-delivered result: got %d want %d", got, v)
						return
					}
					sum.Add(int64(got))
				}
			}(c)
		}
		wg.Wait()
		want := int64(clients*perClient) * int64(clients*perClient-1) / 2
		if sum.Load() != want {
			t.Errorf("result sum = %d, want %d", sum.Load(), want)
		}
	})
	if d["broker.submitted"] != clients*perClient {
		t.Errorf("submitted = %d, want %d", d["broker.submitted"], clients*perClient)
	}
	if d["broker.submitted"] != d["broker.completed"]+d["broker.failed"]+d["broker.cancelled"] {
		t.Errorf("conservation violated: %v", d)
	}
}

// TestBrokerQueueFull: with workers wedged and the queue at capacity,
// Submit rejects immediately with ErrQueueFull and hands out no channel.
func TestBrokerQueueFull(t *testing.T) {
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	b := New(1, 2)
	defer b.Shutdown(context.Background())
	// Deferred after Shutdown, so it runs first: a failed assertion
	// cannot leave the worker wedged under Shutdown.
	defer unblock()
	block := func(context.Context) (any, error) { <-release; return nil, nil }

	// One task wedges the worker. Waiting until it runs makes the queue's
	// free capacity exact: two more submissions fill it.
	started := make(chan struct{})
	wedge, err := b.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	chans := []<-chan Result{wedge}
	for i := 0; i < 2; i++ {
		ch, err := b.Submit(context.Background(), block)
		if err != nil {
			t.Fatalf("submit %d into a free queue of 2: %v", i, err)
		}
		chans = append(chans, ch)
	}
	if _, err := b.Submit(context.Background(), block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	unblock()
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Errorf("wedged task resolved with error: %v", res.Err)
		}
	}
}

// TestBrokerDeadlineCancellation: requests whose context expires while
// queued are resolved with the context error without occupying a worker,
// and count as cancelled.
func TestBrokerDeadlineCancellation(t *testing.T) {
	d := counterDelta(accounting, func() {
		release := make(chan struct{})
		b := New(1, 64)
		// Wedge the single worker so queued requests age out.
		wedge, err := b.Submit(context.Background(), func(context.Context) (any, error) {
			<-release
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		var chans []<-chan Result
		for i := 0; i < 10; i++ {
			ch, err := b.Submit(ctx, func(context.Context) (any, error) {
				ran.Add(1)
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		cancel()
		close(release)
		if res := <-wedge; res.Err != nil {
			t.Errorf("wedge task: %v", res.Err)
		}
		for _, ch := range chans {
			res := <-ch
			if !errors.Is(res.Err, context.Canceled) {
				t.Errorf("queued-then-cancelled request resolved with %v, want context.Canceled", res.Err)
			}
		}
		if ran.Load() != 0 {
			t.Errorf("%d cancelled tasks still ran", ran.Load())
		}
		if err := b.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	if d["broker.cancelled"] != 10 {
		t.Errorf("cancelled = %d, want 10", d["broker.cancelled"])
	}
	if d["broker.submitted"] != d["broker.completed"]+d["broker.failed"]+d["broker.cancelled"] {
		t.Errorf("conservation violated: %v", d)
	}
}

// TestBrokerShutdownMidFlight shuts the broker down while tasks are
// running and queued: accepted work still resolves, later submits get
// ErrClosed, and — the leak check — the goroutine count returns to its
// pre-broker level.
func TestBrokerShutdownMidFlight(t *testing.T) {
	before := stableGoroutines(t)
	d := counterDelta(accounting, func() {
		b := New(4, 256)
		var chans []<-chan Result
		for i := 0; i < 100; i++ {
			ch, err := b.Submit(context.Background(), func(context.Context) (any, error) {
				time.Sleep(time.Millisecond)
				return "done", nil
			})
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		ctx, cancelTO := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancelTO()
		if err := b.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		// Every accepted request is still resolved after shutdown.
		for _, ch := range chans {
			if res := <-ch; res.Err != nil {
				t.Errorf("in-flight task after shutdown: %v", res.Err)
			}
		}
		if _, err := b.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
			t.Errorf("submit after shutdown = %v, want ErrClosed", err)
		}
		// Idempotent.
		if err := b.Shutdown(context.Background()); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	})
	if d["broker.submitted"] != 100 {
		t.Errorf("submitted = %d, want 100", d["broker.submitted"])
	}
	if d["broker.submitted"] != d["broker.completed"]+d["broker.failed"]+d["broker.cancelled"] {
		t.Errorf("conservation violated: %v", d)
	}
	if d["broker.rejected"] != 1 {
		t.Errorf("rejected = %d, want 1 (the post-shutdown submit)", d["broker.rejected"])
	}
	after := stableGoroutines(t)
	if after > before {
		t.Errorf("goroutine leak: %d before, %d after shutdown", before, after)
	}
}

// TestBrokerTaskFailure: task errors flow to the caller and count as
// failed, not completed.
func TestBrokerTaskFailure(t *testing.T) {
	boom := errors.New("boom")
	d := counterDelta(accounting, func() {
		b := New(2, 8)
		defer b.Shutdown(context.Background())
		ch, err := b.Submit(context.Background(), func(context.Context) (any, error) {
			return nil, boom
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ch; !errors.Is(res.Err, boom) {
			t.Errorf("got %v, want boom", res.Err)
		}
	})
	if d["broker.failed"] != 1 || d["broker.completed"] != 0 {
		t.Errorf("accounting: %v", d)
	}
}
