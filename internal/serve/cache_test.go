package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// buildErr is a typed build failure carrying which builder invocation
// produced it, so tests can assert error freshness with errors.As instead
// of matching message text.
type buildErr struct{ call int64 }

func (e *buildErr) Error() string { return fmt.Sprintf("boom %d", e.call) }

// countingBuilder returns a BuildFunc that counts invocations and
// optionally sleeps to widen race windows.
func countingBuilder(calls *atomic.Int64, delay time.Duration) BuildFunc {
	return func(seed int64) (*Study, error) {
		calls.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return &Study{}, nil
	}
}

func TestCacheHitSecondGet(t *testing.T) {
	var calls atomic.Int64
	c, err := NewSnapshotCache(countingBuilder(&calls, 0), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := c.Get(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Get(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second Get returned a different study")
	}
	if calls.Load() != 1 {
		t.Errorf("builds = %d, want 1", calls.Load())
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Builds != 1 || s.Resident != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	var calls atomic.Int64
	c, err := NewSnapshotCache(countingBuilder(&calls, 0), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} { // 3 evicts 1
		if _, err := c.Get(ctx, seed); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Resident != 2 {
		t.Fatalf("after fill: stats = %+v", s)
	}
	// 2 and 3 are resident; 1 must rebuild.
	if _, err := c.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("builds = %d, want 4 (three fills + one rebuild)", calls.Load())
	}
	// Rebuilding 1 evicted the least recently used seed (3, since 2 was
	// touched after the fill).
	if _, err := c.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("2 was evicted; builds = %d", calls.Load())
	}
}

// TestCacheSingleflight is the singleflight observation required by the
// acceptance criteria: concurrent first requests build the study once.
func TestCacheSingleflight(t *testing.T) {
	var calls atomic.Int64
	c, err := NewSnapshotCache(countingBuilder(&calls, 50*time.Millisecond), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	studies := make([]*Study, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Get(context.Background(), 1)
			if err != nil {
				t.Error(err)
				return
			}
			studies[i] = s
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("builds = %d, want 1 (singleflight)", calls.Load())
	}
	for i := 1; i < waiters; i++ {
		if studies[i] != studies[0] {
			t.Fatalf("waiter %d got a different study", i)
		}
	}
}

// TestCacheContextExpiry: a caller that gives up keeps the build alive,
// and the finished build serves later requests.
func TestCacheContextExpiry(t *testing.T) {
	var calls atomic.Int64
	c, err := NewSnapshotCache(countingBuilder(&calls, 80*time.Millisecond), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.Get(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Get error = %v, want deadline exceeded", err)
	}
	// The abandoned build completes in the background and is cached.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := c.Stats(); s.Resident == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background build never landed in the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Get(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("builds = %d, want 1", calls.Load())
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	c, err := NewSnapshotCache(func(seed int64) (*Study, error) {
		calls.Add(1)
		return nil, &buildErr{call: calls.Load()}
	}, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Get(ctx, 1); err == nil {
		t.Fatal("want build error")
	}
	_, err = c.Get(ctx, 1)
	var be *buildErr
	if !errors.As(err, &be) || be.call != 2 {
		t.Fatalf("second Get error = %v, want a fresh build attempt (call 2)", err)
	}
	if s := c.Stats(); s.Resident != 0 || s.Builds != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewSnapshotCache(nil, 1, ""); err == nil {
		t.Error("nil builder: want error")
	}
	c, err := NewSnapshotCache(countingBuilder(new(atomic.Int64), 0), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.cap != 1 {
		t.Errorf("capacity floor = %d, want 1", c.cap)
	}
}
