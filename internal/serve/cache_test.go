package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfda/internal/snapshot2"
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

// TestCacheStatsDuringTraffic reads Stats while other goroutines hit, miss,
// build and evict, so go test -race sees every counter's writes against
// Stats' reads: a counter bumped other than under the cache lock (a raw
// atomic add, say) is a reported race.
func TestCacheStatsDuringTraffic(t *testing.T) {
	var calls atomic.Int64
	c, err := NewSnapshotCache(countingBuilder(&calls, 0), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := c.Get(ctx, int64(1+i%3)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		_ = c.Stats()
	}
	if s := c.Stats(); s.Hits+s.Misses != 2001 || s.Builds != calls.Load() {
		t.Errorf("stats = %+v after 2001 Gets and %d builds", s, calls.Load())
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
	if s := c.Stats(); s.Resident != 0 || s.Builds != 2 || s.BuildFailures != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestCacheCountsWriteErrors: a write-through that fails (here the
// snapshot path is a directory, which no permission bit can make writable)
// counts as a write error, and the built study is still served, without an
// ETag. The directory could not be read as a snapshot either, which is an
// open error, not a reject: its content was never judged.
func TestCacheCountsWriteErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(snapshot2.Path(dir, 1), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := NewSnapshotCache(testBuilder(t, nil, 0), 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	study, err := c.Get(context.Background(), 1)
	if err != nil {
		t.Fatalf("a failed write-through must not fail the Get: %v", err)
	}
	if study.ETag != "" {
		t.Errorf("ETag = %q, want none without a written snapshot", study.ETag)
	}
	if s := c.Stats(); s.Builds != 1 || s.BuildFailures != 0 || s.Snapshot2Writes != 0 || s.Snapshot2WriteErrors != 1 {
		t.Errorf("stats = %+v, want Builds 1, Snapshot2WriteErrors 1, no writes or build failures", s)
	}
	if s := c.Stats(); s.Snapshot2Rejects != 0 || s.Snapshot2OpenErrors != 1 {
		t.Errorf("stats = %+v, want Snapshot2Rejects 0, Snapshot2OpenErrors 1", s)
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

// TestEngineOnlyStudyHasNoDatabase: a study built as avserve builds it,
// engine only, written through but not mapped, has no database to hand
// out, and asking decodes nothing.
func TestEngineOnlyStudyHasNoDatabase(t *testing.T) {
	c, err := NewSnapshotCache(testBuilder(t, nil, 0), 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	study, err := c.Get(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if study.Engine.Len() != 3 || study.ETag == "" {
		t.Fatalf("built study: %d events, ETag %q; want 3 and the write-through's", study.Engine.Len(), study.ETag)
	}
	if db, err := study.Database(); db != nil || err == nil {
		t.Errorf("Database() = %p, %v; want nil and an error", db, err)
	}
	if s := c.Stats(); s.StudyMaterializations != 0 || s.Snapshot2Writes != 1 {
		t.Errorf("stats = %+v, want 0 materializations after 1 write-through", s)
	}
}
