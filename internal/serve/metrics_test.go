package serve

import (
	"sync"
	"testing"
	"time"
)

// updateOnWrite is a scrape target whose first Write blocks until update,
// run on another goroutine, returns. If the registry held its lock while
// rendering, update would wait on that lock for as long as the scrape
// wrote; the timeout turns that stall into a failure instead of a hang.
type updateOnWrite struct {
	t      *testing.T
	update func()
	once   sync.Once
	done   chan struct{}
}

func (w *updateOnWrite) Write(p []byte) (int, error) {
	w.once.Do(func() {
		w.done = make(chan struct{})
		go func() {
			defer close(w.done)
			w.update()
		}()
		select {
		case <-w.done:
		case <-time.After(2 * time.Second):
			w.t.Error("an update blocked while the scrape was writing: the registry's lock is held across the render")
		}
	})
	return len(p), nil
}

// wait returns once the update has finished, so no goroutine outlives the
// test.
func (w *updateOnWrite) wait() {
	if w.done == nil {
		w.t.Fatal("the scrape wrote nothing")
	}
	<-w.done
}

// TestScrapeDoesNotHoldLock pins that a /metrics scrape renders a copy of
// the counters: a request recording its metrics while a slow client reads
// the scrape must not wait for that client. It covers avserve's Metrics
// (Observe) and the proxy's registry (bumpBackend).
func TestScrapeDoesNotHoldLock(t *testing.T) {
	t.Run("Metrics", func(t *testing.T) {
		m := NewMetrics()
		m.Observe("/r", 200, 0.001)
		w := &updateOnWrite{t: t, update: func() { m.Observe("/r", 200, 0.002) }}
		if err := m.WriteText(w, CacheStats{}); err != nil {
			t.Fatal(err)
		}
		w.wait()
	})
	t.Run("proxyMetrics", func(t *testing.T) {
		m := newProxyMetrics()
		m.bumpBackend("b1", false)
		w := &updateOnWrite{t: t, update: func() { m.bumpBackend("b1", true) }}
		m.writeText(w)
		w.wait()
	})
}
