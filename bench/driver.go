package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request the driver sent.
type sample struct {
	op    string
	seed  int64
	sched time.Time // when it was due; equals start in a closed loop
	start time.Time
	end   time.Time
	bytes int64
	code  int
	err   error
}

func (s sample) ok() bool { return s.err == nil && s.code >= 200 && s.code < 300 }

// latency is measured from the scheduled send time, so an open-loop
// request that waited behind a slow one is charged for the wait.
func (s sample) latency() time.Duration { return s.end.Sub(s.sched) }

// requestTimeout bounds each request. A cold build takes about half a
// second, so anything near this is a failure, not a slow answer.
const requestTimeout = 30 * time.Second

// newConn returns a client that holds at most one connection, so the
// number of clients a phase uses is the number of connections it opens.
// Compression is negotiated by hand: the driver counts the bytes on the
// wire and does not spend its CPU inflating them.
func newConn() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			DisableCompression:  true,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// closeConns releases the clients' idle connections.
func closeConns(conns []*http.Client) {
	for _, c := range conns {
		c.CloseIdleConnections()
	}
}

// fetch sends one GET and drains the body, counting its bytes. With
// identity set it asks for an uncompressed body and returns it.
func fetch(ctx context.Context, c *http.Client, url string, identity bool) (code int, n int64, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	if identity {
		req.Header.Set("Accept-Encoding", "identity")
	} else {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	if identity {
		body, err = io.ReadAll(resp.Body)
		return resp.StatusCode, int64(len(body)), body, err
	}
	n, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, n, nil, err
}

// send issues r against base and returns the sample, recording a span
// when tr is set.
func send(ctx context.Context, c *http.Client, base string, r request, sched time.Time, name string, tr *tracer) sample {
	s := sample{op: r.op, seed: r.seed, sched: sched, start: time.Now()}
	s.code, s.bytes, _, s.err = fetch(ctx, c, base+r.path, false)
	s.end = time.Now()
	if tr != nil {
		tr.add(span{Name: name, Op: r.op, Seed: r.seed, Sched: tr.ns(s.sched),
			Start: tr.ns(s.start), End: tr.ns(s.end), Bytes: s.bytes, Note: strconv.Itoa(s.code)})
	}
	return s
}

// closedLoop runs len(conns) clients back to back over seq, each taking
// the next request of the shared sequence, until over returns true or
// limit requests have been sent (a nil over or a zero limit is no bound).
func closedLoop(ctx context.Context, base string, seq []request, conns []*http.Client, over func() bool, limit int64, name string, tr *tracer) []sample {
	var next atomic.Int64
	shards := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			for ctx.Err() == nil && (over == nil || !over()) {
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				now := time.Now()
				shards[w] = append(shards[w], send(ctx, c, base, seq[i%int64(len(seq))], now, name, tr))
			}
		}(w, c)
	}
	wg.Wait()
	return merge(shards)
}

// openLoop issues seq through do at a fixed rate until over returns true.
// Request k is due at start + k/rate; when the previous answer comes back
// late the next request goes out at once, and do times it from when it
// was due. One request is outstanding at a time: this is one open-loop
// connection.
func openLoop(ctx context.Context, seq []request, rate float64, start time.Time, over func() bool, do func(r request, due time.Time) sample) []sample {
	var out []sample
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(wait):
			}
		}
		if over() {
			break
		}
		out = append(out, do(seq[k%len(seq)], due))
	}
	return out
}

// quietSteal is the largest share of CPU time the hypervisor may take in
// a second of a phase, or during a build study, for the timing metrics to
// be taken over it. On the 2-vCPU VMs the baselines come from, a loaded
// second normally loses 0-4%; in spells of 13-45% steal, which last about
// a minute, serving rates fell by up to half. A metric over such seconds
// measures the host, not the program.
const quietSteal = 0.05

// maxExtension is how much longer than its length a phase may run while
// too few of its seconds (or studies) were quiet, waiting a spell out.
const maxExtension = 30 * time.Second

// phaseClock counts a load phase's whole seconds from its start and the
// share of CPU time the hypervisor took in each, and says when the phase
// may end: see runCtx.phaseDone.
type phaseClock struct {
	start time.Time
	over  atomic.Bool
	stop  chan struct{}
	out   chan []float64
}

func startPhase(rc *runCtx) *phaseClock {
	c := &phaseClock{start: time.Now(), stop: make(chan struct{}), out: make(chan []float64, 1)}
	go func() {
		var steal []float64
		quiet := 0
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		second := stealShare()
		for !c.over.Load() {
			select {
			case <-c.stop:
				c.out <- steal
				return
			case <-tick.C:
			}
			share := second()
			second = stealShare()
			steal = append(steal, share)
			if share < quietSteal {
				quiet++
			}
			if rc.phaseDone(time.Duration(len(steal))*time.Second, quiet, rc.quietWant()) {
				c.over.Store(true)
			}
		}
		// The phase is over: seconds after this one, in which the loads
		// wind down, are not part of it.
		<-c.stop
		c.out <- steal
	}()
	return c
}

// done reports whether the phase may end.
func (c *phaseClock) done() bool { return c.over.Load() }

// finish stops the clock and returns the steal share of each whole second
// since the phase started.
func (c *phaseClock) finish() []float64 {
	close(c.stop)
	return <-c.out
}

// lateness returns how late each sample was sent relative to its schedule.
func lateness(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.start.Sub(s.sched)) / float64(time.Millisecond)
	}
	return out
}

// latenciesMS returns the sorted latencies of samples in milliseconds.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency()) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func merge(shards [][]sample) []sample {
	var out []sample
	for _, s := range shards {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// secondOf is the whole second of the phase begun at start in which the
// sample ended.
func secondOf(s sample, start time.Time) int { return int(s.end.Sub(start) / time.Second) }

// inSeconds returns the samples that ended in a second of the phase begun
// at start that use selects.
func inSeconds(samples []sample, start time.Time, use []bool) []sample {
	var out []sample
	for _, s := range samples {
		if i := secondOf(s, start); i >= 0 && i < len(use) && use[i] {
			out = append(out, s)
		}
	}
	return out
}

// rateIn returns the samples that succeeded per second over the seconds
// of the phase begun at start that use selects.
func rateIn(samples []sample, start time.Time, use []bool) float64 {
	n, secs := 0, 0
	for _, s := range inSeconds(samples, start, use) {
		if s.ok() {
			n++
		}
	}
	for _, u := range use {
		if u {
			secs++
		}
	}
	return float64(n) / float64(secs)
}

// countFailed returns how many samples failed.
func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok() {
			n++
		}
	}
	return n
}
