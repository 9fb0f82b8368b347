package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// latencyBuckets are the histogram upper bounds in seconds. The spread
// covers sub-millisecond cache hits through multi-second first builds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// Metrics accumulates request counters and latency histograms and renders
// them in Prometheus text exposition format using only the standard
// library. All methods are safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	requests map[requestKey]int64
	latency  map[string]*histogram
}

// requestKey labels one counter series.
type requestKey struct {
	route string
	code  int
}

// histogram is one route's cumulative latency histogram.
type histogram struct {
	counts []int64 // one per bucket, plus a final +Inf bucket
	sum    float64
	total  int64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[requestKey]int64),
		latency:  make(map[string]*histogram),
	}
}

// Observe records one completed request.
func (m *Metrics) Observe(route string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{route: route, code: code}]++
	h := m.latency[route]
	if h == nil {
		h = &histogram{counts: make([]int64, len(latencyBuckets)+1)}
		m.latency[route] = h
	}
	bucket := len(latencyBuckets) // +Inf
	for i, le := range latencyBuckets {
		if seconds <= le {
			bucket = i
			break
		}
	}
	h.counts[bucket]++
	h.sum += seconds
	h.total++
}

// WriteText renders every series, plus the given cache counters, in
// Prometheus text format with deterministic ordering.
//
// The counters are snapshotted under the lock and rendered outside it: w is
// usually a network connection, and holding m.mu across its writes would
// let one slow scrape client stall every request's Observe (the
// lock-across-I/O class lockcheck enforces).
func (m *Metrics) WriteText(w io.Writer, cache CacheStats) error {
	m.mu.Lock()
	requests := make(map[requestKey]int64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	latency := make(map[string]*histogram, len(m.latency))
	for r, h := range m.latency {
		latency[r] = &histogram{
			counts: append([]int64(nil), h.counts...),
			sum:    h.sum,
			total:  h.total,
		}
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP avserve_requests_total Completed HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE avserve_requests_total counter")
	reqKeys := make([]requestKey, 0, len(requests))
	for k := range requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].route != reqKeys[j].route {
			return reqKeys[i].route < reqKeys[j].route
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "avserve_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, requests[k])
	}

	fmt.Fprintln(w, "# HELP avserve_request_duration_seconds Request latency by route.")
	fmt.Fprintln(w, "# TYPE avserve_request_duration_seconds histogram")
	routes := make([]string, 0, len(latency))
	for r := range latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		h := latency[r]
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "avserve_request_duration_seconds_bucket{route=%q,le=%q} %d\n",
				r, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "avserve_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r, cum)
		fmt.Fprintf(w, "avserve_request_duration_seconds_sum{route=%q} %g\n", r, h.sum)
		fmt.Fprintf(w, "avserve_request_duration_seconds_count{route=%q} %d\n", r, h.total)
	}

	for _, c := range []struct {
		name, help string
		value      int64
	}{
		{"avserve_cache_hits_total", "Study cache hits.", cache.Hits},
		{"avserve_cache_misses_total", "Study cache misses.", cache.Misses},
		{"avserve_cache_builds_total", "Study pipeline builds started (singleflight-coalesced), whether or not they succeed; includes rebuilds triggered by snapshot rejects.", cache.Builds},
		{"avserve_cache_evictions_total", "Studies evicted to respect capacity.", cache.Evictions},
		{"avserve_snapshot2_loads_total", "Cache misses served by mapping a v2 columnar snapshot (zero-copy).", cache.Snapshot2Loads},
		{"avserve_snapshot2_writes_total", "V2 snapshots written through after a successful build.", cache.Snapshot2Writes},
		{"avserve_snapshot2_rejects_total", "V2 snapshot files refused by validation (checksum, version, or structure); each falls back to a peer fetch or a rebuild, and is not a build failure.", cache.Snapshot2Rejects},
		{"avserve_snapshot_fetches_total", "Cache misses served by pulling the seed's v2 snapshot from a peer (CRC re-verified on receipt).", cache.SnapshotFetches},
		{"avserve_snapshot_fetch_misses_total", "Peer snapshot probes answered 404 on every peer (seed not held anywhere; falls back to a rebuild).", cache.SnapshotFetchMisses},
		{"avserve_snapshot_fetch_errors_total", "Peer snapshot probes that failed (transport error, unexpected status, or a fetched file flunking validation); each falls back to a rebuild.", cache.SnapshotFetchErrors},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}
	fmt.Fprintln(w, "# HELP avserve_cache_resident Studies currently cached.")
	fmt.Fprintln(w, "# TYPE avserve_cache_resident gauge")
	fmt.Fprintf(w, "avserve_cache_resident %d\n", cache.Resident)
	return nil
}
