package serve

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"sync"
)

// latencyBuckets are the histogram upper bounds in seconds. The spread
// covers warm hits (a few hundred microseconds) through multi-second first
// builds.
var latencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// Metrics accumulates request counters and latency histograms and renders
// them in Prometheus text exposition format using only the standard
// library. All methods are safe for concurrent use.
type Metrics struct {
	mu     sync.Mutex // taken only by Observe and snapshot; guards counts
	counts metricCounts
}

// metricCounts is the registry's plain data: what Metrics guards, and
// the copy a scrape renders from.
type metricCounts struct {
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
	return &Metrics{counts: metricCounts{
		requests: make(map[requestKey]int64),
		latency:  make(map[string]*histogram),
	}}
}

// Observe records one completed request.
func (m *Metrics) Observe(route string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.requests[requestKey{route: route, code: code}]++
	h := m.counts.latency[route]
	if h == nil {
		h = &histogram{counts: make([]int64, len(latencyBuckets)+1)}
		m.counts.latency[route] = h
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

// snapshot returns a deep copy of the counters, taken under the lock.
func (m *Metrics) snapshot() metricCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := metricCounts{
		requests: maps.Clone(m.counts.requests),
		latency:  make(map[string]*histogram, len(m.counts.latency)),
	}
	for r, h := range m.counts.latency {
		c.latency[r] = &histogram{
			counts: append([]int64(nil), h.counts...),
			sum:    h.sum,
			total:  h.total,
		}
	}
	return c
}

// WriteText renders every series, plus the given cache counters, in
// Prometheus text format with deterministic ordering.
//
// It renders from a snapshot, so the lock is never held while w is
// written: w is usually a network connection, and one slow scrape client
// must not stall every request's Observe. TestScrapeDoesNotHoldLock pins
// that.
func (m *Metrics) WriteText(w io.Writer, cache CacheStats) error {
	m.snapshot().writeText(w, cache)
	return nil
}

// writeText renders c and the cache counters.
func (c metricCounts) writeText(w io.Writer, cache CacheStats) {
	fmt.Fprintln(w, "# HELP avserve_requests_total Completed HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE avserve_requests_total counter")
	reqKeys := make([]requestKey, 0, len(c.requests))
	for k := range c.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].route != reqKeys[j].route {
			return reqKeys[i].route < reqKeys[j].route
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "avserve_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, c.requests[k])
	}

	fmt.Fprintln(w, "# HELP avserve_request_duration_seconds Request latency by route.")
	fmt.Fprintln(w, "# TYPE avserve_request_duration_seconds histogram")
	routes := make([]string, 0, len(c.latency))
	for r := range c.latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		h := c.latency[r]
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

	for _, ctr := range []struct {
		name, help string
		value      int64
	}{
		{"avserve_cache_hits_total", "Study cache hits.", cache.Hits},
		{"avserve_cache_misses_total", "Study cache misses.", cache.Misses},
		{"avserve_cache_builds_total", "Study pipeline builds started (singleflight-coalesced), whether or not they succeed; includes rebuilds triggered by snapshot rejects.", cache.Builds},
		{"avserve_build_failures_total", "Study pipeline builds that returned an error; failed builds are not cached.", cache.BuildFailures},
		{"avserve_cache_evictions_total", "Studies evicted to respect capacity.", cache.Evictions},
		{"avserve_snapshot2_loads_total", "Cache misses served by mapping a v2 columnar snapshot (zero-copy).", cache.Snapshot2Loads},
		{"avserve_snapshot2_writes_total", "V2 snapshots written through after a successful build.", cache.Snapshot2Writes},
		{"avserve_snapshot2_write_errors_total", "V2 snapshot write-throughs that failed after a successful build; the study is still served.", cache.Snapshot2WriteErrors},
		{"avserve_snapshot2_rejects_total", "V2 snapshot files refused by validation (checksum, version, or structure); each falls back to a peer fetch or a rebuild, and is not a build failure.", cache.Snapshot2Rejects},
		{"avserve_snapshot2_open_errors_total", "V2 snapshot files that exist but could not be read (permissions, I/O, not a regular file); each falls back to a peer fetch or a rebuild, and is not a reject.", cache.Snapshot2OpenErrors},
		{"avserve_snapshot_fetches_total", "Cache misses served by pulling the seed's v2 snapshot from a peer (CRC re-verified on receipt).", cache.SnapshotFetches},
		{"avserve_snapshot_fetch_misses_total", "Peer snapshot probes answered 404 on every peer (seed not held anywhere; falls back to a rebuild).", cache.SnapshotFetchMisses},
		{"avserve_snapshot_fetch_errors_total", "Peer snapshot probes that failed (transport error, unexpected status, or a fetched file flunking validation or the stored-answer check); each falls back to a rebuild.", cache.SnapshotFetchErrors},
		{"avserve_study_materializations_total", "Whole-database decodes of mapped studies (no served route makes one: listings, group-bys and accidents read the columns, reliability and tables are stored answers).", cache.StudyMaterializations},
		{"avserve_snapshot_releases_total", "Mappings of evicted studies closed when their last request released them.", cache.SnapshotReleases},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", ctr.name, ctr.help, ctr.name, ctr.name, ctr.value)
	}
	fmt.Fprintln(w, "# HELP avserve_cache_resident Studies currently cached.")
	fmt.Fprintln(w, "# TYPE avserve_cache_resident gauge")
	fmt.Fprintf(w, "avserve_cache_resident %d\n", cache.Resident)
}
