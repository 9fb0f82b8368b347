package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is the horizontal scale-out layer: a stdlib-only seed-sharding
// reverse proxy in front of N avserve backends. Every study URL carries
// its seed, so the proxy routes by consistent hashing on the seed — each
// backend's LRU and snapshot directory stay hot for its own shard of the
// study space instead of every backend churning through every seed. With
// Replicas > 1 each seed spills round-robin across its k consecutive ring
// owners, so a hot seed's traffic is spread while still touching only k
// caches; a connection failure retries on the next replica before the
// client sees an error. Health and metrics are answered locally;
// everything under /v1/ is forwarded with its seed's routing.
type Proxy struct {
	ring     *hashRing
	replicas int
	rt       http.RoundTripper
	metrics  *proxyMetrics
	debugf   func(format string, args ...any)
	cursor   atomic.Uint64 // round-robin spill across a seed's replicas
	mux      *http.ServeMux
}

// ProxyConfig parameterizes a Proxy.
type ProxyConfig struct {
	// Backends are the base URLs (http://host:port) of the avserve
	// replicas to shard across (required, at least one).
	Backends []string
	// Replicas is the spill factor k: each seed is served by its k
	// consecutive distinct owners on the hash ring, round-robin per
	// request. <= 0 means 1 (strict sharding); clamped to len(Backends).
	Replicas int
	// Transport overrides the outbound round-tripper (tests). The default
	// disables transparent compression so negotiated encodings relay
	// between client and backend untouched.
	Transport http.RoundTripper
	// Debugf, when set, receives operational debug lines (mid-stream relay
	// failures and the like). nil means silent.
	Debugf func(format string, args ...any)
}

// NewProxy builds the sharding proxy.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	backends := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		return nil, errors.New("serve: proxy needs at least one backend")
	}
	k := cfg.Replicas
	if k <= 0 {
		k = 1
	}
	if k > len(backends) {
		k = len(backends)
	}
	rt := cfg.Transport
	if rt == nil {
		rt = &http.Transport{
			// The proxy is a pass-through for content negotiation: the
			// client's Accept-Encoding reaches the backend and gzip bodies
			// relay as-is, so ETag representations stay consistent
			// end to end.
			DisableCompression:  true,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	debugf := cfg.Debugf
	if debugf == nil {
		debugf = func(string, ...any) {}
	}
	p := &Proxy{
		ring:     newHashRing(backends),
		replicas: k,
		rt:       rt,
		metrics:  newProxyMetrics(),
		debugf:   debugf,
		mux:      http.NewServeMux(),
	}
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.HandleFunc("GET /metrics", p.handleMetrics)
	p.mux.HandleFunc("GET /v1/studies/{seed}/{rest...}", p.handleForward)
	p.mux.HandleFunc("GET /v1/snapshots/{seed}", p.handleForward)
	p.mux.HandleFunc("/", unrouted(p.mux))
	return p, nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

// Backends returns the proxy's cleaned backend list, ring order aside
// (for logs and tests).
func (p *Proxy) Backends() []string {
	return append([]string(nil), p.ring.backends...)
}

// handleHealthz answers for the proxy itself; backend health shows up as
// forwarding errors, not as proxy liveness.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "proxy"})
}

// handleMetrics renders the proxy's own Prometheus counters.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.metrics.writeText(w)
}

// handleForward routes one study-addressed request by its seed.
func (p *Proxy) handleForward(w http.ResponseWriter, r *http.Request) {
	seed, err := pathSeed(r)
	if err != nil {
		writeError(w, err)
		return
	}
	owners := p.ring.owners(seedKey(seed), p.replicas)
	// Spill round-robin across the seed's replicas: with k == 1 this is a
	// no-op, with k > 1 a hot seed's load spreads without widening its
	// cache footprint beyond k backends.
	start := int(p.cursor.Add(1) % uint64(len(owners)))
	var lastErr error
	for i := range owners {
		backend := owners[(start+i)%len(owners)]
		p.metrics.bumpBackend(backend, false)
		resp, err := p.roundTrip(backend, r)
		if err != nil {
			// Only transport-level failures land here — no response bytes
			// have been written, and study GETs are safe to replay — so
			// trying the next replica is always sound.
			lastErr = err
			p.metrics.bumpBackend(backend, true)
			if i+1 < len(owners) {
				p.metrics.bumpRetries()
			}
			continue
		}
		p.relayResponse(w, resp, r.URL.Path)
		return
	}
	writeError(w, errorf(http.StatusBadGateway,
		"seed %d: all %d replicas failed: %v", seed, len(owners), lastErr))
}

// roundTrip forwards the request to one backend, preserving path, query,
// and end-to-end headers.
func (p *Proxy) roundTrip(backend string, r *http.Request) (*http.Response, error) {
	out, err := http.NewRequestWithContext(r.Context(), http.MethodGet, backend+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	out.Header = r.Header.Clone()
	stripHopByHop(out.Header)
	if prior := out.Header.Get("X-Forwarded-For"); prior != "" {
		out.Header.Set("X-Forwarded-For", prior+", "+clientIP(r))
	} else {
		out.Header.Set("X-Forwarded-For", clientIP(r))
	}
	return p.rt.RoundTrip(out)
}

// relayResponse copies the backend's response to the client verbatim.
func (p *Proxy) relayResponse(w http.ResponseWriter, resp *http.Response, path string) {
	defer resp.Body.Close()
	stripHopByHop(resp.Header)
	h := w.Header()
	for key, values := range resp.Header {
		for _, v := range values {
			h.Add(key, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// A copy failure here means the client went away or the backend died
	// mid-stream. The status is already on the wire, so there is nothing
	// coherent left to send the client — but a silently truncated body is
	// exactly the kind of failure that otherwise only surfaces as a
	// checksum mismatch three hops later, so it is counted and logged
	// rather than dropped.
	if n, err := io.Copy(w, resp.Body); err != nil {
		p.metrics.bumpCopyErrors()
		p.debugf("proxy: relay of %s truncated after %d bytes: %v", path, n, err)
	}
}

// hopByHopHeaders are connection-scoped per RFC 9110 §7.6.1 and must not
// cross the proxy.
var hopByHopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// stripHopByHop removes hop-by-hop headers, including any the Connection
// header names.
func stripHopByHop(h http.Header) {
	for _, name := range strings.Split(h.Get("Connection"), ",") {
		if name = strings.TrimSpace(name); name != "" {
			h.Del(name)
		}
	}
	for _, name := range hopByHopHeaders {
		h.Del(name)
	}
}

// clientIP is the host part of the request's remote address, without the
// brackets of an IPv6 literal; an address with no port is used whole.
func clientIP(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// seedKey hashes a seed onto the ring's keyspace.
func seedKey(seed int64) uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	return ringHash(buf[:])
}

// ringHash places bytes on the ring: FNV-1a, then the splitmix64
// finalizer. FNV-1a alone leaves short, similar inputs structured — a
// small seed's eight bytes hash to nearly (offset^seed)·prime⁸, and the
// vnode names of two loopback backends differ in a few digits — so seeds
// could crowd onto one backend's arcs. The finalizer spreads both seed
// keys and vnode positions over the keyspace.
func ringHash(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// ringVnodes is how many virtual nodes each backend contributes. 64 keeps
// the shard imbalance within a few percent for small clusters while the
// whole ring still fits in a couple of cache lines per backend.
const ringVnodes = 64

// hashRing is a fixed consistent-hash ring over the backend set. Adding
// or removing one backend remaps only ~1/N of the seed space, which is
// what keeps the other backends' caches and snapshot directories warm
// through topology changes (the proxy is restarted with the new list).
type hashRing struct {
	backends []string
	hashes   []uint64 // sorted vnode positions
	owner    []int    // hashes[i] belongs to backends[owner[i]]
}

// newHashRing places every backend's vnodes on the ring.
func newHashRing(backends []string) *hashRing {
	type vnode struct {
		hash uint64
		idx  int
	}
	vnodes := make([]vnode, 0, len(backends)*ringVnodes)
	for i, b := range backends {
		for v := 0; v < ringVnodes; v++ {
			vnodes = append(vnodes, vnode{hash: ringHash(fmt.Appendf(nil, "%s#%d", b, v)), idx: i})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].hash != vnodes[j].hash {
			return vnodes[i].hash < vnodes[j].hash
		}
		return vnodes[i].idx < vnodes[j].idx
	})
	r := &hashRing{
		backends: backends,
		hashes:   make([]uint64, len(vnodes)),
		owner:    make([]int, len(vnodes)),
	}
	for i, vn := range vnodes {
		r.hashes[i] = vn.hash
		r.owner[i] = vn.idx
	}
	return r
}

// owners returns the k distinct backends owning key, clockwise from its
// ring position: the primary first, then the successors a spill or retry
// falls over to.
func (r *hashRing) owners(key uint64, k int) []string {
	if k > len(r.backends) {
		k = len(r.backends)
	}
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= key })
	out := make([]string, 0, k)
	seen := make(map[int]bool, k)
	for i := 0; len(out) < k && i < len(r.hashes); i++ {
		idx := r.owner[(start+i)%len(r.hashes)]
		if !seen[idx] {
			seen[idx] = true
			out = append(out, r.backends[idx])
		}
	}
	return out
}

// proxyMetrics is the proxy's own counter registry. Like Metrics, it is
// snapshotted under its lock and rendered outside it (lockcheck: w is a
// network connection).
type proxyMetrics struct {
	mu       sync.Mutex
	requests map[string]int64 // forward attempts per backend
	errors   map[string]int64 // transport failures per backend
	retries  int64            // failovers to a next replica
	// copyErrors counts mid-stream relay failures: the backend's status
	// was already committed to the client when the body copy broke, so
	// the client saw a truncated response that no status rewrite can fix.
	copyErrors int64
}

// newProxyMetrics creates an empty registry.
func newProxyMetrics() *proxyMetrics {
	return &proxyMetrics{
		requests: make(map[string]int64),
		errors:   make(map[string]int64),
	}
}

// bumpBackend counts one forward attempt (isErr false) or one transport
// failure (isErr true) against a backend.
func (m *proxyMetrics) bumpBackend(backend string, isErr bool) {
	m.mu.Lock()
	if isErr {
		m.errors[backend]++
	} else {
		m.requests[backend]++
	}
	m.mu.Unlock()
}

// bumpRetries counts one failover to the next replica.
func (m *proxyMetrics) bumpRetries() {
	m.mu.Lock()
	m.retries++
	m.mu.Unlock()
}

// bumpCopyErrors counts one mid-stream relay failure.
func (m *proxyMetrics) bumpCopyErrors() {
	m.mu.Lock()
	m.copyErrors++
	m.mu.Unlock()
}

// writeText renders the counters in Prometheus text format with
// deterministic ordering.
func (m *proxyMetrics) writeText(w io.Writer) {
	m.mu.Lock()
	requests := make(map[string]int64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	errCounts := make(map[string]int64, len(m.errors))
	for k, v := range m.errors {
		errCounts[k] = v
	}
	retries := m.retries
	copyErrors := m.copyErrors
	m.mu.Unlock()

	writeBackendCounter := func(name, help string, counts map[string]int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		backends := make([]string, 0, len(counts))
		for b := range counts {
			backends = append(backends, b)
		}
		sort.Strings(backends)
		for _, b := range backends {
			fmt.Fprintf(w, "%s{backend=%q} %d\n", name, b, counts[b])
		}
	}
	writeBackendCounter("avserve_proxy_backend_requests_total",
		"Requests forwarded to each backend (attempts, including ones that later failed).", requests)
	writeBackendCounter("avserve_proxy_backend_errors_total",
		"Transport-level forwarding failures per backend.", errCounts)
	fmt.Fprintf(w, "# HELP avserve_proxy_retries_total Failovers to a seed's next replica after a transport failure.\n")
	fmt.Fprintf(w, "# TYPE avserve_proxy_retries_total counter\navserve_proxy_retries_total %d\n", retries)
	fmt.Fprintf(w, "# HELP avserve_proxy_copy_errors_total Mid-stream relay failures after the status was committed (client saw a truncated body).\n")
	fmt.Fprintf(w, "# TYPE avserve_proxy_copy_errors_total counter\navserve_proxy_copy_errors_total %d\n", copyErrors)
}
