package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// echoBackend answers every request with its own name plus what it saw,
// so routing tests can tell backends apart.
func echoBackend(name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{
			"backend":   name,
			"uri":       r.URL.RequestURI(),
			"forwarded": r.Header.Get("X-Forwarded-For"),
			"accept":    r.Header.Get("Accept-Encoding"),
		})
	})
}

// newEchoProxy stands up n echo backends and a proxy over them.
func newEchoProxy(t *testing.T, n, replicas int) (*Proxy, []string) {
	t.Helper()
	backends := make([]string, n)
	for i := range backends {
		srv := httptest.NewServer(echoBackend(fmt.Sprintf("b%d", i)))
		t.Cleanup(srv.Close)
		backends[i] = srv.URL
	}
	p, err := NewProxy(ProxyConfig{Backends: backends, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	return p, backends
}

// TestRingProperties pins the consistent-hash ring: owners are
// deterministic, distinct, and the seed space spreads over every backend
// without gross imbalance.
func TestRingProperties(t *testing.T) {
	backends := []string{"http://a", "http://b", "http://c"}
	r := newHashRing(backends)
	counts := map[string]int{}
	const seeds = 3000
	for seed := int64(0); seed < seeds; seed++ {
		owners := r.owners(seedKey(seed), 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("seed %d owners = %v, want 2 distinct", seed, owners)
		}
		again := r.owners(seedKey(seed), 2)
		if owners[0] != again[0] || owners[1] != again[1] {
			t.Fatalf("seed %d owners not deterministic: %v vs %v", seed, owners, again)
		}
		counts[owners[0]]++
	}
	for _, b := range backends {
		if frac := float64(counts[b]) / seeds; frac < 0.15 || frac > 0.55 {
			t.Errorf("backend %s owns %.1f%% of seeds; want a vaguely balanced ring (%v)",
				b, 100*frac, counts)
		}
	}
	// k exceeding the backend count is clamped, not an error.
	if owners := r.owners(seedKey(7), 99); len(owners) != len(backends) {
		t.Errorf("k=99 owners = %v", owners)
	}

	// Two loopback backends, as tests and the smoke scripts start them,
	// must split the catalogue seeds: their vnode names differ only in
	// the port, and small seeds differ only in their low bytes.
	rng := rand.New(rand.NewSource(5))
	for pair := 0; pair < 200; pair++ {
		a, b := 1024+rng.Intn(64000), 1024+rng.Intn(64000)
		if a == b {
			continue
		}
		loop := []string{fmt.Sprintf("http://127.0.0.1:%d", a), fmt.Sprintf("http://127.0.0.1:%d", b)}
		r := newHashRing(loop)
		first := 0
		const n = 1024
		for seed := int64(1); seed <= n; seed++ {
			if r.owners(seedKey(seed), 1)[0] == loop[0] {
				first++
			}
		}
		if minority := float64(min(first, n-first)) / n; minority < 0.25 {
			t.Errorf("ring over %v gives one backend %.1f%% of seeds 1..%d; want at least 25%%", loop, 100*minority, n)
		}
	}
}

// TestRingStabilityAcrossResize: removing one backend remaps only the
// seeds it owned — everyone else's shard stays put, which is what keeps
// surviving caches warm through a topology change.
func TestRingStabilityAcrossResize(t *testing.T) {
	full := newHashRing([]string{"http://a", "http://b", "http://c"})
	reduced := newHashRing([]string{"http://a", "http://b"})
	moved := 0
	const seeds = 2000
	for seed := int64(0); seed < seeds; seed++ {
		before := full.owners(seedKey(seed), 1)[0]
		after := reduced.owners(seedKey(seed), 1)[0]
		if before != "http://c" && before != after {
			moved++
		}
	}
	if frac := float64(moved) / seeds; frac > 0.05 {
		t.Errorf("%.1f%% of surviving seeds remapped on resize; consistent hashing should keep them", 100*frac)
	}
}

// TestProxyRoutesBySeed: the same seed always lands on the same backend,
// different seeds spread across both, and the per-backend counters see it.
func TestProxyRoutesBySeed(t *testing.T) {
	p, _ := newEchoProxy(t, 2, 1)
	owner := map[int]string{}
	for seed := 0; seed < 16; seed++ {
		for try := 0; try < 3; try++ {
			rec := getFull(t, p, fmt.Sprintf("/v1/studies/%d/disengagements?limit=5", seed), nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("seed %d code = %d (%s)", seed, rec.Code, rec.Body.String())
			}
			var got map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if prev, ok := owner[seed]; ok && prev != got["backend"] {
				t.Fatalf("seed %d flapped between %s and %s", seed, prev, got["backend"])
			}
			owner[seed] = got["backend"]
			if want := fmt.Sprintf("/v1/studies/%d/disengagements?limit=5", seed); got["uri"] != want {
				t.Errorf("forwarded uri = %q, want %q", got["uri"], want)
			}
			if got["forwarded"] == "" {
				t.Error("X-Forwarded-For not set")
			}
		}
	}
	sharded := map[string]bool{}
	for _, b := range owner {
		sharded[b] = true
	}
	if len(sharded) != 2 {
		t.Errorf("16 seeds all landed on %v; want both backends used", sharded)
	}

	metrics := getFull(t, p, "/metrics", nil).Body.String()
	if strings.Count(metrics, "avserve_proxy_backend_requests_total{backend=") != 2 {
		t.Errorf("per-backend request counters missing:\n%s", metrics)
	}
	if !strings.Contains(metrics, "avserve_proxy_retries_total 0") {
		t.Errorf("retries counter missing:\n%s", metrics)
	}
}

// TestProxyForwardedFor pins the X-Forwarded-For the proxy sends: the
// client's address without its port (and without an IPv6 literal's
// brackets), appended to any chain the request already carries.
func TestProxyForwardedFor(t *testing.T) {
	p, _ := newEchoProxy(t, 1, 1)
	for _, tc := range []struct {
		remote, prior, want string
	}{
		{"192.0.2.7:5123", "", "192.0.2.7"},
		{"[2001:db8::1]:443", "", "2001:db8::1"},
		{"192.0.2.7:5123", "198.51.100.2, 203.0.113.9", "198.51.100.2, 203.0.113.9, 192.0.2.7"},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/studies/1/disengagements?limit=1", nil)
		req.RemoteAddr = tc.remote
		if tc.prior != "" {
			req.Header.Set("X-Forwarded-For", tc.prior)
		}
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: code = %d (%s)", tc.remote, rec.Code, rec.Body.String())
		}
		var got map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got["forwarded"] != tc.want {
			t.Errorf("remote %s, prior %q: X-Forwarded-For = %q, want %q", tc.remote, tc.prior, got["forwarded"], tc.want)
		}
	}
}

// TestProxyHeaderPassthrough: content negotiation crosses the proxy
// untouched in both directions — the backend sees Accept-Encoding, the
// client sees the backend's headers.
func TestProxyHeaderPassthrough(t *testing.T) {
	p, _ := newEchoProxy(t, 1, 1)
	rec := getFull(t, p, "/v1/studies/1/groupby?by=tag", map[string]string{"Accept-Encoding": "gzip"})
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	var got map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["accept"] != "gzip" {
		t.Errorf("backend saw Accept-Encoding %q, want gzip", got["accept"])
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("relayed Content-Type = %q", ct)
	}
}

// TestProxyRetryOnConnectionFailure: with a dead replica in the set, the
// proxy fails over to the live one — every request still succeeds and the
// failover is visible in the metrics.
func TestProxyRetryOnConnectionFailure(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	live := httptest.NewServer(echoBackend("live"))
	defer live.Close()

	p, err := NewProxy(ProxyConfig{Backends: []string{dead.URL, live.URL}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One fixed seed, several requests: its two owners are the dead and
	// live backends, and the round-robin spill cursor alternates which is
	// tried first, so the dead one is provably hit regardless of where the
	// ephemeral ports land on the hash ring (distinct seeds could all
	// round-robin onto the live owner first).
	for i := 0; i < 8; i++ {
		rec := getFull(t, p, "/v1/studies/1/disengagements", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d code = %d (%s)", i, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), `"backend":"live"`) {
			t.Fatalf("request %d served by %s", i, rec.Body.String())
		}
	}
	metrics := getFull(t, p, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, fmt.Sprintf("avserve_proxy_backend_errors_total{backend=%q}", dead.URL)) {
		t.Errorf("dead backend's error counter missing:\n%s", metrics)
	}
	if strings.Contains(metrics, "avserve_proxy_retries_total 0") {
		t.Errorf("failovers happened but retries counter is zero:\n%s", metrics)
	}
}

// TestProxyAllReplicasDown: when every owner is unreachable the client
// gets a 502, not a hang or a panic.
func TestProxyAllReplicasDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	p, err := NewProxy(ProxyConfig{Backends: []string{dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rec := getFull(t, p, "/v1/studies/1/disengagements", nil)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("code = %d, want 502", rec.Code)
	}
}

// TestProxyLocalEndpoints: health, metrics, and input validation are
// answered by the proxy itself, never forwarded.
func TestProxyLocalEndpoints(t *testing.T) {
	p, _ := newEchoProxy(t, 1, 1)
	if rec := getFull(t, p, "/healthz", nil); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"role":"proxy"`) {
		t.Errorf("healthz = %d %s", rec.Code, rec.Body.String())
	}
	if rec := getFull(t, p, "/v1/studies/abc/disengagements", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad seed code = %d, want 400", rec.Code)
	}
	if rec := getFull(t, p, "/v1/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path code = %d, want 404", rec.Code)
	}
}

// TestProxyConfigValidation: an empty backend list is rejected; blanks
// and trailing slashes are cleaned.
func TestProxyConfigValidation(t *testing.T) {
	if _, err := NewProxy(ProxyConfig{}); err == nil {
		t.Error("no backends: want error")
	}
	if _, err := NewProxy(ProxyConfig{Backends: []string{" ", ""}}); err == nil {
		t.Error("blank backends: want error")
	}
	p, err := NewProxy(ProxyConfig{Backends: []string{"http://a/", " http://b "}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Backends(); got[0] != "http://a" || got[1] != "http://b" {
		t.Errorf("cleaned backends = %v", got)
	}
}

// TestProxyEndToEndStudies drives the proxy over two real avserve
// backends sharing nothing, and checks the answers are byte-identical to
// asking a backend directly — the proxy adds routing, not content.
func TestProxyEndToEndStudies(t *testing.T) {
	s1 := newSnapshotServer(t, nil)
	s2 := newSnapshotServer(t, nil)
	b1, b2 := httptest.NewServer(s1), httptest.NewServer(s2)
	defer b1.Close()
	defer b2.Close()
	p, err := NewProxy(ProxyConfig{Backends: []string{b1.URL, b2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	defer proxySrv.Close()

	direct := getFull(t, s1, "/v1/studies/1/groupby?by=tag", nil)
	// Pin the identity encoding: Go's default client would otherwise
	// negotiate gzip transparently, which is the -gzip representation
	// with its own tag.
	req0, _ := http.NewRequest(http.MethodGet, proxySrv.URL+"/v1/studies/1/groupby?by=tag", nil)
	req0.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultClient.Do(req0)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	viaProxy, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied code = %d (%s)", resp.StatusCode, viaProxy)
	}
	if string(viaProxy) != direct.Body.String() {
		t.Errorf("proxied body differs from direct:\n%s\nvs\n%s", viaProxy, direct.Body.String())
	}
	if got, want := resp.Header.Get("ETag"), direct.Header().Get("ETag"); got != want || got == "" {
		t.Errorf("proxied ETag = %q, direct = %q", got, want)
	}

	// Conditional revalidation works through the proxy.
	req, _ := http.NewRequest(http.MethodGet, proxySrv.URL+"/v1/studies/1/groupby?by=tag", nil)
	req.Header.Set("Accept-Encoding", "identity")
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	cond, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Errorf("conditional through proxy = %d, want 304", cond.StatusCode)
	}
}

// brokenBody yields a few bytes and then a read error, simulating a
// backend dying mid-stream after the status has been committed.
type brokenBody struct{ sent bool }

func (b *brokenBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, "partial"), nil
	}
	return 0, fmt.Errorf("backend reset mid-stream")
}

func (b *brokenBody) Close() error { return nil }

// brokenTransport always answers 200 with a body that breaks mid-copy.
type brokenTransport struct{}

func (brokenTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       &brokenBody{},
	}, nil
}

// TestProxyCopyErrorCounted: a relay that breaks after the status is on
// the wire cannot be turned into an error response, but it must not
// vanish either — the copy-errors counter and the debug log record it.
func TestProxyCopyErrorCounted(t *testing.T) {
	var logged []string
	p, err := NewProxy(ProxyConfig{
		Backends:  []string{"http://backend"},
		Transport: brokenTransport{},
		Debugf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := getFull(t, p, "/v1/studies/1/disengagements", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d, want 200 (status was committed before the break)", rec.Code)
	}
	if got := rec.Body.String(); got != "partial" {
		t.Errorf("client saw body %q, want the partial prefix", got)
	}
	metrics := getFull(t, p, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "avserve_proxy_copy_errors_total 1") {
		t.Errorf("copy-errors counter missing or wrong:\n%s", metrics)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "truncated after 7 bytes") {
		t.Errorf("debug log = %v, want one truncation line", logged)
	}
}

// TestProxyCleanRelayNotCounted: an intact relay leaves the counter at
// zero — the metric measures broken streams, not traffic.
func TestProxyCleanRelayNotCounted(t *testing.T) {
	p, _ := newEchoProxy(t, 1, 1)
	if rec := getFull(t, p, "/v1/studies/1/disengagements", nil); rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	metrics := getFull(t, p, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "avserve_proxy_copy_errors_total 0") {
		t.Errorf("counter should be zero:\n%s", metrics)
	}
}
