package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"avfda/internal/snapshot2"
)

// getFull performs one request with extra headers and returns the full
// recorded response.
func getFull(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// newSnapshotServer wires a Server over a snapshot directory that already
// holds the fixture study for seed 1, counting pipeline builds.
func newSnapshotServer(t *testing.T, calls *atomic.Int64) *Server {
	t.Helper()
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 1, testDB(t)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Build: testBuilder(t, calls, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestETagRoundTrip: a snapshot-backed study response carries a validator
// derived from the snapshot checksum, and replaying it conditionally
// short-circuits to 304 with an empty body.
func TestETagRoundTrip(t *testing.T) {
	s := newSnapshotServer(t, nil)
	first := getFull(t, s, "/v1/studies/1/disengagements", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("code = %d (%s)", first.Code, first.Body.String())
	}
	tag := first.Header().Get("ETag")
	if len(tag) != 10 || tag[0] != '"' || tag[9] != '"' {
		t.Fatalf("ETag = %q, want a quoted 8-hex-digit tag", tag)
	}
	if cc := first.Header().Get("Cache-Control"); cc != cacheControl {
		t.Errorf("Cache-Control = %q, want %q", cc, cacheControl)
	}
	if vary := first.Header().Get("Vary"); vary != "Accept-Encoding" {
		t.Errorf("Vary = %q", vary)
	}

	second := getFull(t, s, "/v1/studies/1/disengagements", map[string]string{"If-None-Match": tag})
	if second.Code != http.StatusNotModified {
		t.Fatalf("conditional replay code = %d, want 304", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", second.Body.String())
	}
	if got := second.Header().Get("ETag"); got != tag {
		t.Errorf("304 ETag = %q, want %q", got, tag)
	}

	// A stale validator is served in full.
	third := getFull(t, s, "/v1/studies/1/disengagements", map[string]string{"If-None-Match": `"00000000"`})
	if third.Code != http.StatusOK || third.Body.Len() == 0 {
		t.Errorf("stale validator: code = %d, body %d bytes", third.Code, third.Body.Len())
	}
}

// TestETagContentAddressed: the validator is the snapshot checksum, so a
// freshly built study (write-through) and a cold server mapping the same
// snapshot report the identical tag — the fleet-wide property the proxy
// relies on.
func TestETagContentAddressed(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Build: testBuilder(t, nil, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	built := getFull(t, s1, "/v1/studies/1/disengagements", nil)
	if built.Code != http.StatusOK {
		t.Fatalf("built code = %d", built.Code)
	}
	builtTag := built.Header().Get("ETag")
	if builtTag == "" {
		t.Fatal("freshly built study with write-through carried no ETag")
	}

	s2, err := New(Config{Build: testBuilder(t, nil, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mapped := getFull(t, s2, "/v1/studies/1/disengagements", nil)
	if mapped.Code != http.StatusOK {
		t.Fatalf("mapped code = %d", mapped.Code)
	}
	if mappedTag := mapped.Header().Get("ETag"); mappedTag != builtTag {
		t.Errorf("mapped ETag = %q, built ETag = %q: want identical (content-addressed)", mappedTag, builtTag)
	}
}

// TestETagAbsentWithoutSnapshot: studies with no snapshot backing carry no
// validator and never 304.
func TestETagAbsentWithoutSnapshot(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	rec := getFull(t, s, "/v1/studies/1/disengagements", map[string]string{"If-None-Match": `*`})
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d, want 200 (no validator to match)", rec.Code)
	}
	if tag := rec.Header().Get("ETag"); tag != "" {
		t.Errorf("snapshotless study carried ETag %q", tag)
	}
}

// TestErrorResponsesCarryNoValidator: a request that resolves the study
// but then fails validation must not emit the study's ETag on the error.
func TestErrorResponsesCarryNoValidator(t *testing.T) {
	s := newSnapshotServer(t, nil)
	rec := getFull(t, s, "/v1/studies/1/disengagements?from=bogus", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d, want 400", rec.Code)
	}
	if tag := rec.Header().Get("ETag"); tag != "" {
		t.Errorf("error response carried ETag %q", tag)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "" {
		t.Errorf("error response carried Cache-Control %q", cc)
	}
}

func TestETagMatches(t *testing.T) {
	for _, tc := range []struct {
		header, tag string
		want        bool
	}{
		{"", `"abc"`, false},
		{`"abc"`, `"abc"`, true},
		{`"abc-gzip"`, `"abc"`, false},
		{`"xyz", "abc"`, `"abc"`, true},
		{`W/"abc"`, `"abc"`, true},
		{`*`, `"abc"`, true},
		{`"ABC"`, `"abc"`, false},
	} {
		if got := etagMatches(tc.header, tc.tag); got != tc.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", tc.header, tc.tag, got, tc.want)
		}
	}
}

// TestGzipNegotiation: on a streamed route and on two stored answers, a
// client that accepts gzip gets a compressed body that decodes
// byte-identically to the identity representation, under a
// "-gzip"-suffixed variant of the same validator; a client that asks for
// identity or refuses gzip with q=0 gets the identity body and tag. Each
// representation revalidates against its own tag with an empty 304.
func TestGzipNegotiation(t *testing.T) {
	s := newSnapshotServer(t, nil)
	for _, route := range []string{"disengagements", "metrics/reliability", "tables/vii"} {
		url := "/v1/studies/1/" + route
		identity := getFull(t, s, url, nil)
		if identity.Code != http.StatusOK || identity.Header().Get("Content-Encoding") != "" {
			t.Fatalf("%s identity response: code %d, encoding %q", url, identity.Code, identity.Header().Get("Content-Encoding"))
		}
		identityTag := identity.Header().Get("ETag")
		zippedTag := identityTag[:len(identityTag)-1] + `-gzip"`

		for _, tc := range []struct {
			accept string
			gzip   bool
		}{
			{"", false},
			{"identity", false},
			{"gzip;q=0", false},
			{"gzip", true},
			{"gzip;q=0.5", true},
		} {
			rec := getFull(t, s, url, map[string]string{"Accept-Encoding": tc.accept})
			if rec.Code != http.StatusOK {
				t.Fatalf("%s accept %q: code = %d", url, tc.accept, rec.Code)
			}
			body, wantEnc, wantTag := rec.Body.Bytes(), "", identityTag
			if tc.gzip {
				body, wantEnc, wantTag = gunzip(t, body), "gzip", zippedTag
			}
			if enc := rec.Header().Get("Content-Encoding"); enc != wantEnc {
				t.Errorf("%s accept %q: Content-Encoding = %q, want %q", url, tc.accept, enc, wantEnc)
			}
			if string(body) != identity.Body.String() {
				t.Errorf("%s accept %q: body does not decode to the identity body", url, tc.accept)
			}
			if tag := rec.Header().Get("ETag"); tag != wantTag {
				t.Errorf("%s accept %q: ETag = %q, want %q", url, tc.accept, tag, wantTag)
			}

			replay := getFull(t, s, url, map[string]string{"Accept-Encoding": tc.accept, "If-None-Match": wantTag})
			if replay.Code != http.StatusNotModified {
				t.Errorf("%s accept %q: conditional replay code = %d, want 304", url, tc.accept, replay.Code)
			}
			if replay.Body.Len() != 0 {
				t.Errorf("%s accept %q: 304 carried a body: %q", url, tc.accept, replay.Body.String())
			}
			if enc := replay.Header().Get("Content-Encoding"); enc != "" {
				t.Errorf("%s accept %q: 304 carried Content-Encoding %q", url, tc.accept, enc)
			}
		}
	}
}

// TestGzipSkipsErrorsAndBinary: non-200 responses and octet-stream bodies
// pass through identity-encoded even when the client accepts gzip.
func TestGzipSkipsErrorsAndBinary(t *testing.T) {
	s := newSnapshotServer(t, nil)
	bad := getFull(t, s, "/v1/studies/1/disengagements?limit=nope", map[string]string{"Accept-Encoding": "gzip"})
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("code = %d", bad.Code)
	}
	if enc := bad.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("400 carried Content-Encoding %q", enc)
	}

	snap := getFull(t, s, "/v1/snapshots/1", map[string]string{"Accept-Encoding": "gzip"})
	if snap.Code != http.StatusOK {
		t.Fatalf("snapshot code = %d (%s)", snap.Code, snap.Body.String())
	}
	if enc := snap.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("snapshot stream carried Content-Encoding %q", enc)
	}
	if _, err := snapshot2.NewView(snap.Body.Bytes()); err != nil {
		t.Errorf("streamed snapshot bytes invalid: %v", err)
	}
}

// TestBadParamsSkipStudyBuild is the validation-ordering regression test:
// a malformed limit (or missing group-by column) on a cold cache must
// cost a 400, not a pipeline build.
func TestBadParamsSkipStudyBuild(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 0, 0)
	for _, path := range []string{
		"/v1/studies/1/disengagements?limit=nope",
		"/v1/studies/1/disengagements?limit=0",
		"/v1/studies/1/disengagements?offset=-1",
		"/v1/studies/1/accidents?limit=bogus",
		"/v1/studies/1/accidents?tag=Software",
		"/v1/studies/1/accidents?mfr=Waymo&weather=sunny",
		"/v1/studies/1/groupby",
	} {
		if code, body := get(t, s, path); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d (%s), want 400", path, code, strings.TrimSpace(body))
		}
	}
	if calls.Load() != 0 {
		t.Errorf("pipeline builds = %d, want 0 (params must validate before the study resolves)", calls.Load())
	}
	if stats := s.CacheStats(); stats.Builds != 0 || stats.Misses != 0 {
		t.Errorf("stats = %+v, want an untouched cold cache", stats)
	}
}

// TestBadMonthSkipsStudyBuild: a malformed month bound is a 400 with the
// engine's month-error body, decided before the study is resolved, so it
// costs no pipeline build for any of three seeds never built before.
func TestBadMonthSkipsStudyBuild(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 0, 0)
	for _, tc := range []struct{ path, body string }{
		{"/v1/studies/1/disengagements?from=bogus", `{"error":"bad -from value \"bogus\": want YYYY-MM"}` + "\n"},
		{"/v1/studies/2/accidents?to=2015-99", `{"error":"bad -to value \"2015-99\": want YYYY-MM"}` + "\n"},
		{"/v1/studies/3/groupby?by=tag&from=nope", `{"error":"bad -from value \"nope\": want YYYY-MM"}` + "\n"},
	} {
		code, body := get(t, s, tc.path)
		if code != http.StatusBadRequest || body != tc.body {
			t.Errorf("GET %s = %d %q, want 400 %q", tc.path, code, body, tc.body)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("pipeline builds = %d, want 0 (months must validate before the study resolves)", calls.Load())
	}
	if stats := s.CacheStats(); stats.Builds != 0 || stats.Misses != 0 {
		t.Errorf("stats = %+v, want an untouched cold cache", stats)
	}
}

// TestAccidentsRejectInapplicableFilters: accident reports carry no tag,
// category, road, weather or modality, so asking the accidents route to
// filter by one is a 400 naming the parameter, not a 200 listing every
// accident.
func TestAccidentsRejectInapplicableFilters(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	for _, param := range []string{"tag", "category", "road", "weather", "modality"} {
		code, body := get(t, s, "/v1/studies/1/accidents?"+param+"=x")
		want := fmt.Sprintf(`{"error":"accidents cannot be filtered by %s: accident reports carry no %s"}`+"\n", param, param)
		if code != http.StatusBadRequest || body != want {
			t.Errorf("accidents?%s=x = %d %q, want 400 %q", param, code, body, want)
		}
	}
	if code, body := get(t, s, "/v1/studies/1/accidents?mfr=waymo&from=2015-01&to=2015-12"); code != http.StatusOK {
		t.Errorf("accidents by mfr and months = %d (%s), want 200", code, strings.TrimSpace(body))
	}
}

// TestWriteErrorWithdrawsValidator: an error written after the study's
// validators were stamped carries neither the ETag nor Cache-Control.
func TestWriteErrorWithdrawsValidator(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set("ETag", `"0123abcd"`)
	rec.Header().Set("Cache-Control", cacheControl)
	writeError(rec, errorf(http.StatusInternalServerError, "render table %s: %v", "vii", "boom"))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("code = %d, want 500", rec.Code)
	}
	for _, h := range []string{"ETag", "Cache-Control"} {
		if v, ok := rec.Header()[h]; ok {
			t.Errorf("error response carried %s %q", h, v)
		}
	}
	if want := `{"error":"render table vii: boom"}` + "\n"; rec.Body.String() != want {
		t.Errorf("body = %q, want %q", rec.Body.String(), want)
	}
}

// TestClientDisconnectReturns499: a canceled request is not a timeout —
// it gets 499 (not 504), its own metrics label, and the build still lands
// for the next caller.
func TestClientDisconnectReturns499(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 150*time.Millisecond, 5*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/studies/1/disengagements", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, req)
	}()
	// Let the request reach the build, then hang up.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never started building")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("code = %d (%s), want 499", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if strings.Contains(rec.Body.String(), "retry") {
		t.Errorf("499 body advertises a retry to a client that hung up: %s", rec.Body.String())
	}

	// The abandoned build still completes and serves the next request.
	waitUntil := time.Now().Add(2 * time.Second)
	for s.CacheStats().Resident == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("background build never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := get(t, s, "/v1/studies/1/disengagements"); code != http.StatusOK {
		t.Errorf("post-disconnect request code = %d", code)
	}

	_, metrics := get(t, s, "/metrics")
	for _, want := range []string{
		`avserve_requests_total{route="/v1/studies/{seed}/disengagements",code="499"} 1`,
		`avserve_requests_total{route="/v1/studies/{seed}/disengagements",code="200"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// flushTracker records Flush calls and how many body bytes had arrived by
// the first one.
type flushTracker struct {
	*httptest.ResponseRecorder
	flushes      int
	bytesAtFirst int
}

func (f *flushTracker) Flush() {
	if f.flushes == 0 {
		f.bytesAtFirst = f.Body.Len()
	}
	f.flushes++
}

// TestStatusRecorderForwardsFlush: a handler's Flush must reach the
// client through the metrics wrapper (it used to be swallowed, buffering
// whole streamed responses) — with and without gzip in between.
func TestStatusRecorderForwardsFlush(t *testing.T) {
	for _, accept := range []string{"", "gzip"} {
		s := &Server{metrics: NewMetrics(), timeout: time.Second, mux: http.NewServeMux()}
		flusherSeen := false
		s.route("GET /stream", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, `{"part":1}`)
			if f, ok := w.(http.Flusher); ok {
				flusherSeen = true
				f.Flush()
			}
			_, _ = io.WriteString(w, `{"part":2}`)
		})
		ft := &flushTracker{ResponseRecorder: httptest.NewRecorder()}
		req := httptest.NewRequest(http.MethodGet, "/stream", nil)
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		s.ServeHTTP(ft, req)
		if !flusherSeen {
			t.Fatalf("accept=%q: handler's writer does not expose http.Flusher", accept)
		}
		if ft.flushes == 0 {
			t.Errorf("accept=%q: handler Flush never reached the client", accept)
		}
		if ft.bytesAtFirst == 0 {
			t.Errorf("accept=%q: nothing had been written downstream at first Flush", accept)
		}
	}
}

// TestStatusRecorderForwardsReadFrom: the wrapper advertises io.ReaderFrom
// (the sendfile path ServeContent uses for snapshot streaming) and the
// fallback copy cannot recurse.
func TestStatusRecorderForwardsReadFrom(t *testing.T) {
	rec := &statusRecorder{ResponseWriter: httptest.NewRecorder(), code: http.StatusOK}
	var w http.ResponseWriter = rec
	rf, ok := w.(io.ReaderFrom)
	if !ok {
		t.Fatal("statusRecorder does not implement io.ReaderFrom")
	}
	n, err := rf.ReadFrom(strings.NewReader("snapshot bytes"))
	if err != nil || n != int64(len("snapshot bytes")) {
		t.Fatalf("ReadFrom = (%d, %v)", n, err)
	}
	if body := rec.ResponseWriter.(*httptest.ResponseRecorder).Body.String(); body != "snapshot bytes" {
		t.Errorf("body = %q", body)
	}
}

// TestSnapshotEndpoint pins the distribution endpoint's contract: 200
// with the exact file bytes when held, 404 when absent or disabled, 400
// on a malformed seed, 500 when the path holds no readable regular file.
func TestSnapshotEndpoint(t *testing.T) {
	s := newSnapshotServer(t, nil)
	rec := getFull(t, s, "/v1/snapshots/1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d (%s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	v, err := snapshot2.NewView(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("streamed snapshot invalid: %v", err)
	}
	if v.NumRows() != 3 {
		t.Errorf("streamed snapshot rows = %d, want 3", v.NumRows())
	}

	if rec := getFull(t, s, "/v1/snapshots/99", nil); rec.Code != http.StatusNotFound {
		t.Errorf("absent seed code = %d, want 404", rec.Code)
	}
	if rec := getFull(t, s, "/v1/snapshots/abc", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad seed code = %d, want 400", rec.Code)
	}

	// Anything but a regular file at a seed's path is a 500 envelope, never
	// a 200: ServeContent over an opened directory would promise an
	// impossible length and send no body. A self-referencing symlink fails
	// the open itself (ELOOP).
	if err := os.Mkdir(snapshot2.Path(s.snapDir, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	loop := snapshot2.Path(s.snapDir, 3)
	if err := os.Symlink(filepath.Base(loop), loop); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/snapshots/2", "/v1/snapshots/3"} {
		rec := getFull(t, s, path, nil)
		var e apiError
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("GET %s = %d %q, want 500 with an error envelope", path, rec.Code, rec.Body.String())
		}
	}

	noDir := newTestServer(t, nil, 0, 0)
	if rec := getFull(t, noDir, "/v1/snapshots/1", nil); rec.Code != http.StatusNotFound {
		t.Errorf("no snapshot dir code = %d, want 404", rec.Code)
	}
}

// TestAcceptsGzip: q=0 in any spelling refuses gzip (RFC 9110 §12.5.3);
// any other q-value accepts it.
func TestAcceptsGzip(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"identity", false},
		{"*", false},
		{"gzip", true},
		{"GZIP", true},
		{"deflate, gzip", true},
		{"gzip;q=0.5", true},
		{"gzip; q=1", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip; Q=0.000", false},
		{"br, gzip;q=0, identity", false},
	} {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("Accept-Encoding", tc.header)
		if got := acceptsGzip(req); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}
