package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/query"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
)

// testDB hand-assembles a small failure database.
func testDB(t *testing.T) *core.DB {
	t.Helper()
	month := func(m int) time.Time { return time.Date(2015, time.Month(m), 1, 0, 0, 0, 0, time.UTC) }
	ev := func(m schema.Manufacturer, v schema.VehicleID, mo int, tag ontology.Tag, cause string) core.Event {
		return core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer: m, Vehicle: v, ReportYear: schema.Report2016,
				Time: month(mo).AddDate(0, 0, 9), Cause: cause,
				Modality: schema.ModalityManual,
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		}
	}
	return &core.DB{
		Mileage: []schema.MonthlyMileage{
			{Manufacturer: schema.Waymo, Vehicle: "W1", ReportYear: schema.Report2016, Month: month(3), Miles: 100},
			{Manufacturer: schema.Bosch, Vehicle: "B1", ReportYear: schema.Report2016, Month: month(3), Miles: 40},
		},
		Events: []core.Event{
			ev(schema.Waymo, "W1", 3, ontology.TagSoftware, "software hang"),
			ev(schema.Waymo, "W1", 6, ontology.TagSensor, "sensor dropout"),
			ev(schema.Bosch, "B1", 6, ontology.TagSoftware, "crash"),
		},
		Accidents: []schema.Accident{
			{Manufacturer: schema.Waymo, Vehicle: "W1", ReportYear: schema.Report2016,
				Time: month(7).AddDate(0, 0, 3), Location: "El Camino Real",
				AVSpeedMPH: 5, OtherSpeedMPH: 10, InAutonomousMode: true},
			{Manufacturer: schema.Bosch, Vehicle: "B1", ReportYear: schema.Report2016,
				Time: month(9).AddDate(0, 0, 3), Location: "First St",
				AVSpeedMPH: 2, OtherSpeedMPH: 0},
		},
	}
}

// testBuilder builds the fixture study for any seed, counting builds.
func testBuilder(t *testing.T, calls *atomic.Int64, delay time.Duration) BuildFunc {
	db := testDB(t)
	return func(seed int64) (*Study, error) {
		if calls != nil {
			calls.Add(1)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		engine, err := query.New(db)
		if err != nil {
			return nil, err
		}
		return &Study{DB: db, Engine: engine}, nil
	}
}

// newTestServer wires a Server over the fixture builder.
func newTestServer(t *testing.T, calls *atomic.Int64, delay time.Duration, timeout time.Duration) *Server {
	t.Helper()
	s, err := New(Config{Build: testBuilder(t, calls, delay), CacheSize: 2, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the server and returns code + body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("body = %q", body)
	}
}

func TestDisengagementsRoundTrip(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	code, body := get(t, s, "/v1/studies/1/disengagements?mfr=Waymo")
	if code != http.StatusOK {
		t.Fatalf("code = %d body = %s", code, body)
	}
	var page query.EventPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 || len(page.Events) != 2 {
		t.Errorf("page = %+v", page)
	}
	if page.Events[0].Manufacturer != "Waymo" || page.Events[0].Tag != "Software" {
		t.Errorf("first event = %+v", page.Events[0])
	}

	// Filtered + paginated.
	code, body = get(t, s, "/v1/studies/1/disengagements?tag=Software&limit=1")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 || len(page.Events) != 1 || page.Limit != 1 {
		t.Errorf("paginated page = %+v", page)
	}
}

// TestUnencodableRowsAnswer500 checks that a page holding a value JSON
// cannot carry (a NaN reaction time, an event past year 9999, an
// infinite accident speed) answers 500 with the error envelope and no
// validator, never a 200 with an empty or cut body, and that the pages
// around it still answer 200 with their length. It runs on a fresh build
// and on a mapped snapshot with a valid CRC, which opens cleanly because
// the open checks no float values and no seconds ranges.
func TestUnencodableRowsAnswer500(t *testing.T) {
	db := testDB(t)
	db.Events[0].ReactionSeconds = math.NaN()
	db.Events[1].Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	db.Accidents[0].AVSpeedMPH = math.Inf(1)
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 1, db); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{Build: func(int64) (*Study, error) {
		engine, err := query.New(db)
		return &Study{DB: db, Engine: engine}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := New(Config{Build: func(int64) (*Study, error) { return nil, errors.New("no builds") }, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Server{"fresh": fresh, "mapped": mapped} {
		for _, tc := range []struct {
			path string
			code int
		}{
			{"disengagements?limit=1", http.StatusInternalServerError},
			{"disengagements?offset=1&limit=1", http.StatusInternalServerError},
			{"disengagements", http.StatusInternalServerError},
			{"disengagements?offset=2", http.StatusOK},
			{"accidents?limit=1", http.StatusInternalServerError},
			{"accidents?offset=1", http.StatusOK},
		} {
			for _, enc := range []string{"", "gzip"} {
				req := httptest.NewRequest(http.MethodGet, "/v1/studies/1/"+tc.path, nil)
				req.Header.Set("Accept-Encoding", enc)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				what := fmt.Sprintf("%s %s (Accept-Encoding %q)", name, tc.path, enc)
				if rec.Code != tc.code {
					t.Fatalf("%s: code %d, want %d (%s)", what, rec.Code, tc.code, rec.Body.String())
				}
				if tc.code != http.StatusOK {
					var e apiError
					if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
						t.Fatalf("%s: body %q is not an error envelope (%v)", what, rec.Body.String(), err)
					}
					if etag := rec.Header().Get("ETag"); etag != "" {
						t.Errorf("%s: error response carries ETag %s", what, etag)
					}
					continue
				}
				if enc == "" {
					if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
						t.Errorf("%s: Content-Length %q, body %s bytes", what, got, want)
					}
					if !json.Valid(rec.Body.Bytes()) {
						t.Errorf("%s: body %q is not JSON", what, rec.Body.String())
					}
				}
			}
		}
	}
}

func TestAccidents(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	code, body := get(t, s, "/v1/studies/1/accidents?mfr=Bosch")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	var page AccidentPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || len(page.Accidents) != 1 || page.Accidents[0].Location != "First St" {
		t.Errorf("accidents = %+v", page)
	}

	// Month range excludes the September accident.
	code, body = get(t, s, "/v1/studies/1/accidents?from=2015-01&to=2015-08")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Accidents[0].Location != "El Camino Real" {
		t.Errorf("ranged accidents = %+v", page)
	}
}

func TestGroupBy(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	code, body := get(t, s, "/v1/studies/1/groupby?by=tag")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	var res GroupByResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.By != "tag" || res.Total != 3 || len(res.Groups) != 2 {
		t.Errorf("groupby = %+v", res)
	}
	if res.Groups[0].Key != "Software" || res.Groups[0].Count != 2 {
		t.Errorf("top group = %+v", res.Groups[0])
	}
}

func TestReliabilityEndpoint(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	code, body := get(t, s, "/v1/studies/1/metrics/reliability")
	if code != http.StatusOK {
		t.Fatalf("code = %d body = %s", code, body)
	}
	var res ReliabilityResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Manufacturers) != 2 {
		t.Fatalf("manufacturers = %+v", res.Manufacturers)
	}
	for _, m := range res.Manufacturers {
		if m.Manufacturer == "Waymo" && (m.Events != 2 || m.Accidents != 1 || m.DPM <= 0) {
			t.Errorf("Waymo metrics = %+v", m)
		}
	}
}

func TestTables(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	code, body := get(t, s, "/v1/studies/1/tables/iv")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, "Table IV") {
		t.Errorf("table body = %q", body[:min(len(body), 120)])
	}
	// Upper-case roman ids resolve too.
	code, _ = get(t, s, "/v1/studies/1/tables/VI")
	if code != http.StatusOK {
		t.Errorf("tables/VI code = %d", code)
	}
}

// TestErrorPaths pins every error a study route answers before or after
// resolving the study, over a fresh and a snapshot-backed server (whose
// studies carry validators): the status, and a single JSON error envelope
// with no validator and nothing written after it. A failing build is a
// 500 naming the seed.
func TestErrorPaths(t *testing.T) {
	failing, err := New(Config{Build: func(int64) (*Study, error) { return nil, errors.New("pipeline exploded") }})
	if err != nil {
		t.Fatal(err)
	}
	type errorCase struct {
		path string
		code int
		msg  string
	}
	cases := []errorCase{
		{"/v1/studies/abc/disengagements", http.StatusBadRequest, `bad seed "abc"`},
		{"/v1/studies/1/disengagements?from=bogus", http.StatusBadRequest, ""},
		{"/v1/studies/1/disengagements?limit=nope", http.StatusBadRequest, ""},
		{"/v1/studies/1/disengagements?offset=-4", http.StatusBadRequest, ""},
		{"/v1/studies/1/groupby", http.StatusBadRequest, ""},
		{"/v1/studies/1/groupby?by=bogus", http.StatusBadRequest, ""},
		{"/v1/studies/1/accidents?to=2015-99", http.StatusBadRequest, ""},
		{"/v1/studies/1/accidents?tag=Software", http.StatusBadRequest, ""},
		{"/v1/studies/1/accidents?category=System", http.StatusBadRequest, ""},
		{"/v1/studies/1/accidents?road=highway", http.StatusBadRequest, ""},
		{"/v1/studies/1/accidents?weather=sunny", http.StatusBadRequest, ""},
		{"/v1/studies/1/accidents?mfr=Waymo&modality=manual", http.StatusBadRequest, ""},
		{"/v1/studies/1/tables/xyz", http.StatusNotFound, ""},
		{"/v1/studies/1/tables/ii", http.StatusNotFound, ""},
	}
	for _, srv := range []struct {
		name  string
		s     *Server
		cases []errorCase
	}{
		{"fresh", newTestServer(t, nil, 0, 0), cases},
		{"snapshot", newSnapshotServer(t, nil), cases},
		{"failing build", failing, []errorCase{
			{"/v1/studies/1/disengagements", http.StatusInternalServerError, "build study 1: pipeline exploded"},
			{"/v1/studies/1/tables/vii", http.StatusInternalServerError, "build study 1: pipeline exploded"},
		}},
	} {
		for _, tc := range srv.cases {
			rec := getFull(t, srv.s, tc.path, map[string]string{"Accept-Encoding": "gzip"})
			if rec.Code != tc.code {
				t.Errorf("%s: GET %s = %d (%s), want %d", srv.name, tc.path, rec.Code, strings.TrimSpace(rec.Body.String()), tc.code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: GET %s Content-Type = %q, want application/json", srv.name, tc.path, ct)
			}
			for _, h := range []string{"ETag", "Cache-Control", "Content-Encoding"} {
				if v, ok := rec.Header()[h]; ok {
					t.Errorf("%s: GET %s error response carried %s %q", srv.name, tc.path, h, v)
				}
			}
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			var e apiError
			if err := dec.Decode(&e); err != nil || e.Error == "" {
				t.Errorf("%s: GET %s body is not an error envelope: %+v, %v", srv.name, tc.path, e, err)
			} else if !strings.Contains(e.Error, tc.msg) {
				t.Errorf("%s: GET %s error = %q, want it to contain %q", srv.name, tc.path, e.Error, tc.msg)
			}
			if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
				t.Errorf("%s: GET %s wrote more after the error envelope (%v)", srv.name, tc.path, err)
			}
		}
	}
	// An unrouted path is the mux's own plain-text 404.
	if code, body := get(t, newTestServer(t, nil, 0, 0), "/v1/nope"); code != http.StatusNotFound {
		t.Errorf("GET /v1/nope = %d (%s), want 404", code, strings.TrimSpace(body))
	}
}

// TestCacheHitOnSecondRequest: the second request must not rebuild, and
// /metrics must report the hit.
func TestCacheHitOnSecondRequest(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 0, 0)
	for i := 0; i < 2; i++ {
		if code, _ := get(t, s, "/v1/studies/1/disengagements"); code != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("builds = %d, want 1", calls.Load())
	}
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code = %d", code)
	}
	for _, want := range []string{
		"avserve_cache_hits_total 1",
		"avserve_cache_misses_total 1",
		"avserve_cache_builds_total 1",
		"avserve_cache_resident 1",
		`avserve_requests_total{route="/v1/studies/{seed}/disengagements",code="200"} 2`,
		`avserve_request_duration_seconds_count{route="/v1/studies/{seed}/disengagements"} 2`,
		`avserve_request_duration_seconds_bucket{route="/v1/studies/{seed}/disengagements",le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestMetricsHelpText pins the counter help lines: the build counter and
// the reject counter must describe distinct events (a snapshot reject
// triggers a rebuild but is not a build failure — the descriptions used to
// conflate them), and every snapshot and failure counter must render. It
// also pins the latency buckets, whose first three bounds resolve warm
// requests.
func TestMetricsHelpText(t *testing.T) {
	var buf strings.Builder
	m := NewMetrics()
	m.Observe("/r", 200, 0.0002)
	m.Observe("/r", 200, 0.0004)
	if err := m.WriteText(&buf, CacheStats{StudyMaterializations: 3, SnapshotReleases: 5, BuildFailures: 2, Snapshot2WriteErrors: 4, Snapshot2OpenErrors: 6}); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# HELP avserve_cache_builds_total Study pipeline builds started (singleflight-coalesced), whether or not they succeed; includes rebuilds triggered by snapshot rejects.",
		"# HELP avserve_snapshot2_rejects_total V2 snapshot files refused by validation (checksum, version, or structure); each falls back to a peer fetch or a rebuild, and is not a build failure.",
		"# HELP avserve_snapshot2_loads_total",
		"# HELP avserve_snapshot2_writes_total",
		"avserve_snapshot2_loads_total 0",
		"avserve_snapshot2_writes_total 0",
		"avserve_snapshot2_rejects_total 0",
		"# HELP avserve_snapshot2_open_errors_total V2 snapshot files that exist but could not be read (permissions, I/O, not a regular file); each falls back to a peer fetch or a rebuild, and is not a reject.",
		"avserve_snapshot2_open_errors_total 6",
		"# HELP avserve_study_materializations_total Whole-database decodes of mapped studies (no served route makes one: listings, group-bys and accidents read the columns, reliability and tables are stored answers).",
		"avserve_study_materializations_total 3",
		"# HELP avserve_snapshot_releases_total Mappings of evicted studies closed when their last request released them.",
		"avserve_snapshot_releases_total 5",
		"# HELP avserve_build_failures_total Study pipeline builds that returned an error; failed builds are not cached.",
		"avserve_build_failures_total 2",
		"# HELP avserve_snapshot2_write_errors_total",
		"avserve_snapshot2_write_errors_total 4",
		`avserve_request_duration_seconds_bucket{route="/r",le="0.0001"} 0`,
		`avserve_request_duration_seconds_bucket{route="/r",le="0.00025"} 1`,
		`avserve_request_duration_seconds_bucket{route="/r",le="0.0005"} 2`,
		`avserve_request_duration_seconds_bucket{route="/r",le="0.001"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics rendering missing %q", want)
		}
	}
}

// TestSingleflightOverHTTP: concurrent first requests for a seed share one
// build.
func TestSingleflightOverHTTP(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 50*time.Millisecond, 0)
	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = get(t, s, "/v1/studies/7/disengagements")
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d code = %d", i, code)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("builds = %d, want 1 (singleflight)", calls.Load())
	}
}

// TestRequestTimeoutWhileBuilding: a request whose deadline fires before
// the build finishes gets 504; the build still lands in the cache.
func TestRequestTimeoutWhileBuilding(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 100*time.Millisecond, 15*time.Millisecond)
	code, body := get(t, s, "/v1/studies/1/disengagements")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d (%s), want 504", code, strings.TrimSpace(body))
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.CacheStats().Resident == 0 {
		if time.Now().After(deadline) {
			t.Fatal("build never completed in background")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ = get(t, s, "/v1/studies/1/disengagements"); code != http.StatusOK {
		t.Errorf("post-build code = %d", code)
	}
	if calls.Load() != 1 {
		t.Errorf("builds = %d, want 1", calls.Load())
	}
}

// TestGracefulShutdownDrains: an in-flight request survives Shutdown, and
// new connections are refused afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 150*time.Millisecond, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/studies/1/disengagements")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode}
	}()

	// Let the slow request reach the handler, then drain.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never started building")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res := <-inflight
	if res.err != nil || res.code != http.StatusOK {
		t.Errorf("in-flight request = %+v, want drained 200", res)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("post-shutdown request succeeded; want connection error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil builder: want error")
	}
}

// TestPaginationLimitBounds is the regression test for the limit
// promotion bug: an explicit limit=0 used to be silently promoted to
// MaxListLimit (1000), handing the client asking for the smallest page the
// largest one. limit=0 is now a 400 like other bad values; only the
// over-max case is clamped.
func TestPaginationLimitBounds(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)

	code, body := get(t, s, "/v1/studies/1/disengagements?limit=0")
	if code != http.StatusBadRequest {
		t.Errorf("limit=0 code = %d (%s), want 400", code, strings.TrimSpace(body))
	}

	var page query.EventPage
	code, body = get(t, s, "/v1/studies/1/disengagements?limit=1000")
	if code != http.StatusOK {
		t.Fatalf("limit=1000 code = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Limit != MaxListLimit {
		t.Errorf("limit=1000 echoed limit = %d, want %d", page.Limit, MaxListLimit)
	}

	code, body = get(t, s, "/v1/studies/1/disengagements?limit=1001")
	if code != http.StatusOK {
		t.Fatalf("limit=1001 code = %d, want 200 with clamped limit", code)
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Limit != MaxListLimit {
		t.Errorf("limit=1001 clamped limit = %d, want %d", page.Limit, MaxListLimit)
	}

	// The largest offset pageFromQuery accepts must not overflow the page
	// window: 200, the true total, and no rows.
	for _, tc := range []struct {
		prefix, rows string
		total        int
	}{
		{"/v1/studies/1/disengagements?", "events", 3},
		{"/v1/studies/1/disengagements?mfr=Waymo&", "events", 2},
		{"/v1/studies/1/accidents?", "accidents", 2},
	} {
		path := fmt.Sprintf("%soffset=%d&limit=1000", tc.prefix, math.MaxInt)
		code, body := get(t, s, path)
		var res map[string]json.RawMessage
		if code != http.StatusOK || json.Unmarshal([]byte(body), &res) != nil {
			t.Fatalf("GET %s = %d (%s), want 200 with a JSON page", path, code, strings.TrimSpace(body))
		}
		if string(res["total"]) != strconv.Itoa(tc.total) || string(res[tc.rows]) != "[]" {
			t.Errorf("GET %s = total %s, %s %s; want total %d, %s []", path, res["total"], tc.rows, res[tc.rows], tc.total, tc.rows)
		}
	}
}

// TestWriteQueryErrorClassifiesByType pins errorStatus's 400-vs-500 contract on the
// error's type, not its message: typed client errors (month bounds, unknown
// columns) stay 400 even when wrapped or reworded; everything else is 500.
func TestWriteQueryErrorClassifiesByType(t *testing.T) {
	colErr := &query.ColumnError{Column: "bogus", Err: errors.New("whatever text")}
	monErr := &query.MonthError{Field: "from", Value: "nope", Err: errors.New("parse")}
	for _, tc := range []struct {
		err  error
		want int
	}{
		{colErr, http.StatusBadRequest},
		{monErr, http.StatusBadRequest},
		{fmt.Errorf("engine: %w", colErr), http.StatusBadRequest},
		{fmt.Errorf("engine: %w", monErr), http.StatusBadRequest},
		// Message text that used to trip the substring matcher must not
		// turn a server fault into a client error.
		{errors.New(`frame corrupt near "group by" state, no column data`), http.StatusInternalServerError},
		{errors.New("boom"), http.StatusInternalServerError},
	} {
		if got := errorStatus(tc.err); got != tc.want {
			t.Errorf("errorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestAccidentsGolden pins the accidents handler's exact payload across the
// refactor onto query.Engine.Accidents: same filtering, same pagination
// echo, same JSON field order, byte for byte.
func TestAccidentsGolden(t *testing.T) {
	s := newTestServer(t, nil, 0, 0)
	code, body := get(t, s, "/v1/studies/1/accidents")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	want := `{"total":2,"offset":0,"limit":50,"accidents":[` +
		`{"manufacturer":"Waymo","vehicle":"W1","reportYear":1,"time":"2015-07-04T00:00:00Z",` +
		`"location":"El Camino Real","narrative":"","avSpeedMPH":5,"otherSpeedMPH":10,` +
		`"inAutonomousMode":true,"redacted":false},` +
		`{"manufacturer":"Bosch","vehicle":"B1","reportYear":1,"time":"2015-09-04T00:00:00Z",` +
		`"location":"First St","narrative":"","avSpeedMPH":2,"otherSpeedMPH":0,` +
		`"inAutonomousMode":false,"redacted":false}]}` + "\n"
	if body != want {
		t.Errorf("accidents body:\n%q\nwant:\n%q", body, want)
	}

	// Filtered + paginated variant keeps the same envelope.
	code, body = get(t, s, "/v1/studies/1/accidents?mfr=waymo&limit=1")
	if code != http.StatusOK {
		t.Fatalf("filtered code = %d", code)
	}
	want = `{"total":1,"offset":0,"limit":1,"accidents":[` +
		`{"manufacturer":"Waymo","vehicle":"W1","reportYear":1,"time":"2015-07-04T00:00:00Z",` +
		`"location":"El Camino Real","narrative":"","avSpeedMPH":5,"otherSpeedMPH":10,` +
		`"inAutonomousMode":true,"redacted":false}]}` + "\n"
	if body != want {
		t.Errorf("filtered accidents body:\n%q\nwant:\n%q", body, want)
	}
}

// TestMappedGroupByReadsColumns: on a mapped study, group-by over every
// column outside the indexed set answers from the View's columns, so the
// whole-database decode counter stays at 0.
func TestMappedGroupByReadsColumns(t *testing.T) {
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 1, testDB(t)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Build: testBuilder(t, nil, 0), SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, by := range []string{"vehicle", "reportYear", "cause", "time", "reactionSeconds"} {
		code, body := get(t, s, "/v1/studies/1/groupby?by="+by)
		var res GroupByResponse
		if code != http.StatusOK || json.Unmarshal([]byte(body), &res) != nil || res.Total != 3 {
			t.Fatalf("groupby?by=%s = %d %s, want 200 over 3 events", by, code, strings.TrimSpace(body))
		}
	}
	if stats := s.CacheStats(); stats.Snapshot2Loads != 1 || stats.StudyMaterializations != 0 {
		t.Errorf("stats = %+v, want one mapped load and no materialization", stats)
	}
	if _, body := get(t, s, "/metrics"); !strings.Contains(body, "avserve_study_materializations_total 0\n") {
		t.Errorf("/metrics does not report 0 materializations:\n%s", body)
	}
}

// TestSnapshot2TierColdStart is the warm-start acceptance test: with a v2
// columnar snapshot on disk, a cold server maps it and serves every
// endpoint — including the whole-table ones that force lazy database
// materialization — without a pipeline build.
func TestSnapshot2TierColdStart(t *testing.T) {
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 1, testDB(t)); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	s, err := New(Config{Build: testBuilder(t, &calls, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, s, "/v1/studies/1/disengagements?mfr=Waymo")
	if code != http.StatusOK {
		t.Fatalf("code = %d (%s)", code, strings.TrimSpace(body))
	}
	var page query.EventPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 {
		t.Errorf("v2-served page total = %d, want 2", page.Total)
	}
	// Whole-table endpoints exercise the lazy materialization path of a
	// mapped study (Study.DB is nil; Study.Database() decodes once).
	if code, body := get(t, s, "/v1/studies/1/accidents"); code != http.StatusOK {
		t.Fatalf("accidents over v2 study: code = %d (%s)", code, strings.TrimSpace(body))
	}
	if code, body := get(t, s, "/v1/studies/1/metrics/reliability"); code != http.StatusOK {
		t.Fatalf("reliability over v2 study: code = %d (%s)", code, strings.TrimSpace(body))
	}
	if code, body := get(t, s, "/v1/studies/1/tables/i"); code != http.StatusOK {
		t.Fatalf("table over v2 study: code = %d (%s)", code, strings.TrimSpace(body))
	}
	if calls.Load() != 0 {
		t.Errorf("pipeline builds = %d, want 0 (v2 tier)", calls.Load())
	}
	stats := s.CacheStats()
	if stats.Builds != 0 || stats.Snapshot2Loads != 1 {
		t.Errorf("stats = %+v, want Builds 0, Snapshot2Loads 1", stats)
	}
	code, body = get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code = %d", code)
	}
	for _, want := range []string{
		"avserve_snapshot2_loads_total 1",
		"avserve_cache_builds_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSnapshotWriteThrough: a miss with an empty snapshot directory builds
// once and persists the study as a v2 snapshot, so the next cold server
// maps it. The file holds the bytes the engine already encoded, so its
// checksum, and the ETag derived from it, are those of encoding the
// database again.
func TestSnapshotWriteThrough(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	s, err := New(Config{Build: testBuilder(t, &calls, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := getFull(t, s, "/v1/studies/1/disengagements", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("first request failed")
	}
	if stats := s.CacheStats(); stats.Builds != 1 || stats.Snapshot2Writes != 1 || stats.Snapshot2Loads != 0 {
		t.Errorf("first server stats = %+v, want Builds 1, Snapshot2Writes 1", stats)
	}
	got, err := os.ReadFile(snapshot2.Path(dir, 1))
	if err != nil {
		t.Fatalf("write-through left no v2 snapshot: %v", err)
	}
	want, err := snapshot2.Encode(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("written snapshot (%d bytes) differs from the engine's encoding (%d bytes)", len(got), len(want))
	}
	crc, err := snapshot2.WriteSeed(t.TempDir(), 1, testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if tag, wantTag := rec.Header().Get("ETag"), `"`+etagFromCRC(crc)+`"`; tag != wantTag {
		t.Errorf("ETag = %s, want %s", tag, wantTag)
	}

	// A second cold process over the same directory warm-starts from the
	// mapped v2 file.
	var calls2 atomic.Int64
	s2, err := New(Config{Build: testBuilder(t, &calls2, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, s2, "/v1/studies/1/disengagements"); code != http.StatusOK {
		t.Fatalf("second server request failed")
	}
	if calls2.Load() != 0 {
		t.Errorf("second server pipeline builds = %d, want 0", calls2.Load())
	}
	if stats := s2.CacheStats(); stats.Builds != 0 || stats.Snapshot2Loads != 1 {
		t.Errorf("second server stats = %+v, want Builds 0, Snapshot2Loads 1", stats)
	}
}

// TestSnapshotCorruptRejected: a bit-flipped v2 snapshot is refused by
// its checksum, counted as a reject (not a build failure), rebuilt from the
// pipeline, and superseded on disk by the write-through, which re-opens.
func TestSnapshotCorruptRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 1, testDB(t)); err != nil {
		t.Fatal(err)
	}
	path := snapshot2.Path(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, err := New(Config{Build: testBuilder(t, &calls, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, s, "/v1/studies/1/disengagements"); code != http.StatusOK {
		t.Fatalf("request over corrupt snapshot failed")
	}
	if calls.Load() != 1 {
		t.Errorf("pipeline builds = %d, want 1 (corrupt snapshot rebuilt)", calls.Load())
	}
	stats := s.CacheStats()
	if stats.Snapshot2Rejects != 1 || stats.Builds != 1 || stats.Snapshot2Writes != 1 || stats.Snapshot2Loads != 0 {
		t.Errorf("stats = %+v, want Snapshot2Rejects 1, Builds 1, Snapshot2Writes 1, Snapshot2Loads 0", stats)
	}
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code = %d", code)
	}
	for _, want := range []string{
		"avserve_snapshot2_rejects_total 1",
		"avserve_snapshot2_writes_total 1",
		"avserve_cache_builds_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The rebuild's write-through replaced the corrupt file: open it back.
	v, err := snapshot2.OpenSeed(dir, 1)
	if err != nil {
		t.Errorf("post-rebuild v2 snapshot unreadable: %v", err)
	} else {
		v.Close()
	}
}

// TestLeftoverV1SnapshotIgnored: a retired v1 file (study-<seed>.avsnap)
// sitting beside no v2 file is neither read nor rejected — the miss builds
// once and writes the study through as v2.
func TestLeftoverV1SnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "study-1.avsnap")
	if err := os.WriteFile(v1, []byte("AVFDSNAP\x01\x00leftover v1 payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, err := New(Config{Build: testBuilder(t, &calls, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, s, "/v1/studies/1/disengagements"); code != http.StatusOK {
		t.Fatalf("request beside a leftover v1 snapshot failed")
	}
	stats := s.CacheStats()
	if stats.Builds != 1 || stats.Snapshot2Writes != 1 || stats.Snapshot2Rejects != 0 || stats.Snapshot2Loads != 0 {
		t.Errorf("stats = %+v, want Builds 1, Snapshot2Writes 1, no rejects or loads", stats)
	}
	if _, err := os.Stat(snapshot2.Path(dir, 1)); err != nil {
		t.Fatalf("write-through left no v2 snapshot: %v", err)
	}
}

// TestSnapshot2CorruptFallsBackToV1 covers a corrupt v2 file lying over a
// retired v1 file (study-<seed>.avsnap). v1 is no longer a cache tier, so
// the fallback below a rejected v2 file is the pipeline: the v2 reject is
// counted, the study is built once and written through as v2, and the v1
// file is neither read, rejected nor rewritten.
func TestSnapshot2CorruptFallsBackToV1(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "study-1.avsnap")
	v1Raw := []byte("AVFDSNAP\x01\x00leftover v1 payload")
	if err := os.WriteFile(v1, v1Raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot2.WriteSeed(dir, 1, testDB(t)); err != nil {
		t.Fatal(err)
	}
	path := snapshot2.Path(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, err := New(Config{Build: testBuilder(t, &calls, 0), CacheSize: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, s, "/v1/studies/1/disengagements"); code != http.StatusOK {
		t.Fatalf("request over corrupt v2 snapshot failed")
	}
	if calls.Load() != 1 {
		t.Errorf("pipeline builds = %d, want 1 (no v1 tier beneath v2)", calls.Load())
	}
	stats := s.CacheStats()
	if stats.Snapshot2Rejects != 1 || stats.Builds != 1 || stats.Snapshot2Writes != 1 || stats.Snapshot2Loads != 0 {
		t.Errorf("stats = %+v, want Snapshot2Rejects 1, Builds 1, Snapshot2Writes 1, Snapshot2Loads 0", stats)
	}
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code = %d", code)
	}
	for _, want := range []string{
		"avserve_snapshot2_rejects_total 1",
		"avserve_cache_builds_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got, err := os.ReadFile(v1); err != nil || string(got) != string(v1Raw) {
		t.Errorf("leftover v1 file changed: err = %v, bytes = %q", err, got)
	}
	v, err := snapshot2.OpenSeed(dir, 1)
	if err != nil {
		t.Errorf("post-rebuild v2 snapshot unreadable: %v", err)
	} else {
		v.Close()
	}
}
