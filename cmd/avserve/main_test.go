package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"avfda/internal/query"
	"avfda/internal/serve"
	"avfda/internal/snapshot2"
)

// TestServeCalibratedStudy is the end-to-end acceptance check: a server
// wired with the real pipeline builder serves seed 1 over HTTP, the first
// request builds the study, the second hits the cache, /metrics reports
// the traffic, and the planned query path agrees with the reference scan
// on the calibrated corpus.
func TestServeCalibratedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build in -short mode")
	}
	server, err := serve.New(serve.Config{
		Build:          buildStudy,
		CacheSize:      2,
		RequestTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	// First request builds the study.
	code, body := get("/v1/studies/1/disengagements?mfr=Waymo&limit=5")
	if code != http.StatusOK {
		t.Fatalf("first request = %d (%s)", code, strings.TrimSpace(body))
	}
	var page query.EventPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total == 0 || len(page.Events) != 5 {
		t.Fatalf("calibrated Waymo page = total %d, events %d", page.Total, len(page.Events))
	}
	for _, ev := range page.Events {
		if ev.Manufacturer != "Waymo" {
			t.Errorf("filter leak: %+v", ev)
		}
	}

	// Second request is a cache hit: no second build.
	if code, _ = get("/v1/studies/1/groupby?by=category"); code != http.StatusOK {
		t.Fatalf("groupby = %d", code)
	}
	stats := server.CacheStats()
	if stats.Builds != 1 || stats.Hits < 1 {
		t.Errorf("cache stats = %+v, want one build and at least one hit", stats)
	}

	if code, body = get("/v1/studies/1/metrics/reliability"); code != http.StatusOK {
		t.Fatalf("reliability = %d (%s)", code, body)
	}
	var rel serve.ReliabilityResponse
	if err := json.Unmarshal([]byte(body), &rel); err != nil {
		t.Fatal(err)
	}
	if len(rel.Manufacturers) == 0 {
		t.Error("no reliability rows for the calibrated corpus")
	}

	if code, body = get("/v1/studies/1/tables/vii"); code != http.StatusOK || !strings.Contains(body, "Table VII") {
		t.Errorf("tables/vii = %d (%.80s)", code, body)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"avserve_cache_builds_total 1",
		"avserve_cache_hits_total",
		"avserve_request_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestIndexedEqualsScanOnCalibratedCorpus pins that Select, which matches
// column codes, returns what the string-comparing SelectScan returns on
// real study data, not just synthetic fixtures. The filters spelled with
// U+017F (ſ) fold to s under EqualFold but not under strings.ToLower.
func TestIndexedEqualsScanOnCalibratedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build in -short mode")
	}
	study, err := buildStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := study.Engine
	for _, f := range []query.Filter{
		{},
		{Manufacturer: "Waymo"},
		{Manufacturer: "waymo", Tag: "Recognition System"},
		{Category: "ML/Design", From: "2015-01", To: "2015-12"},
		{Tag: "Software", Modality: "manual"},
		{Manufacturer: "Bosch", Road: "highway"},
		{Tag: "ſoftware"},
		{Tag: "SOFTWARE"},
		{Manufacturer: "Boſch"},
		{Category: "ſyſtem"},
	} {
		planned, err := eng.Select(f)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := eng.SelectScan(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned, scanned) {
			t.Errorf("filter %+v: planned %d rows != scanned %d rows", f, len(planned), len(scanned))
		}
	}
}

// TestColdStartFromSnapshot pins the warm-start acceptance criterion: a
// cold avserve process pointed at a populated -snapshot-dir serves the
// seed's disengagements without ever invoking the pipeline builder — the
// cache Builds counter stays 0 and the snapshot-load counter reads 1.
func TestColdStartFromSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build in -short mode")
	}
	dir := t.TempDir()
	study, err := buildStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot2.WriteSeed(dir, 1, study.DB); err != nil {
		t.Fatal(err)
	}

	// A fresh process: same builder wiring as run(), but instrumented so
	// any pipeline build fails the test loudly.
	var builds atomic.Int64
	real := buildStudy
	server, err := serve.New(serve.Config{
		Build: func(seed int64) (*serve.Study, error) {
			builds.Add(1)
			return real(seed)
		},
		CacheSize:      2,
		RequestTimeout: 2 * time.Minute,
		SnapshotDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/studies/1/disengagements?mfr=Waymo&limit=5", nil)
	rec := httptest.NewRecorder()
	server.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("disengagements = %d (%s)", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var page query.EventPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total == 0 || len(page.Events) != 5 {
		t.Fatalf("snapshot-served Waymo page = total %d, events %d", page.Total, len(page.Events))
	}

	if n := builds.Load(); n != 0 {
		t.Errorf("pipeline builder ran %d times on a warm start", n)
	}
	stats := server.CacheStats()
	if stats.Builds != 0 || stats.Snapshot2Loads != 1 {
		t.Errorf("cache stats = %+v, want Builds 0 and Snapshot2Loads 1", stats)
	}

	rec = httptest.NewRecorder()
	server.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"avserve_snapshot2_loads_total 1",
		"avserve_cache_builds_total 0",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("want flag parse error")
	}
}

// TestRunSelfTerminates pins the -duration harness mode `make proxy-smoke`
// relies on: the server binds, serves /healthz, then drains and exits nil
// on its own — no signal required.
func TestRunSelfTerminates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-duration", "2s"})
	}()

	// Poll /healthz until the server is up, then let the duration elapse.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(50 * time.Millisecond)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil after -duration elapses", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not self-terminate")
	}
}

// TestRunProxyMode boots the real binary wiring in -proxy mode over two
// stub backends and checks the proxy role end to end: local /healthz,
// study traffic forwarded with the seed's URI intact, and a clean
// self-terminating exit.
func TestRunProxyMode(t *testing.T) {
	backend := func(name string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]string{"backend": name, "uri": r.URL.RequestURI()})
		}))
	}
	b1, b2 := backend("b1"), backend("b2")
	defer b1.Close()
	defer b2.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-proxy", "-backends", b1.URL + "," + b2.URL,
			"-addr", addr, "-duration", "3s",
		})
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if !strings.Contains(string(body), `"proxy"`) {
					t.Fatalf("/healthz = %s, want the proxy role", body)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy never became healthy")
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/v1/studies/7/disengagements?limit=3")
	if err != nil {
		t.Fatal(err)
	}
	var echoed map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&echoed); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if echoed["backend"] != "b1" && echoed["backend"] != "b2" {
		t.Errorf("forwarded to %q, want a configured backend", echoed["backend"])
	}
	if echoed["uri"] != "/v1/studies/7/disengagements?limit=3" {
		t.Errorf("backend saw URI %q", echoed["uri"])
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("proxy run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("proxy did not self-terminate")
	}
}

// TestRunProxyConfigErrors: -proxy without backends is a startup error,
// not a proxy that 502s everything.
func TestRunProxyConfigErrors(t *testing.T) {
	if err := run([]string{"-proxy"}); err == nil {
		t.Error("-proxy without -backends: want error")
	}
	if err := run([]string{"-proxy", "-backends", " , "}); err == nil {
		t.Error("-proxy with blank backends: want error")
	}
}
