package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"avfda/internal/query"
)

// memoRoute is one memoized route: its path below the study and its key.
type memoRoute struct{ path, key string }

// memoRoutes lists every memoized route: reliability and each table id.
func memoRoutes() []memoRoute {
	routes := []memoRoute{{"metrics/reliability", "reliability"}}
	ids := make([]string, 0, len(tableRenderers))
	for id := range tableRenderers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		routes = append(routes, memoRoute{"tables/" + id, "tables/" + id})
	}
	return routes
}

// acceptGzip returns the request headers asking for gzip, or none.
func acceptGzip(gz bool) map[string]string {
	if gz {
		return map[string]string{"Accept-Encoding": "gzip"}
	}
	return nil
}

// freshBody renders a memoized route's identity body the way the handlers
// wrote it before memoization: writeJSON of the reliability response, or
// the table renderer's text.
func freshBody(t *testing.T, study *Study, key string) []byte {
	t.Helper()
	if key == "reliability" {
		rows, err := study.Engine.Reliability()
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, ReliabilityResponse{Manufacturers: rows})
		return rec.Body.Bytes()
	}
	db, err := study.Database()
	if err != nil {
		t.Fatal(err)
	}
	text, err := tableRenderers[key[len("tables/"):]](db)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(text)
}

// gunzip decodes a gzip body.
func gunzip(t *testing.T, body []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// residentStudy returns the server's cached study for seed.
func residentStudy(t *testing.T, s *Server, seed int64) *Study {
	t.Helper()
	study, err := s.cache.Get(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// memoized reports whether study holds a body under key.
func memoized(study *Study, key string) bool {
	_, ok := study.memo.Load(key)
	return ok
}

// TestMemoEquivalence: for a heap-built study and a study mapped from a v2
// snapshot of the same seed, each memoized route's first response, its
// memoized repeat and a fresh render are byte-identical, the gzip body
// decodes to them, and every body carries its Content-Length.
func TestMemoEquivalence(t *testing.T) {
	for _, kind := range []struct {
		name string
		new  func() *Server
	}{
		{"heap", func() *Server { return newTestServer(t, nil, 0, 0) }},
		{"mapped", func() *Server { return newSnapshotServer(t, nil) }},
	} {
		for _, route := range memoRoutes() {
			// A fresh server per first representation, so the first
			// request of each kind is the one that fills the memo.
			for _, firstGzip := range []bool{false, true} {
				s := kind.new()
				url := "/v1/studies/1/" + route.path
				first := getFull(t, s, url, acceptGzip(firstGzip))
				repeat := getFull(t, s, url, acceptGzip(firstGzip))
				other := getFull(t, s, url, acceptGzip(!firstGzip))
				for _, rec := range []*httptest.ResponseRecorder{first, repeat, other} {
					if rec.Code != http.StatusOK {
						t.Fatalf("%s %s: code %d (%s)", kind.name, url, rec.Code, rec.Body.String())
					}
					if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
						t.Errorf("%s %s: Content-Length %q for a %d-byte body", kind.name, url, cl, rec.Body.Len())
					}
				}
				study := residentStudy(t, s, 1)
				if !memoized(study, route.key) {
					t.Fatalf("%s %s: no memo entry after a success", kind.name, url)
				}
				if !bytes.Equal(first.Body.Bytes(), repeat.Body.Bytes()) {
					t.Errorf("%s %s gzip=%v: memoized repeat differs from the first response", kind.name, url, firstGzip)
				}
				identity, zipped := first.Body.Bytes(), other.Body.Bytes()
				if firstGzip {
					identity, zipped = zipped, identity
				}
				if want := freshBody(t, study, route.key); !bytes.Equal(identity, want) {
					t.Errorf("%s %s: identity body differs from a fresh render:\n got %q\nwant %q", kind.name, url, identity, want)
				}
				if got := gunzip(t, zipped); !bytes.Equal(got, identity) {
					t.Errorf("%s %s: gzip body does not decode to the identity body", kind.name, url)
				}
			}
		}
	}
}

// TestMemoFirstRequestRace: eight requests racing the first one on a cold
// study all get identical bytes, in each representation (run under -race).
func TestMemoFirstRequestRace(t *testing.T) {
	for _, route := range []string{"metrics/reliability", "tables/vii"} {
		for _, gz := range []bool{false, true} {
			s := newSnapshotServer(t, nil)
			url := "/v1/studies/1/" + route
			bodies := make([][]byte, 8)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range bodies {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					req := httptest.NewRequest(http.MethodGet, url, nil)
					if gz {
						req.Header.Set("Accept-Encoding", "gzip")
					}
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code == http.StatusOK {
						bodies[i] = rec.Body.Bytes()
					}
				}(i)
			}
			close(start)
			wg.Wait()
			for i, body := range bodies {
				if body == nil {
					t.Fatalf("%s gzip=%v: request %d failed", url, gz, i)
				}
				if !bytes.Equal(body, bodies[0]) {
					t.Errorf("%s gzip=%v: request %d got different bytes", url, gz, i)
				}
			}
		}
	}
}

// TestMemoSkipsFailures: renders that fail answer 500 on every request,
// and nothing is memoized. The study's database gives one car a mileage so
// small that its rate per mile is infinite, which JSON cannot encode, so
// the reliability render fails; the study carries no database for the
// tables, so their render fails too.
func TestMemoSkipsFailures(t *testing.T) {
	db := testDB(t)
	db.Mileage[0].Miles = math.SmallestNonzeroFloat64
	engine, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Build: func(int64) (*Study, error) {
		return &Study{Engine: engine}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []memoRoute{{"metrics/reliability", "reliability"}, {"tables/vii", "tables/vii"}} {
		for i := 0; i < 2; i++ {
			rec := getFull(t, s, "/v1/studies/1/"+route.path, acceptGzip(i == 1))
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("%s request %d: code %d, want 500", route.path, i, rec.Code)
			}
			if enc := rec.Header().Get("Content-Encoding"); enc != "" {
				t.Errorf("%s request %d: 500 carried Content-Encoding %q", route.path, i, enc)
			}
		}
		if memoized(residentStudy(t, s, 1), route.key) {
			t.Errorf("%s: a failed answer was memoized", route.path)
		}
	}
}

// TestMemoDroppedOnEviction: a study the cache evicts loses its memoized
// bodies, even while a caller still holds it.
func TestMemoDroppedOnEviction(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, 0, 0) // capacity 2
	getFull(t, s, "/v1/studies/1/metrics/reliability", nil)
	held := residentStudy(t, s, 1)
	if !memoized(held, "reliability") {
		t.Fatal("no memo entry after a success")
	}
	getFull(t, s, "/v1/studies/2/metrics/reliability", nil)
	getFull(t, s, "/v1/studies/3/metrics/reliability", nil)
	if s.CacheStats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.CacheStats().Evictions)
	}
	if memoized(held, "reliability") {
		t.Error("evicted study kept its memoized body")
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
