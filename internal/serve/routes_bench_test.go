package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

// BenchmarkServeRoutes serves warm requests for one calibrated study
// through an in-process Server, as a gzip-accepting client: the stored
// reliability and table answers, and a default and a maximal listing page.
// Its mapped_miss case is the churn path: a capacity-1 Server over two v2
// snapshots, alternated, so each reliability, table and accidents request
// maps, answers from the stored answers or the columns, evicts and
// unmaps. It keeps both paths
// compiled and running; timing comparisons belong to the end-to-end
// benchmark (bench/).
func BenchmarkServeRoutes(b *testing.B) {
	var built *Study
	s, err := New(Config{Build: func(seed int64) (*Study, error) {
		cfg := pipeline.DefaultConfig()
		cfg.Synth = synth.Config{Seed: seed}
		cfg.OCR.Seed = seed
		res, err := pipeline.Run(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		engine, err := query.New(res.DB)
		if err != nil {
			return nil, err
		}
		built = &Study{DB: res.DB, Engine: engine}
		return built, nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, path string }{
		{"reliability", "metrics/reliability"},
		{"table_i", "tables/i"},
		{"page_50", "disengagements?limit=50"},
		{"page_1000", "disengagements?limit=1000"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/v1/studies/1/"+bc.path, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			// The first request builds the study.
			if rec := httptest.NewRecorder(); serveOnce(s, rec, req) != http.StatusOK {
				b.Fatalf("GET %s: code %d (%s)", bc.path, rec.Code, rec.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				if serveOnce(s, rec, req) != http.StatusOK {
					b.Fatalf("GET %s: code %d", bc.path, rec.Code)
				}
				b.SetBytes(int64(rec.Body.Len()))
			}
		})
	}
	b.Run("mapped_miss", func(b *testing.B) {
		if built == nil { // run alone: build the study the snapshots hold
			if rec := httptest.NewRecorder(); serveOnce(s, rec, httptest.NewRequest(http.MethodGet, "/v1/studies/1/tables/i", nil)) != http.StatusOK {
				b.Fatalf("build: code %d (%s)", rec.Code, rec.Body.String())
			}
		}
		dir := b.TempDir()
		for _, seed := range []int64{1, 2} {
			if _, err := snapshot2.WriteSeed(dir, seed, built.DB); err != nil {
				b.Fatal(err)
			}
		}
		mapped, err := New(Config{Build: func(int64) (*Study, error) { return nil, errors.New("no builds") }, CacheSize: 1, SnapshotDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		var reqs []*http.Request
		for _, path := range []string{"1/metrics/reliability", "2/accidents", "1/accidents", "2/metrics/reliability", "1/tables/vii"} {
			req := httptest.NewRequest(http.MethodGet, "/v1/studies/"+path, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			reqs = append(reqs, req)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if rec := httptest.NewRecorder(); serveOnce(mapped, rec, req) != http.StatusOK {
					b.Fatalf("GET %s: code %d (%s)", req.URL, rec.Code, rec.Body.String())
				}
			}
		}
	})
}

// serveOnce serves req into rec and returns the status code.
func serveOnce(s *Server, rec *httptest.ResponseRecorder, req *http.Request) int {
	s.ServeHTTP(rec, req)
	return rec.Code
}
