package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/synth"
)

// BenchmarkServeRoutes serves warm requests for one calibrated study
// through an in-process Server, as a gzip-accepting client: the memoized
// reliability and table answers, and a default and a maximal listing page.
// It keeps the warm path compiled and running; timing comparisons belong
// to the end-to-end benchmark (bench/).
func BenchmarkServeRoutes(b *testing.B) {
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
		return &Study{DB: res.DB, Engine: engine}, nil
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
			// The first request builds the study and fills any memo.
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
}

// serveOnce serves req into rec and returns the status code.
func serveOnce(s *Server, rec *httptest.ResponseRecorder, req *http.Request) int {
	s.ServeHTTP(rec, req)
	return rec.Code
}
