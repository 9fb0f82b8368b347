package serve

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/report"
)

// answerRoute is one route served from a stored answer: its path below
// the study and the content type of its success body.
type answerRoute struct{ path, contentType string }

// answerRoutes lists every stored-answer route: reliability and each
// table id.
func answerRoutes() []answerRoute {
	routes := []answerRoute{{"metrics/reliability", "application/json"}}
	for _, id := range report.AnswerKeys[1:] {
		routes = append(routes, answerRoute{"tables/" + id, "text/plain; charset=utf-8"})
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

// renderedBody renders a stored-answer route's identity body the way the
// handlers rendered it on each request before answers were stored:
// writeJSON of the reliability response, or the table renderer's text.
func renderedBody(t *testing.T, db *core.DB, path string) []byte {
	t.Helper()
	if path == "metrics/reliability" {
		rows, err := query.Reliability(db.Exposure())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, ReliabilityResponse{Manufacturers: rows})
		return rec.Body.Bytes()
	}
	var text string
	var err error
	switch strings.TrimPrefix(path, "tables/") {
	case "i":
		text = report.TableI(db)
	case "iii":
		text = report.TableIII()
	case "iv":
		text = report.TableIV(db)
	case "v":
		text = report.TableV(db)
	case "vi":
		text = report.TableVI(db)
	case "vii":
		text, err = report.TableVII(db)
	case "viii":
		text, err = report.TableVIII(db)
	default:
		t.Fatalf("no renderer for %s", path)
	}
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

// TestStoredAnswerEquivalence: for a heap-built study and a study mapped
// from a v2 snapshot of the same database, each stored-answer route's
// identity body is byte-identical to a render of the database, carries its
// Content-Type and Content-Length, repeats byte for byte, and the gzip
// body decodes to it.
func TestStoredAnswerEquivalence(t *testing.T) {
	db := testDB(t)
	for _, kind := range []struct {
		name string
		s    *Server
	}{
		{"heap", newTestServer(t, nil, 0, 0)},
		{"mapped", newSnapshotServer(t, nil)},
	} {
		for _, route := range answerRoutes() {
			url := "/v1/studies/1/" + route.path
			identity := getFull(t, kind.s, url, nil)
			repeat := getFull(t, kind.s, url, nil)
			zipped := getFull(t, kind.s, url, acceptGzip(true))
			for _, rec := range []*httptest.ResponseRecorder{identity, repeat, zipped} {
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: code %d (%s)", kind.name, url, rec.Code, rec.Body.String())
				}
				if ct := rec.Header().Get("Content-Type"); ct != route.contentType {
					t.Errorf("%s %s: Content-Type %q, want %q", kind.name, url, ct, route.contentType)
				}
			}
			for _, rec := range []*httptest.ResponseRecorder{identity, repeat} {
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
					t.Errorf("%s %s: Content-Length %q for a %d-byte body", kind.name, url, cl, rec.Body.Len())
				}
			}
			if want := renderedBody(t, db, route.path); !bytes.Equal(identity.Body.Bytes(), want) {
				t.Errorf("%s %s: stored body differs from a render:\n got %q\nwant %q", kind.name, url, identity.Body.Bytes(), want)
			}
			if !bytes.Equal(repeat.Body.Bytes(), identity.Body.Bytes()) {
				t.Errorf("%s %s: repeat differs from the first response", kind.name, url)
			}
			if got := gunzip(t, zipped.Body.Bytes()); !bytes.Equal(got, identity.Body.Bytes()) {
				t.Errorf("%s %s: gzip body does not decode to the identity body", kind.name, url)
			}
		}
	}
}

// TestStoredAnswerConcurrentRequests: eight requests racing on a cold
// mapped study all get identical bytes, in each representation (run under
// -race).
func TestStoredAnswerConcurrentRequests(t *testing.T) {
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
					rec := getFull(t, s, url, acceptGzip(gz))
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

// TestStoredAnswerFailures: an answer whose render failed when the study
// was encoded is stored as its 500 error envelope and answered as one on
// every request, identity-encoded and without the study's validator. The
// study gives one car a mileage so small that its rate per mile is
// infinite, which JSON cannot encode, so the reliability render fails;
// the same study's tables still answer 200.
func TestStoredAnswerFailures(t *testing.T) {
	db := testDB(t)
	db.Mileage[0].Miles = math.SmallestNonzeroFloat64
	engine, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Build: func(int64) (*Study, error) {
		return &Study{Engine: engine}, nil
	}, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"error":"reliability: json: unsupported value: +Inf"}` + "\n"
	for i := 0; i < 2; i++ {
		rec := getFull(t, s, "/v1/studies/1/metrics/reliability", acceptGzip(i == 1))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("request %d: code %d, want 500", i, rec.Code)
		}
		if got := rec.Body.String(); got != want {
			t.Errorf("request %d: body %q, want %q", i, got, want)
		}
		for _, h := range []string{"Content-Encoding", "ETag", "Cache-Control"} {
			if v := rec.Header().Get(h); v != "" {
				t.Errorf("request %d: 500 carried %s %q", i, h, v)
			}
		}
	}
	if rec := getFull(t, s, "/v1/studies/1/tables/i", nil); rec.Code != http.StatusOK || rec.Header().Get("ETag") == "" {
		t.Errorf("tables/i: code %d, ETag %q; want 200 with a validator", rec.Code, rec.Header().Get("ETag"))
	}
}
