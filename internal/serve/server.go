// Package serve is the HTTP serving layer over the failure database
// (system #19 in DESIGN.md §2): a stdlib-only JSON API that turns the
// batch toolchain into a long-running service.
//
// Studies are expensive to build (a full Stage I-IV pipeline run), so the
// server keeps a seed-keyed LRU cache guarded by singleflight: the first
// request for a seed builds the study exactly once no matter how many
// requests race, later requests are answered from memory, and an evicted
// study is simply rebuilt on next use. With Config.SnapshotDir set the
// cache gains a second tier: a miss first maps the seed's persisted v2
// study snapshot (internal/snapshot2), then asks Config.SnapshotPeers, and
// only falls back to the pipeline when none is usable, writing the built
// study through as v2 for the next cold process. Every request runs under a
// deadline (Config.RequestTimeout); a request that times out while its
// study is still building returns 504 without cancelling the build, which
// completes in the background and serves the retry. Request counts,
// latency histograms, and cache counters are exported in Prometheus text
// format at /metrics.
//
// Routes:
//
//	GET /healthz                                     liveness probe
//	GET /metrics                                     Prometheus text metrics
//	GET /v1/studies/{seed}/disengagements            filtered, paginated events
//	GET /v1/studies/{seed}/accidents                 filtered, paginated accidents
//	GET /v1/studies/{seed}/groupby?by=tag            group-by counts
//	GET /v1/studies/{seed}/metrics/reliability       per-manufacturer DPM/DPA/APM
//	GET /v1/studies/{seed}/tables/{id}               rendered paper table (i..viii)
//	GET /v1/snapshots/{seed}                         raw v2 snapshot stream (peer distribution)
//
// Filter query parameters mirror the avquery flags: mfr, tag, category,
// road, weather, modality, from, to; listings also take offset and limit.
//
// Study responses carry HTTP validators when the study is snapshot-backed:
// an ETag derived from the v2 snapshot's CRC-32C (identical on every node
// serving the seed, see etag.go) and a Cache-Control window, so repeated
// conditional requests short-circuit to 304 before any query work. Bodies
// are gzipped when the client negotiates it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/report"
	"avfda/internal/snapshot2"
)

// Config parameterizes a Server.
type Config struct {
	// Build constructs the study for a seed (required).
	Build BuildFunc
	// CacheSize bounds the number of resident studies; <= 0 means 4.
	CacheSize int
	// SnapshotDir, when non-empty, enables the cache's snapshot tier: a
	// miss maps the seed's v2 columnar snapshot (zero-copy) from this
	// directory before falling back to Build, and successful builds are
	// written through as v2 files.
	SnapshotDir string
	// RequestTimeout bounds each request, including any study build it
	// triggers; <= 0 means 60s.
	RequestTimeout time.Duration
	// SnapshotPeers lists base URLs (http://host:port) of peer avserve
	// backends. A cache miss that finds no local snapshot pulls the
	// seed's v2 snapshot from a peer (CRC re-verified on receipt) before
	// paying a pipeline rebuild. Requires SnapshotDir.
	SnapshotPeers []string
	// SnapshotFetchTimeout bounds each peer snapshot probe; <= 0 means 10s.
	SnapshotFetchTimeout time.Duration
}

// Server is the HTTP API over cached studies. Create with New; it
// implements http.Handler and is safe for concurrent use.
type Server struct {
	cache   *Cache
	metrics *Metrics
	timeout time.Duration
	snapDir string // v2 snapshot directory served to peers; "" disables
	mux     *http.ServeMux
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected before the response was ready. It is
// deliberately not a 5xx — nothing server-side failed — and it gets its
// own metrics label so disconnect storms are distinguishable from real
// timeout pressure.
const statusClientClosedRequest = 499

// DefaultListLimit caps listing responses when no limit parameter is
// given; MaxListLimit is the largest accepted limit.
const (
	DefaultListLimit = 50
	MaxListLimit     = 1000
)

// New creates a Server around the given study builder.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	cache, err := NewSnapshotCache(cfg.Build, cfg.CacheSize, cfg.SnapshotDir)
	if err != nil {
		return nil, err
	}
	if err := cache.SetSnapshotPeers(cfg.SnapshotPeers, cfg.SnapshotFetchTimeout); err != nil {
		return nil, err
	}
	s := &Server{
		cache:   cache,
		metrics: NewMetrics(),
		timeout: cfg.RequestTimeout,
		snapDir: cfg.SnapshotDir,
		mux:     http.NewServeMux(),
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /v1/studies/{seed}/disengagements", s.handleDisengagements)
	s.route("GET /v1/studies/{seed}/accidents", s.handleAccidents)
	s.route("GET /v1/studies/{seed}/groupby", s.handleGroupBy)
	s.route("GET /v1/studies/{seed}/metrics/reliability", s.handleReliability)
	s.route("GET /v1/studies/{seed}/tables/{id}", s.handleTable)
	s.route("GET /v1/snapshots/{seed}", s.handleSnapshot)
	return s, nil
}

// CacheStats exposes the study cache counters (for tests and operators).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// route registers a handler wrapped with the per-request deadline, gzip
// negotiation, and the metrics middleware. The mux pattern (minus the
// method) is the metrics route label, so labels have bounded cardinality.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	label := pattern
	if _, path, ok := strings.Cut(pattern, " "); ok {
		label = path
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		// Responses differ by negotiated encoding, so every cache between
		// here and the client must key on it.
		w.Header().Set("Vary", "Accept-Encoding")
		if acceptsGzip(r) {
			gz := newGzipResponseWriter(rec)
			h(gz, r.WithContext(ctx))
			gz.close()
		} else {
			h(rec, r.WithContext(ctx))
		}
		s.metrics.Observe(label, rec.code, time.Since(start).Seconds())
	})
}

// statusRecorder captures the response code for metrics. It forwards the
// optional streaming interfaces — hiding them would silently buffer whole
// responses on the proxy and snapshot-distribution paths.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status code.
func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so a handler's flush reaches the client
// instead of dying in the wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom forwards io.ReaderFrom, keeping the sendfile fast path for
// snapshot streaming; the fallback strips the method so io.Copy cannot
// recurse back into this one.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError emits a JSON error response. Any study validator stamped
// onto the headers before the failure was discovered is withdrawn first:
// an error response describes the failure, not the study, and must never
// be cached against the study's entity tag.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	h := w.Header()
	h.Del("ETag")
	h.Del("Cache-Control")
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// study resolves the {seed} path segment and returns the cached (or
// freshly built) study, after running the conditional-request check. A
// false return means the response — error or 304 — is written.
func (s *Server) study(w http.ResponseWriter, r *http.Request) (*Study, bool) {
	seed, err := strconv.ParseInt(r.PathValue("seed"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad seed %q: want an integer", r.PathValue("seed"))
		return nil, false
	}
	study, err := s.cache.Get(r.Context(), seed)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		// The request deadline expired while the build kept running in the
		// background; the retry the hint asks for hits the warm cache.
		writeError(w, http.StatusGatewayTimeout,
			"study %d still building; retry shortly", seed)
		return nil, false
	case errors.Is(err, context.Canceled):
		// The client hung up — not a timeout, and nobody is left to read a
		// retry hint. 499 keeps disconnects out of the 5xx budget; the
		// build still completes in the background for the next caller.
		writeError(w, statusClientClosedRequest, "study %d: client closed request", seed)
		return nil, false
	default:
		writeError(w, http.StatusInternalServerError, "build study %d: %v", seed, err)
		return nil, false
	}
	if conditional(w, r, study) {
		return nil, false
	}
	return study, true
}

// filterFromQuery maps the request's query parameters onto a query.Filter.
func filterFromQuery(r *http.Request) query.Filter {
	q := r.URL.Query()
	return query.Filter{
		Manufacturer: q.Get("mfr"),
		Tag:          q.Get("tag"),
		Category:     q.Get("category"),
		Road:         q.Get("road"),
		Weather:      q.Get("weather"),
		Modality:     q.Get("modality"),
		From:         q.Get("from"),
		To:           q.Get("to"),
	}
}

// pageFromQuery parses offset/limit with defaults and caps. An explicit
// limit of 0 is rejected like any other malformed value — it used to be
// silently promoted to MaxListLimit, handing the client asking for the
// smallest page the largest one — and only an over-max limit is clamped.
// A false return means the error response is written.
func pageFromQuery(w http.ResponseWriter, r *http.Request) (query.Page, bool) {
	p := query.Page{Limit: DefaultListLimit}
	q := r.URL.Query()
	for _, arg := range []struct {
		name string
		dst  *int
		min  int
		want string
	}{
		{"offset", &p.Offset, 0, "a non-negative integer"},
		{"limit", &p.Limit, 1, "a positive integer"},
	} {
		raw := q.Get(arg.name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < arg.min {
			writeError(w, http.StatusBadRequest, "bad %s %q: want %s", arg.name, raw, arg.want)
			return query.Page{}, false
		}
		*arg.dst = v
	}
	if p.Limit > MaxListLimit {
		p.Limit = MaxListLimit
	}
	return p, true
}

// handleHealthz answers liveness probes without touching the cache.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WriteText(w, s.cache.Stats())
}

// handleDisengagements lists filtered, paginated disengagement events.
// Cheap parameter validation runs before the study is resolved: a
// malformed limit must cost a 400, not a multi-hundred-millisecond
// pipeline build on a cold cache.
func (s *Server) handleDisengagements(w http.ResponseWriter, r *http.Request) {
	page, ok := pageFromQuery(w, r)
	if !ok {
		return
	}
	study, ok := s.study(w, r)
	if !ok {
		return
	}
	res, err := study.Engine.Events(filterFromQuery(r), page)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// AccidentPage is one page of accident reports, as produced by the shared
// query engine (the avquery CLI serves the identical structure).
type AccidentPage = query.AccidentPage

// handleAccidents lists accident reports, filtered by mfr and month range.
// The filtering lives in query.Engine.Accidents — one tested path shared
// with the CLI — instead of being reimplemented inline here.
func (s *Server) handleAccidents(w http.ResponseWriter, r *http.Request) {
	// Like handleDisengagements: validate the cheap paging parameters
	// before paying for (and caching) a study build.
	page, ok := pageFromQuery(w, r)
	if !ok {
		return
	}
	study, ok := s.study(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	f := query.Filter{Manufacturer: q.Get("mfr"), From: q.Get("from"), To: q.Get("to")}
	res, err := study.Engine.Accidents(f, page)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// GroupByResponse is the group-by endpoint's payload.
type GroupByResponse struct {
	By     string             `json:"by"`
	Total  int                `json:"total"`
	Groups []query.GroupCount `json:"groups"`
}

// handleGroupBy counts filtered events per value of the ?by= column.
func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	// Same ordering discipline as the listing handlers: a missing by
	// parameter is knowable without building the study.
	by := r.URL.Query().Get("by")
	if by == "" {
		writeError(w, http.StatusBadRequest,
			"missing by parameter: want one of %s", strings.Join(query.GroupColumns(), ", "))
		return
	}
	if !query.IsGroupColumn(by) {
		writeError(w, http.StatusBadRequest,
			"unknown group-by column %q: want one of %s", by, strings.Join(query.GroupColumns(), ", "))
		return
	}
	study, ok := s.study(w, r)
	if !ok {
		return
	}
	groups, err := study.Engine.GroupCount(filterFromQuery(r), by)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	res := GroupByResponse{By: by, Groups: groups}
	for _, g := range groups {
		res.Total += g.Count
	}
	writeJSON(w, http.StatusOK, res)
}

// ReliabilityResponse is the reliability-metrics payload.
type ReliabilityResponse struct {
	Manufacturers []query.ReliabilityMetric `json:"manufacturers"`
}

// handleReliability reports per-manufacturer DPM/DPA/APM metrics.
func (s *Server) handleReliability(w http.ResponseWriter, r *http.Request) {
	study, ok := s.study(w, r)
	if !ok {
		return
	}
	rows, err := study.Engine.Reliability()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reliability: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReliabilityResponse{Manufacturers: rows})
}

// tableRenderers maps a lower-cased table id to its renderer. Table II
// (sample NLP assignments) needs per-run sample rows and is not served.
var tableRenderers = map[string]func(*core.DB) (string, error){
	"i":    func(db *core.DB) (string, error) { return report.TableI(db), nil },
	"iii":  func(db *core.DB) (string, error) { return report.TableIII(), nil },
	"iv":   func(db *core.DB) (string, error) { return report.TableIV(db), nil },
	"v":    func(db *core.DB) (string, error) { return report.TableV(db), nil },
	"vi":   func(db *core.DB) (string, error) { return report.TableVI(db), nil },
	"vii":  report.TableVII,
	"viii": report.TableVIII,
}

// handleTable renders one paper table as plain text.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	id := strings.ToLower(r.PathValue("id"))
	render, ok := tableRenderers[id]
	if !ok {
		writeError(w, http.StatusNotFound,
			"unknown table %q: want one of i, iii, iv, v, vi, vii, viii", r.PathValue("id"))
		return
	}
	study, okStudy := s.study(w, r)
	if !okStudy {
		return
	}
	db, err := study.Database()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render table %s: %v", id, err)
		return
	}
	text, err := render(db)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render table %s: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

// handleSnapshot streams the seed's raw v2 snapshot file — the peer
// distribution endpoint. A backend that misses locally pulls from here
// instead of paying a pipeline rebuild; the puller re-verifies the CRC on
// receipt, so this side just streams bytes. 404 means "not held here"
// and is a normal miss for the fetcher, not an error.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	seed, err := strconv.ParseInt(r.PathValue("seed"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad seed %q: want an integer", r.PathValue("seed"))
		return
	}
	if s.snapDir == "" {
		writeError(w, http.StatusNotFound, "snapshot distribution disabled: no snapshot directory")
		return
	}
	f, err := os.Open(snapshot2.Path(s.snapDir, seed))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, "no snapshot for seed %d", seed)
			return
		}
		writeError(w, http.StatusInternalServerError, "open snapshot for seed %d: %v", seed, err)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stat snapshot for seed %d: %v", seed, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent supplies Content-Length, range requests, and
	// If-Modified-Since for free; the gzip middleware leaves the
	// octet-stream body identity-encoded.
	http.ServeContent(w, r, "", st.ModTime(), f)
}

// writeQueryError maps engine errors to status codes: malformed client
// input — month bounds (*query.MonthError) and unknown columns
// (*query.ColumnError) — is 400, the rest 500. Classification is by typed
// error, never by message text, so rewording an error cannot silently turn
// client mistakes into server faults.
func writeQueryError(w http.ResponseWriter, err error) {
	var me *query.MonthError
	var ce *query.ColumnError
	if errors.As(err, &me) || errors.As(err, &ce) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}
