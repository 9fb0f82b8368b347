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
// Accident reports carry only a manufacturer and a time, so the accidents
// route answers 400 to tag, category, road, weather and modality.
//
// Study responses carry HTTP validators when the study is snapshot-backed:
// an ETag derived from the v2 snapshot's CRC-32C (identical on every node
// serving the seed, see etag.go) and a Cache-Control window, so repeated
// conditional requests short-circuit to 304 before any query work. Every
// JSON body is rendered before its header is sent, so a value JSON cannot
// carry (a NaN, a year past 9999) is a 500, never a 200 with a cut body.
// Disengagement pages are written straight from the study's columns
// (query.Engine.AppendEventsJSON). The reliability and table answers take
// no parameters: they are rendered once, when the study is encoded, and
// stored in its v2 snapshot (report.Answers), so serving one is a copy of
// the stored bytes. The other bodies are written by encoding/json. Bodies
// are gzipped at BestSpeed when the client negotiates it, which is most of
// a large page's cost (gzip.go).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"avfda/internal/core"
	"avfda/internal/query"
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
	s.route("GET /v1/studies/{seed}/disengagements", studyRoute(s, parseList, handleDisengagements))
	s.route("GET /v1/studies/{seed}/accidents", studyRoute(s, parseAccidents, handleAccidents))
	s.route("GET /v1/studies/{seed}/groupby", studyRoute(s, parseGroupBy, handleGroupBy))
	s.route("GET /v1/studies/{seed}/metrics/reliability", studyRoute(s, parseReliability, handleAnswer))
	s.route("GET /v1/studies/{seed}/tables/{id}", studyRoute(s, parseTable, handleAnswer))
	s.route("GET /v1/snapshots/{seed}", s.handleSnapshot)
	s.route("/", unrouted(s.mux))
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
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		// Responses differ by negotiated encoding, so every cache between
		// here and the client must key on it.
		w.Header().Set("Vary", "Accept-Encoding")
		if acceptsGzip(r) {
			gz := newGzipResponseWriter(rec)
			h(gz, r)
			gz.close()
		} else {
			h(rec, r)
		}
		s.metrics.Observe(label, rec.code, time.Since(start).Seconds())
	})
}

// unrouted answers the requests no other pattern of mux takes with the
// JSON envelope: a 405 allowing GET and HEAD when a GET of the same path
// would route, else a 404. Registered as "/", it is the metrics label of
// every such request, so unrouted paths cannot grow the label set, and
// routed requests never reach it.
func unrouted(mux *http.ServeMux) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		get := *r
		get.Method = http.MethodGet
		if _, pattern := mux.Handler(&get); pattern != "/" {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, errorf(http.StatusMethodNotAllowed, "method %s not allowed on %s: want GET or HEAD", r.Method, r.URL.Path))
			return
		}
		writeError(w, errorf(http.StatusNotFound, "no endpoint %s", r.URL.Path))
	}
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

// statusError is an error that answers with its own status code.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// errorf returns a *statusError answering code with the formatted message.
func errorf(code int, format string, args ...any) error {
	return &statusError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errorStatus is the status an error answers with: a *statusError's own,
// 400 for the engine's typed client errors (bad month bounds, unknown
// columns, predicates a listing cannot apply), 500 for the rest. It goes by
// type, never message text, so rewording cannot turn a 400 into a 500.
func errorStatus(err error) int {
	var se *statusError
	var me *query.MonthError
	var ce *query.ColumnError
	var pe *query.PredicateError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.As(err, &me) || errors.As(err, &ce) || errors.As(err, &pe):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// response is a rendered answer: status, content type and the whole body.
type response struct {
	code        int
	contentType string
	body        []byte
}

// bodies pools the buffers bodies are rendered into.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeRendered writes a rendered response with its length (which the
// gzip writer drops when it compresses). An error response withdraws any
// study validator stamped onto the headers: it describes the failure, not
// the study, and must never be cached against the study's entity tag.
func writeRendered(w http.ResponseWriter, res response) {
	h := w.Header()
	if res.code >= http.StatusBadRequest {
		h.Del("ETag")
		h.Del("Cache-Control")
	}
	h.Set("Content-Type", res.contentType)
	h.Set("Content-Length", strconv.Itoa(len(res.body)))
	w.WriteHeader(res.code)
	_, _ = w.Write(res.body)
}

// writeJSON renders v and only then writes it with the given status, so
// a value that fails to encode is the error envelope, never a half-sent
// body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	res, err := jsonOK(nil, v)
	if err != nil {
		writeError(w, err)
		return
	}
	res.code = code
	writeRendered(w, res)
}

// writeError writes err as the JSON error envelope with errorStatus's
// code; writeRendered withdraws any study validator.
func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errorStatus(err), apiError{Error: err.Error()})
}

// jsonOK renders v into dst as a 200 JSON response.
func jsonOK(dst []byte, v any) (response, error) {
	b := bytes.NewBuffer(dst)
	err := encodeJSON(b, v)
	return response{http.StatusOK, "application/json", b.Bytes()}, err
}

// encodeJSON writes v as every JSON body is written: HTML characters
// unescaped, one trailing newline.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// pathSeed parses the {seed} path segment; a malformed one is a 400.
func pathSeed(r *http.Request) (int64, error) {
	seed, err := strconv.ParseInt(r.PathValue("seed"), 10, 64)
	if err != nil {
		return 0, errorf(http.StatusBadRequest, "bad seed %q: want an integer", r.PathValue("seed"))
	}
	return seed, nil
}

// study resolves the {seed} path segment to the cached (or freshly
// built) study and holds it; the caller releases it once the response is
// written.
func (s *Server) study(r *http.Request) (*Study, error) {
	seed, err := pathSeed(r)
	if err != nil {
		return nil, err
	}
	study, err := s.cache.hold(r.Context(), seed)
	switch {
	case err == nil:
		return study, nil
	case errors.Is(err, context.DeadlineExceeded):
		// The request deadline expired while the build kept running in the
		// background; the retry the hint asks for hits the warm cache.
		return nil, errorf(http.StatusGatewayTimeout, "study %d still building; retry shortly", seed)
	case errors.Is(err, context.Canceled):
		// The client hung up — not a timeout, and nobody is left to read a
		// retry hint. 499 keeps disconnects out of the 5xx budget; the
		// build still completes in the background for the next caller.
		return nil, errorf(statusClientClosedRequest, "study %d: client closed request", seed)
	}
	return nil, errorf(http.StatusInternalServerError, "build study %d: %v", seed, err)
}

// studyRoute adapts a study handler to the mux and is the only code on a
// study route that writes. parse turns the request into the route's typed
// request; only a parsed request reaches s.study, so a bad parameter costs
// a parse, never a study build. The handler gets the study and the parsed
// request together and renders into a pooled buffer; it has no writer to
// answer early with. The study is held until the response, a 304
// included, is written; any error is the envelope, without validators.
func studyRoute[T any](s *Server, parse func(*http.Request, url.Values) (T, error),
	handle func(dst []byte, study *Study, req T) (response, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := parse(r, r.URL.Query())
		if err != nil {
			writeError(w, err)
			return
		}
		study, err := s.study(r)
		if err != nil {
			writeError(w, err)
			return
		}
		defer s.cache.release(study)
		if tag, notModified := conditional(r, study); tag != "" {
			h := w.Header()
			h.Set("ETag", tag)
			h.Set("Cache-Control", cacheControl)
			if notModified {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		buf := bodies.Get().(*[]byte)
		defer bodies.Put(buf)
		res, err := handle((*buf)[:0], study, req)
		*buf = res.body[:0]
		if err != nil {
			writeError(w, err)
			return
		}
		writeRendered(w, res)
	}
}

// listRequest is a listing route's parsed parameters.
type listRequest struct {
	filter query.Filter
	page   query.Page
}

// parseList reads a listing's page and filter: the page first, then the
// filter's month bounds.
func parseList(_ *http.Request, q url.Values) (listRequest, error) {
	page, err := pageFromQuery(q)
	if err != nil {
		return listRequest{}, err
	}
	f, err := filterFromQuery(q)
	return listRequest{filter: f, page: page}, err
}

// parseAccidents reads an accident listing as parseList reads a listing,
// then rejects with a 400 naming the parameter any predicate accident
// reports cannot answer (tag, category, road, weather, modality).
func parseAccidents(r *http.Request, q url.Values) (listRequest, error) {
	req, err := parseList(r, q)
	if err == nil {
		err = req.filter.ValidateAccidents()
	}
	return req, err
}

// groupRequest is the group-by route's parsed parameters.
type groupRequest struct {
	filter query.Filter
	by     string
}

// parseGroupBy reads the ?by= column, which must name a column
// GroupCount accepts, and then the filter.
func parseGroupBy(_ *http.Request, q url.Values) (groupRequest, error) {
	by := q.Get("by")
	if by == "" {
		return groupRequest{}, errorf(http.StatusBadRequest,
			"missing by parameter: want one of %s", strings.Join(query.GroupColumns(), ", "))
	}
	if !query.IsGroupColumn(by) {
		return groupRequest{}, errorf(http.StatusBadRequest,
			"unknown group-by column %q: want one of %s", by, strings.Join(query.GroupColumns(), ", "))
	}
	f, err := filterFromQuery(q)
	return groupRequest{filter: f, by: by}, err
}

// parseReliability is the parse step of the reliability route, which
// takes no parameters: its answer is the stored reliability slot.
func parseReliability(*http.Request, url.Values) (snapshot2.Slot, error) {
	return snapshot2.SlotReliability, nil
}

// parseTable resolves the {id} path segment to the table's answer slot;
// an unknown id is a 404. Table II (sample NLP assignments) needs per-run
// sample rows and is not served.
func parseTable(r *http.Request, _ url.Values) (snapshot2.Slot, error) {
	slot, ok := snapshot2.TableSlot(strings.ToLower(r.PathValue("id")))
	if !ok {
		return slot, errorf(http.StatusNotFound,
			"unknown table %q: want one of i, iii, iv, v, vi, vii, viii", r.PathValue("id"))
	}
	return slot, nil
}

// filterFromQuery maps the query parameters onto a query.Filter whose
// month bounds are checked; a bad bound is the engine's
// *query.MonthError, a 400.
func filterFromQuery(q url.Values) (query.Filter, error) {
	f := query.Filter{
		Manufacturer: q.Get("mfr"),
		Tag:          q.Get("tag"),
		Category:     q.Get("category"),
		Road:         q.Get("road"),
		Weather:      q.Get("weather"),
		Modality:     q.Get("modality"),
		From:         q.Get("from"),
		To:           q.Get("to"),
	}
	return f, f.Validate()
}

// pageFromQuery parses offset/limit with defaults and caps. An explicit
// limit of 0 is rejected like any other malformed value — it used to be
// silently promoted to MaxListLimit, handing the client asking for the
// smallest page the largest one — and only an over-max limit is clamped.
func pageFromQuery(q url.Values) (query.Page, error) {
	p := query.Page{Limit: DefaultListLimit}
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
			return query.Page{}, errorf(http.StatusBadRequest, "bad %s %q: want %s", arg.name, raw, arg.want)
		}
		*arg.dst = v
	}
	if p.Limit > MaxListLimit {
		p.Limit = MaxListLimit
	}
	return p, nil
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

// handleDisengagements lists filtered, paginated disengagement events,
// written straight from the study's columns (query.Engine.AppendEventsJSON).
func handleDisengagements(dst []byte, study *Study, req listRequest) (response, error) {
	body, err := study.Engine.AppendEventsJSON(dst, req.filter, req.page)
	return response{http.StatusOK, "application/json", body}, err
}

// AccidentPage is one page of accident reports, as produced by the shared
// query engine (the avquery CLI serves the identical structure).
type AccidentPage = query.AccidentPage

// handleAccidents lists accident reports, filtered by mfr and month range
// (the only predicates parseAccidents lets through) in the query engine.
func handleAccidents(dst []byte, study *Study, req listRequest) (response, error) {
	res, err := study.Engine.Accidents(req.filter, req.page)
	if err != nil {
		return response{body: dst}, err
	}
	return jsonOK(dst, res)
}

// GroupByResponse is the group-by endpoint's payload.
type GroupByResponse struct {
	By     string             `json:"by"`
	Total  int                `json:"total"`
	Groups []query.GroupCount `json:"groups"`
}

// handleGroupBy counts filtered events per value of the ?by= column.
func handleGroupBy(dst []byte, study *Study, req groupRequest) (response, error) {
	groups, err := study.Engine.GroupCount(req.filter, req.by)
	if err != nil {
		return response{body: dst}, err
	}
	res := GroupByResponse{By: req.by, Groups: groups}
	for _, g := range groups {
		res.Total += g.Count
	}
	return jsonOK(dst, res)
}

// ReliabilityResponse is the reliability-metrics payload.
type ReliabilityResponse = core.ReliabilityResponse

// handleAnswer copies the study's stored answer in slot s (reliability
// metrics or a paper table) with its stored status and content type.
func handleAnswer(dst []byte, study *Study, s snapshot2.Slot) (response, error) {
	code, contentType := study.Engine.Answer(s)
	return response{code, contentType, study.Engine.AppendAnswer(dst, s)}, nil
}

// handleSnapshot streams the seed's raw v2 snapshot file — the peer
// distribution endpoint. A backend that misses locally pulls from here
// instead of paying a pipeline rebuild; the puller re-verifies the CRC on
// receipt, so this side just streams bytes. 404 means "not held here"
// and is a normal miss for the fetcher, not an error.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	f, st, err := s.openSnapshot(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent supplies Content-Length, range requests, and
	// If-Modified-Since for free; the gzip middleware leaves the
	// octet-stream body identity-encoded.
	http.ServeContent(w, r, "", st.ModTime(), f)
}

// openSnapshot opens the requested seed's snapshot file for streaming.
// Anything but a regular file there is a 500: ServeContent over a
// directory would send a 200 with an impossible length and no body.
func (s *Server) openSnapshot(r *http.Request) (*os.File, fs.FileInfo, error) {
	seed, err := pathSeed(r)
	if err != nil {
		return nil, nil, err
	}
	if s.snapDir == "" {
		return nil, nil, errorf(http.StatusNotFound, "snapshot distribution disabled: no snapshot directory")
	}
	f, err := os.Open(snapshot2.Path(s.snapDir, seed))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, errorf(http.StatusNotFound, "no snapshot for seed %d", seed)
		}
		return nil, nil, errorf(http.StatusInternalServerError, "open snapshot for seed %d: %v", seed, pathless(err))
	}
	st, err := f.Stat()
	if err == nil && !st.Mode().IsRegular() {
		err = errors.New("not a regular file")
	}
	if err != nil {
		f.Close()
		return nil, nil, errorf(http.StatusInternalServerError, "stat snapshot for seed %d: %v", seed, pathless(err))
	}
	return f, st, nil
}

// pathless is err without the file path a *fs.PathError carries: the OS
// error alone, so an answer never shows the server's filesystem layout.
func pathless(err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return pe.Err
	}
	return err
}
