package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/report"
	"avfda/internal/serve"
	"avfda/internal/snapshot2"
)

// replayer re-executes a request sequence in process against the public
// functions the avserve handlers call — serve.Cache.Get, the query.Engine
// methods, Study.Database, the report tables, JSON and gzip — with one
// span per call nested under a root span per request. It mirrors the
// handlers in internal/serve/server.go; it does not share their code, so
// a change to a handler shows up as a gap in the additivity check.
type replayer struct {
	ctx   context.Context
	cache *serve.Cache
	tr    *tracer
	gz    *gzip.Writer

	// plumbing is an in-process avserve handler over one warm heap study,
	// and plumbingReq a request to it that passes through everything a
	// study route does around the layers above — deadline, encoding
	// negotiation, paging, cache hit, entity tag, headers, metrics — but
	// asks for a page past the last accident, so no query work is done,
	// and does not accept gzip, whose cost serve.encode already counts.
	// Each replayed request sends it once, as the serve.http span.
	plumbing    *serve.Server
	plumbingReq *http.Request

	// resident mirrors the cache's LRU order, most recent first, so that
	// the replay drops its hold on evicted studies as the cache does.
	resident []int64
	capacity int
	// materialized is, per resident seed, the mapped study whose database
	// has been decoded; a re-mapped study is a new one and decodes again.
	materialized     map[int64]*serve.Study
	misses           int
	materializations int
	rows             []float64 // rows per listing response
}

// newReplayer returns a replayer whose cache has the given capacity and
// snapshot dir, and whose plumbing handler has built plumbingSeed.
func newReplayer(ctx context.Context, tr *tracer, dir string, capacity int, plumbingSeed int64) (*replayer, error) {
	cache, err := serve.NewSnapshotCache(studyBuildFunc, capacity, dir)
	if err != nil {
		return nil, err
	}
	plumbing, err := serve.New(serve.Config{Build: studyBuildFunc, CacheSize: 1})
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/studies/%d/accidents?offset=%d&limit=1", plumbingSeed, serve.MaxListLimit), nil)
	rp := &replayer{ctx: ctx, cache: cache, tr: tr, gz: gzip.NewWriter(nil), plumbing: plumbing, plumbingReq: req,
		capacity: capacity, materialized: make(map[int64]*serve.Study)}
	// The first request builds the study; every later one is a hit.
	return rp, rp.servePlumbing()
}

// plumbingWriter discards a response body and keeps its status.
type plumbingWriter struct {
	header http.Header
	code   int
}

func (w *plumbingWriter) Header() http.Header         { return w.header }
func (w *plumbingWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *plumbingWriter) WriteHeader(code int)        { w.code = code }

// servePlumbing sends plumbingReq to the in-process handler.
func (rp *replayer) servePlumbing() error {
	w := &plumbingWriter{header: make(http.Header), code: http.StatusOK}
	rp.plumbing.ServeHTTP(w, rp.plumbingReq)
	if w.code != http.StatusOK {
		return fmt.Errorf("replay: in-process %s answered %d", rp.plumbingReq.URL, w.code)
	}
	return nil
}

// routeOf maps a study path to the avserve metrics route label.
func routeOf(path string) (seed int64, route, rest string, err error) {
	p, _, _ := strings.Cut(path, "?")
	tail, ok := strings.CutPrefix(p, "/v1/studies/")
	if !ok {
		return 0, "", "", fmt.Errorf("not a study path: %q", path)
	}
	seedStr, rest, _ := strings.Cut(tail, "/")
	seed, err = strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return 0, "", "", fmt.Errorf("bad seed in %q: %w", path, err)
	}
	route = "/v1/studies/{seed}/" + rest
	if strings.HasPrefix(rest, "tables/") {
		route = "/v1/studies/{seed}/tables/{id}"
	}
	return seed, route, rest, nil
}

// get is the cache lookup, labelled hit or miss.
func (rp *replayer) get(root, seed int64, opName string) (*serve.Study, error) {
	hits := rp.cache.Stats().Hits
	start := time.Now()
	study, err := rp.cache.Get(rp.ctx, seed)
	end := time.Now()
	note := "hit"
	if rp.cache.Stats().Hits == hits {
		note = "miss"
		rp.misses++
	}
	if err == nil {
		rp.touch(seed)
	}
	rp.tr.add(span{Parent: root, Name: "serve.cache_get", Op: opName, Seed: seed,
		Sched: rp.tr.ns(start), Start: rp.tr.ns(start), End: rp.tr.ns(end), Note: note})
	return study, err
}

// touch moves seed to the front of the mirrored LRU order and forgets
// the seed that falls off its end.
func (rp *replayer) touch(seed int64) {
	for i, s := range rp.resident {
		if s == seed {
			rp.resident = append(rp.resident[:i], rp.resident[i+1:]...)
			break
		}
	}
	rp.resident = append([]int64{seed}, rp.resident...)
	if len(rp.resident) > rp.capacity {
		delete(rp.materialized, rp.resident[rp.capacity])
		rp.resident = rp.resident[:rp.capacity]
	}
}

// warm looks a seed up outside any request, as a server's pool warm-up
// does; the lookup is still traced.
func (rp *replayer) warm(seed int64) error {
	_, err := rp.get(0, seed, "warm-up")
	return err
}

// database returns the study's database, timing the first decode of a
// mapped study as a materialization.
func (rp *replayer) database(root, seed int64, study *serve.Study, opName string) (*core.DB, error) {
	if study.DB == nil && rp.materialized[seed] != study {
		rp.materialized[seed] = study
		rp.materializations++
		var err error
		rp.tr.timed(root, "core.materialize", opName, 0, func() { _, err = study.Database() })
		if err != nil {
			return nil, err
		}
	}
	return study.Database()
}

// do replays one request under a root span named name.
func (rp *replayer) do(r request, name string) error {
	seed, route, rest, err := routeOf(r.path)
	if err != nil {
		return err
	}
	u, err := url.Parse(r.path)
	if err != nil {
		return err
	}
	q := u.Query()
	root := rp.tr.reserve()
	start := time.Now()
	study, err := rp.get(root, seed, r.op)
	if err != nil {
		return err
	}
	var value any
	var text string
	call := func(layer string, f func() error) error {
		var ferr error
		rp.tr.timed(root, layer, r.op, seed, func() { ferr = f() })
		return ferr
	}
	switch {
	case rest == "disengagements":
		page, err := pageOf(q)
		if err != nil {
			return err
		}
		var res query.EventPage
		if err := call("query.events", func() (err error) { res, err = study.Engine.Events(filterOf(q), page); return err }); err != nil {
			return err
		}
		rp.rows = append(rp.rows, float64(len(res.Events)))
		value = res
	case rest == "accidents":
		page, err := pageOf(q)
		if err != nil {
			return err
		}
		if _, err := rp.database(root, seed, study, r.op); err != nil {
			return err
		}
		f := query.Filter{Manufacturer: q.Get("mfr"), From: q.Get("from"), To: q.Get("to")}
		var res query.AccidentPage
		if err := call("query.accidents", func() (err error) { res, err = study.Engine.Accidents(f, page); return err }); err != nil {
			return err
		}
		rp.rows = append(rp.rows, float64(len(res.Accidents)))
		value = res
	case rest == "groupby":
		by := q.Get("by")
		var groups []query.GroupCount
		if err := call("query.groupby", func() (err error) { groups, err = study.Engine.GroupCount(filterOf(q), by); return err }); err != nil {
			return err
		}
		res := serve.GroupByResponse{By: by, Groups: groups}
		for _, g := range groups {
			res.Total += g.Count
		}
		value = res
	case rest == "metrics/reliability":
		if _, err := rp.database(root, seed, study, r.op); err != nil {
			return err
		}
		var rows []query.ReliabilityMetric
		if err := call("query.reliability", func() (err error) { rows, err = study.Engine.Reliability(); return err }); err != nil {
			return err
		}
		value = serve.ReliabilityResponse{Manufacturers: rows}
	case rest == "tables/i" || rest == "tables/vii":
		db, err := rp.database(root, seed, study, r.op)
		if err != nil {
			return err
		}
		if err := call("report.table", func() (err error) {
			if rest == "tables/i" {
				text = report.TableI(db)
				return nil
			}
			text, err = report.TableVII(db)
			return err
		}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("replay: unsupported path %q", r.path)
	}
	var size int
	if err := call("serve.encode", func() (err error) { size, err = rp.encode(value, text); return err }); err != nil {
		return err
	}
	if err := call("serve.http", rp.servePlumbing); err != nil {
		return err
	}
	rp.tr.put(span{ID: root, Name: name, Op: r.op, Seed: seed, Sched: rp.tr.ns(start),
		Start: rp.tr.ns(start), End: rp.tr.ns(time.Now()), Bytes: int64(size), Note: route})

	if rest == "disengagements" {
		// Select alone, outside the request, so that query.rows_us can be
		// taken as Events minus Select.
		var err error
		rp.tr.timed(0, "query.select", r.op, seed, func() { _, err = study.Engine.Select(filterOf(q)) })
		return err
	}
	return nil
}

// encode renders the response body as the handlers do — JSON without
// HTML escaping, or plain text for tables — through gzip, and returns the
// compressed size.
func (rp *replayer) encode(value any, text string) (int, error) {
	var buf bytes.Buffer
	rp.gz.Reset(&buf)
	if value != nil {
		enc := json.NewEncoder(rp.gz)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(value); err != nil {
			return 0, err
		}
	} else if _, err := rp.gz.Write([]byte(text)); err != nil {
		return 0, err
	}
	if err := rp.gz.Close(); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// filterOf maps query parameters onto a filter as the handlers do.
func filterOf(q url.Values) query.Filter {
	return query.Filter{
		Manufacturer: q.Get("mfr"), Tag: q.Get("tag"), Category: q.Get("category"),
		Road: q.Get("road"), Weather: q.Get("weather"), Modality: q.Get("modality"),
		From: q.Get("from"), To: q.Get("to"),
	}
}

// pageOf parses offset and limit with the handlers' default and cap.
func pageOf(q url.Values) (query.Page, error) {
	p := query.Page{Limit: serve.DefaultListLimit}
	for name, dst := range map[string]*int{"offset": &p.Offset, "limit": &p.Limit} {
		if raw := q.Get(name); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil {
				return p, fmt.Errorf("bad %s %q", name, raw)
			}
			*dst = v
		}
	}
	if p.Limit > serve.MaxListLimit {
		p.Limit = serve.MaxListLimit
	}
	return p, nil
}

// probeSnapshots times, outside any request, a mapped open (CRC and
// structure checks included) and a full materialization for each seed's
// snapshot in dir.
func probeSnapshots(tr *tracer, dir string, seeds []int64, opens int) error {
	for _, seed := range seeds {
		for i := 0; i < opens; i++ {
			start := time.Now()
			v, err := snapshot2.OpenSeed(dir, seed)
			tr.since(0, "probe.snapshot2.open", "probe", seed, start)
			if err != nil {
				return err
			}
			v.Close()
		}
		v, err := snapshot2.OpenSeed(dir, seed)
		if err != nil {
			return err
		}
		tr.timed(0, "probe.core.materialize", "probe", seed, func() { _, err = v.Database() })
		v.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
