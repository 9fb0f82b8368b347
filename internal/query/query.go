// Package query is a reusable, typed query engine over the consolidated
// failure database (system #18 in DESIGN.md §2).
//
// The paper's end product is a failure database that analysts interrogate
// (Tables IV-VIII, Figs 4-12). This package extracts the ad-hoc filter and
// group-by logic that used to live inside cmd/avquery into a composable
// engine shared by the CLI and the HTTP serving layer (internal/serve):
// typed predicates (manufacturer, tag, category, road, weather, modality,
// month range), group-by counts, per-manufacturer reliability metrics, and
// pagination.
//
// An Engine is built once per study and is immutable afterwards, so it is
// safe for concurrent use. Construction precomputes inverted indexes
// (manufacturer/tag/category value → row ids) so equality-filtered queries
// walk only the smallest matching posting list instead of scanning every
// row. Each query plans its Filter once: the month bounds are parsed, the
// posting list is chosen, and only the predicates the filter sets are
// tested per row, so an unset predicate costs nothing. Events, Count, and
// GroupCount stream matches through that plan without building a row-id
// slice; Events materializes only the rows inside its page, and a filter
// with nothing set reads its page directly. SelectScan is the full-scan
// reference implementation the tests hold every answer equal to.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"avfda/internal/core"
	"avfda/internal/frame"
	"avfda/internal/schema"
)

// Filter is one conjunctive query over the failure database: every
// non-empty field must match (string matches are case-insensitive).
type Filter struct {
	// Manufacturer, Tag, and Category are indexed equality predicates.
	Manufacturer string
	Tag          string
	Category     string
	// Road, Weather, and Modality are scan-verified equality predicates.
	Road     string
	Weather  string
	Modality string
	// From and To bound the event month, inclusive on both ends, in
	// "YYYY-MM" form. Empty means unbounded. Malformed values produce a
	// *MonthError.
	From string
	To   string
}

// MonthError reports a malformed From/To month bound.
type MonthError struct {
	// Field is "from" or "to".
	Field string
	// Value is the rejected input.
	Value string
	// Err is the underlying time.Parse error.
	Err error
}

// Error implements the error interface.
func (e *MonthError) Error() string {
	return fmt.Sprintf("bad -%s value %q: want YYYY-MM", e.Field, e.Value)
}

// Unwrap exposes the underlying parse error.
func (e *MonthError) Unwrap() error { return e.Err }

// ColumnError reports a query naming a column the engine does not have
// (e.g. a group-by over a column absent from the frame). It mirrors
// MonthError so transports can classify it as client input error with
// errors.As instead of matching message text.
type ColumnError struct {
	// Column is the rejected column name.
	Column string
	// Err is the underlying frame-layer error.
	Err error
}

// Error implements the error interface.
func (e *ColumnError) Error() string {
	return fmt.Sprintf("group by %q: %v", e.Column, e.Err)
}

// Unwrap exposes the underlying frame error.
func (e *ColumnError) Unwrap() error { return e.Err }

// ParseMonthRange parses inclusive "YYYY-MM" month bounds into a concrete
// [start, endExcl) time window. Empty strings leave the corresponding side
// unbounded (zero time); malformed values produce a *MonthError.
func ParseMonthRange(from, to string) (start, endExcl time.Time, err error) {
	if from != "" {
		start, err = time.Parse("2006-01", from)
		if err != nil {
			return time.Time{}, time.Time{}, &MonthError{Field: "from", Value: from, Err: err}
		}
	}
	if to != "" {
		endExcl, err = time.Parse("2006-01", to)
		if err != nil {
			return time.Time{}, time.Time{}, &MonthError{Field: "to", Value: to, Err: err}
		}
		endExcl = endExcl.AddDate(0, 1, 0) // inclusive end month
	}
	return start, endExcl, nil
}

// monthRange parses the filter's month bounds. The returned to is
// exclusive (first month after the To month); zero times mean unbounded.
func (f Filter) monthRange() (from, to time.Time, err error) {
	return ParseMonthRange(f.From, f.To)
}

// Validate checks the filter's month bounds without running a query.
func (f Filter) Validate() error {
	_, _, err := f.monthRange()
	return err
}

// Event is one disengagement in JSON-friendly form.
type Event struct {
	Manufacturer    string    `json:"manufacturer"`
	Vehicle         string    `json:"vehicle,omitempty"`
	ReportYear      string    `json:"reportYear,omitempty"`
	Time            time.Time `json:"time"`
	Cause           string    `json:"cause"`
	Tag             string    `json:"tag"`
	Category        string    `json:"category"`
	Modality        string    `json:"modality"`
	Road            string    `json:"road,omitempty"`
	Weather         string    `json:"weather,omitempty"`
	ReactionSeconds float64   `json:"reactionSeconds"`
}

// Page bounds a result listing. Offset rows are skipped (negative offsets
// are treated as 0); Limit caps the returned rows, with <= 0 meaning
// unlimited.
type Page struct {
	Offset int
	Limit  int
}

// EventPage is one page of matching events plus the match total.
type EventPage struct {
	Total  int     `json:"total"`
	Offset int     `json:"offset"`
	Limit  int     `json:"limit"`
	Events []Event `json:"events"`
}

// GroupCount is one group-by bucket.
type GroupCount struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
}

// Source is the read surface the engine queries: per-row column accessors
// in the exact string forms core.DB.EventsFrame renders (display names for
// enums, "YYYY-YYYY" report years), the three inverted-index lookups,
// keyed by lower-cased value with ascending row ids, and the study's
// exposure summary and accident reports. Implementations must be immutable
// and safe for concurrent use; returned posting lists and accident slices
// are shared and read-only.
//
// The in-heap implementation wraps the column slices an engine has always
// carried; snapshot2.View implements the same surface directly over a
// memory-mapped study file, which is how an engine serves queries,
// accident listings and reliability metrics with no deserialization at all.
type Source interface {
	// NumRows returns the event count; row indexes run [0, NumRows()).
	NumRows() int

	Manufacturer(i int) string
	Vehicle(i int) string
	ReportYear(i int) string
	Time(i int) time.Time
	Cause(i int) string
	Tag(i int) string
	Category(i int) string
	Modality(i int) string
	Road(i int) string
	Weather(i int) string
	ReactionSeconds(i int) float64

	// ManufacturerIDs, TagIDs, and CategoryIDs return the ascending row
	// ids whose lower-cased column value equals key, or nil when the key
	// has no rows.
	ManufacturerIDs(key string) []int
	TagIDs(key string) []int
	CategoryIDs(key string) []int

	// Exposure summarizes the study's miles, disengagements and accidents
	// per manufacturer and per vehicle (Tables VI-VII).
	Exposure() (*core.Exposure, error)
	// Accidents returns the study's accident reports in table order.
	Accidents() ([]schema.Accident, error)
}

// Engine answers queries over one study's failure database. Build it once
// with New (or NewFromFrame, or NewFromSource over a snapshot view) and
// share it freely: all methods are read-only and safe for concurrent use.
type Engine struct {
	src Source
	n   int

	db     *core.DB // set by New; nil for frame- and source-backed engines
	lazyDB func() (*core.DB, error)
	dbOnce sync.Once
	mdb    *core.DB
	mdbErr error

	f         *frame.Frame // set by New/NewFromFrame; else materialized lazily
	frameOnce sync.Once
	mframe    *frame.Frame
	mframeErr error
}

// sliceSource is the in-heap Source: the engine's historical column slices
// and eagerly built inverted indexes, plus the database behind them (nil
// for an engine built from a bare frame).
type sliceSource struct {
	db *core.DB

	mfr      []string
	tag      []string
	category []string
	road     []string
	weather  []string
	modality []string
	vehicle  []string
	year     []string
	cause    []string
	reaction []float64
	times    []time.Time

	// Inverted indexes: lower-cased column value → ascending row ids.
	byMfr      map[string][]int
	byTag      map[string][]int
	byCategory map[string][]int
}

func (s *sliceSource) NumRows() int                     { return len(s.mfr) }
func (s *sliceSource) Manufacturer(i int) string        { return s.mfr[i] }
func (s *sliceSource) Vehicle(i int) string             { return s.vehicle[i] }
func (s *sliceSource) ReportYear(i int) string          { return s.year[i] }
func (s *sliceSource) Time(i int) time.Time             { return s.times[i] }
func (s *sliceSource) Cause(i int) string               { return s.cause[i] }
func (s *sliceSource) Tag(i int) string                 { return s.tag[i] }
func (s *sliceSource) Category(i int) string            { return s.category[i] }
func (s *sliceSource) Modality(i int) string            { return s.modality[i] }
func (s *sliceSource) Road(i int) string                { return s.road[i] }
func (s *sliceSource) Weather(i int) string             { return s.weather[i] }
func (s *sliceSource) ReactionSeconds(i int) float64    { return s.reaction[i] }
func (s *sliceSource) ManufacturerIDs(key string) []int { return s.byMfr[key] }
func (s *sliceSource) TagIDs(key string) []int          { return s.byTag[key] }
func (s *sliceSource) CategoryIDs(key string) []int     { return s.byCategory[key] }

// errNoDatabase is what a bare-frame engine answers for the analyses that
// need the study's other tables.
var errNoDatabase = errors.New("query: engine has no database (built from a bare frame)")

func (s *sliceSource) Exposure() (*core.Exposure, error) {
	if s.db == nil {
		return nil, errNoDatabase
	}
	return s.db.Exposure(), nil
}

func (s *sliceSource) Accidents() ([]schema.Accident, error) {
	if s.db == nil {
		return nil, errNoDatabase
	}
	return s.db.Accidents, nil
}

// New builds an engine over the database's events (via EventsFrame).
func New(db *core.DB) (*Engine, error) {
	if db == nil {
		return nil, errors.New("query: nil database")
	}
	f, err := db.EventsFrame()
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return newFrameEngine(f, db), nil
}

// NewFromFrame builds an engine over an events dataframe (the EventsFrame
// column layout). Missing columns are treated as all-zero, so partial
// frames — tests, external CSV loads — still query; the analyses that need
// the study's other tables (Reliability, Accidents) require New.
func NewFromFrame(f *frame.Frame) (*Engine, error) {
	if f == nil {
		return nil, errors.New("query: nil frame")
	}
	return newFrameEngine(f, nil), nil
}

// newFrameEngine builds the in-heap engine over f and, for New, the
// database f was rendered from.
func newFrameEngine(f *frame.Frame, db *core.DB) *Engine {
	n := f.NumRows()
	s := &sliceSource{
		db:       db,
		mfr:      stringColOrEmpty(f, "manufacturer", n),
		tag:      stringColOrEmpty(f, "tag", n),
		category: stringColOrEmpty(f, "category", n),
		road:     stringColOrEmpty(f, "road", n),
		weather:  stringColOrEmpty(f, "weather", n),
		modality: stringColOrEmpty(f, "modality", n),
		vehicle:  stringColOrEmpty(f, "vehicle", n),
		year:     stringColOrEmpty(f, "reportYear", n),
		cause:    stringColOrEmpty(f, "cause", n),
		reaction: floatColOrZero(f, "reactionSeconds", n),
		times:    timeColOrZero(f, "time", n),
	}
	s.byMfr = buildIndex(s.mfr)
	s.byTag = buildIndex(s.tag)
	s.byCategory = buildIndex(s.category)
	return &Engine{src: s, n: n, db: db, f: f}
}

// NewFromSource builds an engine directly over a Source — typically a
// snapshot2.View serving a memory-mapped study with zero deserialization.
// Listings, counts, accident pages and reliability metrics read the source
// alone. lazyDB, when non-nil, materializes the full failure database on
// first need (Database, for whole paper tables, and the dataframe
// fallbacks: CSV export and group-by over non-indexed columns); it is
// invoked at most once and must return a database consistent with the
// source's rows. With a nil lazyDB those fail the same way a bare-frame
// engine's do.
func NewFromSource(src Source, lazyDB func() (*core.DB, error)) (*Engine, error) {
	if src == nil {
		return nil, errors.New("query: nil source")
	}
	return &Engine{src: src, n: src.NumRows(), lazyDB: lazyDB}, nil
}

// stringColOrEmpty copies the named string column, or zero-fills.
func stringColOrEmpty(f *frame.Frame, name string, n int) []string {
	if data, err := f.StringsCol(name); err == nil {
		return data
	}
	return make([]string, n)
}

// floatColOrZero copies the named float column, or zero-fills.
func floatColOrZero(f *frame.Frame, name string, n int) []float64 {
	if data, err := f.Floats(name); err == nil {
		return data
	}
	return make([]float64, n)
}

// timeColOrZero copies the named time column, or zero-fills.
func timeColOrZero(f *frame.Frame, name string, n int) []time.Time {
	if data, err := f.Times(name); err == nil {
		return data
	}
	return make([]time.Time, n)
}

// buildIndex maps each distinct lower-cased value to its ascending row ids.
func buildIndex(col []string) map[string][]int {
	idx := make(map[string][]int)
	for i, v := range col {
		k := strings.ToLower(v)
		idx[k] = append(idx[k], i)
	}
	return idx
}

// Len returns the total number of events in the engine.
func (e *Engine) Len() int { return e.n }

// DB returns the database the engine was constructed from (New), or nil
// for frame- and source-backed engines. Callers that can accept lazy
// materialization should prefer Database.
func (e *Engine) DB() *core.DB { return e.db }

// Database returns the backing failure database, materializing it on
// first use for source-backed engines (snapshot views decode their tables
// exactly once, here). Engines built from a bare frame have no database
// to give and return an error.
func (e *Engine) Database() (*core.DB, error) {
	if e.db != nil {
		return e.db, nil
	}
	if e.lazyDB == nil {
		return nil, errNoDatabase
	}
	e.dbOnce.Do(func() { e.mdb, e.mdbErr = e.lazyDB() })
	return e.mdb, e.mdbErr
}

// frame returns the engine's events dataframe, materializing it from the
// database on first use for source-backed engines. Only the dataframe
// fallbacks (CSV export, group-by over non-indexed columns) pay this cost.
func (e *Engine) frame() (*frame.Frame, error) {
	if e.f != nil {
		return e.f, nil
	}
	e.frameOnce.Do(func() {
		db, err := e.Database()
		if err != nil {
			e.mframeErr = err
			return
		}
		e.mframe, e.mframeErr = db.EventsFrame()
	})
	return e.mframe, e.mframeErr
}

// eqFold reports whether got matches the predicate want ("" matches all).
func eqFold(got, want string) bool {
	return want == "" || strings.EqualFold(got, want)
}

// plan is a Filter resolved once against an engine: the parsed month
// bounds, the smallest posting list, and only the equality predicates the
// filter sets, each bound to its Source accessor. An unset predicate costs
// nothing per row, and an unbounded month window never reads Time.
type plan struct {
	from, toExcl time.Time
	timed        bool  // either month bound is set
	cands        []int // nil: every row is a candidate
	preds        []pred
}

// pred is one set equality predicate: column accessor and wanted value.
type pred struct {
	col  func(Source, int) string
	want string
}

// plan resolves f against the engine. Malformed month bounds produce a
// *MonthError.
func (e *Engine) plan(f Filter) (plan, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return plan{}, err
	}
	p := plan{from: from, toExcl: toExcl, timed: !from.IsZero() || !toExcl.IsZero(), cands: e.candidates(f)}
	for _, c := range [...]pred{
		{Source.Manufacturer, f.Manufacturer},
		{Source.Tag, f.Tag},
		{Source.Category, f.Category},
		{Source.Road, f.Road},
		{Source.Weather, f.Weather},
		{Source.Modality, f.Modality},
	} {
		if c.want != "" {
			p.preds = append(p.preds, c)
		}
	}
	return p, nil
}

// all reports whether the plan matches every row: nothing is set (an
// indexed predicate is always among preds, so cands is nil too).
func (p *plan) all() bool { return len(p.preds) == 0 && !p.timed }

// match verifies the plan's set predicates and month window against row i.
func (e *Engine) match(p *plan, i int) bool {
	for _, c := range p.preds {
		if !strings.EqualFold(c.col(e.src, i), c.want) {
			return false
		}
	}
	if !p.timed {
		return true
	}
	ts := e.src.Time(i)
	return (p.from.IsZero() || !ts.Before(p.from)) && (p.toExcl.IsZero() || ts.Before(p.toExcl))
}

// each calls fn with every row the plan matches, in ascending order.
func (e *Engine) each(p *plan, fn func(i int)) {
	if p.cands != nil {
		for _, i := range p.cands {
			if e.match(p, i) {
				fn(i)
			}
		}
		return
	}
	for i := 0; i < e.n; i++ {
		if e.match(p, i) {
			fn(i)
		}
	}
}

// ids collects the plan's matching rows.
func (e *Engine) ids(p *plan) []int {
	n := e.n
	if p.cands != nil {
		n = len(p.cands)
	}
	out := make([]int, 0, n)
	e.each(p, func(i int) { out = append(out, i) })
	return out
}

// Select returns the ascending row ids matching the filter. When an indexed
// predicate (manufacturer, tag, category) is present, only the smallest
// matching posting list is walked; remaining predicates are verified per
// candidate. Results are identical to SelectScan by construction.
func (e *Engine) Select(f Filter) ([]int, error) {
	p, err := e.plan(f)
	if err != nil {
		return nil, err
	}
	return e.ids(&p), nil
}

// candidates returns the smallest posting list among the filter's indexed
// predicates, or nil when none is set (forcing a scan). A set predicate
// with no posting list returns an empty, non-nil list: nothing matches.
func (e *Engine) candidates(f Filter) []int {
	var best []int
	found := false
	consider := func(lookup func(string) []int, want string) {
		if want == "" {
			return
		}
		list := lookup(strings.ToLower(want))
		if !found || len(list) < len(best) {
			best, found = list, true
		}
	}
	consider(e.src.ManufacturerIDs, f.Manufacturer)
	consider(e.src.TagIDs, f.Tag)
	consider(e.src.CategoryIDs, f.Category)
	if !found {
		return nil
	}
	if best == nil {
		best = []int{}
	}
	return best
}

// SelectScan returns the matching row ids by scanning every row and
// verifying every predicate, ignoring the inverted indexes and the plan.
// It is the reference implementation that Select, Events, Count, and
// GroupCount are tested against; production callers should use Select.
func (e *Engine) SelectScan(f Filter) ([]int, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, e.n)
	for i := 0; i < e.n; i++ {
		if !eqFold(e.src.Manufacturer(i), f.Manufacturer) ||
			!eqFold(e.src.Tag(i), f.Tag) ||
			!eqFold(e.src.Category(i), f.Category) ||
			!eqFold(e.src.Road(i), f.Road) ||
			!eqFold(e.src.Weather(i), f.Weather) ||
			!eqFold(e.src.Modality(i), f.Modality) {
			continue
		}
		ts := e.src.Time(i)
		if (from.IsZero() || !ts.Before(from)) && (toExcl.IsZero() || ts.Before(toExcl)) {
			out = append(out, i)
		}
	}
	return out, nil
}

// Count returns the number of events matching the filter.
func (e *Engine) Count(f Filter) (int, error) {
	p, err := e.plan(f)
	if err != nil {
		return 0, err
	}
	if p.all() {
		return e.n, nil
	}
	n := 0
	e.each(&p, func(int) { n++ })
	return n, nil
}

// event materializes row i.
func (e *Engine) event(i int) Event {
	return Event{
		Manufacturer:    e.src.Manufacturer(i),
		Vehicle:         e.src.Vehicle(i),
		ReportYear:      e.src.ReportYear(i),
		Time:            e.src.Time(i),
		Cause:           e.src.Cause(i),
		Tag:             e.src.Tag(i),
		Category:        e.src.Category(i),
		Modality:        e.src.Modality(i),
		Road:            e.src.Road(i),
		Weather:         e.src.Weather(i),
		ReactionSeconds: e.src.ReactionSeconds(i),
	}
}

// window returns the [start, end) slice of total matches that page p
// covers, with p.Offset already clamped to >= 0. It never computes
// Offset+Limit, so an Offset of math.MaxInt cannot overflow.
func window(total int, p Page) (start, end int) {
	start, end = min(p.Offset, total), total
	if p.Limit > 0 && p.Limit < end-start {
		end = start + p.Limit
	}
	return start, end
}

// Events returns one page of matching events plus the match total. An
// offset at or past the total yields an empty (non-nil) page. Matches
// stream through the plan: only the rows inside the page are
// materialized, and a filter with nothing set reads its page directly.
func (e *Engine) Events(f Filter, pg Page) (EventPage, error) {
	p, err := e.plan(f)
	if err != nil {
		return EventPage{}, err
	}
	pg.Offset = max(pg.Offset, 0)
	page := EventPage{Offset: pg.Offset, Limit: pg.Limit}
	if p.all() {
		start, end := window(e.n, pg)
		page.Total = e.n
		page.Events = make([]Event, 0, end-start)
		for i := start; i < end; i++ {
			page.Events = append(page.Events, e.event(i))
		}
		return page, nil
	}
	page.Events = []Event{}
	if room := e.n - pg.Offset; pg.Limit > 0 && room > 0 {
		page.Events = make([]Event, 0, min(pg.Limit, room))
	}
	e.each(&p, func(i int) {
		if k := page.Total - pg.Offset; k >= 0 && (pg.Limit <= 0 || k < pg.Limit) {
			page.Events = append(page.Events, e.event(i))
		}
		page.Total++
	})
	return page, nil
}

// AccidentPage is one page of matching accident reports plus the match
// total.
type AccidentPage struct {
	Total     int               `json:"total"`
	Offset    int               `json:"offset"`
	Limit     int               `json:"limit"`
	Accidents []schema.Accident `json:"accidents"`
}

// Accidents returns one page of the study's accident reports matching the
// filter. Accident reports carry no tag/category/road/weather/modality
// context, so only the Manufacturer, From, and To predicates apply; the
// other filter fields are ignored. Pagination follows Events: negative
// offsets clamp to 0, Limit <= 0 means unlimited, and an offset at or past
// the total yields an empty (non-nil) page. The reports come from the
// engine's source, so a mapped snapshot view decodes its accident columns
// and nothing else; an engine built from a bare frame has none and fails.
func (e *Engine) Accidents(f Filter, p Page) (AccidentPage, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return AccidentPage{}, err
	}
	rows, err := e.src.Accidents()
	if err != nil {
		return AccidentPage{}, err
	}
	matched := make([]schema.Accident, 0, len(rows))
	for _, a := range rows {
		if !eqFold(string(a.Manufacturer), f.Manufacturer) {
			continue
		}
		if !from.IsZero() && a.Time.Before(from) {
			continue
		}
		if !toExcl.IsZero() && !a.Time.Before(toExcl) {
			continue
		}
		matched = append(matched, a)
	}
	p.Offset = max(p.Offset, 0)
	start, end := window(len(matched), p)
	page := AccidentPage{Total: len(matched), Offset: p.Offset, Limit: p.Limit}
	page.Accidents = matched[start:end]
	return page, nil
}

// Frame returns the matching rows as a dataframe (for CSV export and
// frame-level post-processing). Source-backed engines materialize their
// dataframe on first use.
func (e *Engine) Frame(f Filter) (*frame.Frame, error) {
	ids, err := e.Select(f)
	if err != nil {
		return nil, err
	}
	fr, err := e.frame()
	if err != nil {
		return nil, err
	}
	return fr.Take(ids)
}

// GroupColumns lists the group-by columns the engine answers from its
// typed column cache. Other columns fall back to the dataframe layer.
func GroupColumns() []string {
	return []string{"manufacturer", "tag", "category", "road", "weather", "modality", "month"}
}

// groupColumns is the full set of columns GroupCount accepts: the typed
// GroupColumns plus the EventsFrame columns the dataframe fallback can
// group (core.DB.EventsFrame owns that list).
var groupColumns = map[string]bool{
	"manufacturer": true, "tag": true, "category": true, "road": true,
	"weather": true, "modality": true, "month": true,
	"vehicle": true, "reportYear": true, "cause": true,
	"time": true, "reactionSeconds": true,
}

// IsGroupColumn reports whether by is a column GroupCount can group by.
// The server checks ?by= with it while parsing the request, before the
// study is resolved: a garbage ?by= must fail in microseconds, not after
// a full pipeline run.
func IsGroupColumn(by string) bool { return groupColumns[by] }

// GroupCount counts matching events per value of the named column, most
// frequent first (ties broken by key). "month" groups by the event's
// "YYYY-MM"; any other column present in the underlying frame (e.g.
// "cause") is grouped through the dataframe layer.
func (e *Engine) GroupCount(f Filter, by string) ([]GroupCount, error) {
	p, err := e.plan(f)
	if err != nil {
		return nil, err
	}
	var key func(i int) string
	switch by {
	case "manufacturer":
		key = e.src.Manufacturer
	case "tag":
		key = e.src.Tag
	case "category":
		key = e.src.Category
	case "road":
		key = e.src.Road
	case "weather":
		key = e.src.Weather
	case "modality":
		key = e.src.Modality
	case "month":
		key = func(i int) string { return e.src.Time(i).Format("2006-01") }
	default:
		return e.groupCountFrame(e.ids(&p), by)
	}
	counts := make(map[string]int)
	e.each(&p, func(i int) { counts[key(i)]++ })
	return sortedGroups(counts), nil
}

// groupCountFrame groups arbitrary frame columns via frame.GroupBy.
func (e *Engine) groupCountFrame(ids []int, by string) ([]GroupCount, error) {
	fr, err := e.frame()
	if err != nil {
		return nil, err
	}
	sub, err := fr.Take(ids)
	if err != nil {
		return nil, err
	}
	groups, err := sub.GroupBy(by)
	if err != nil {
		return nil, &ColumnError{Column: by, Err: err}
	}
	counts := make(map[string]int, len(groups))
	for _, g := range groups {
		counts[g.Key[0]] = g.Frame.NumRows()
	}
	return sortedGroups(counts), nil
}

// sortedGroups orders buckets by descending count, then ascending key.
func sortedGroups(counts map[string]int) []GroupCount {
	out := make([]GroupCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, GroupCount{Key: k, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
