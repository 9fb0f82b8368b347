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
// A study has one in-memory form: the snapshot2 columnar layout. An Engine
// reads it through a snapshot2.View, over heap bytes for a freshly built
// study (New) and over a mapped file for a restarted or peer-fetched one
// (NewFromView), so every study answers through the same code. Each query
// plans its Filter once: the month bounds become limits on the seconds
// column, and each set predicate is bound to its column of codes (string
// ids for the manufacturer, enum values for the rest), deciding the
// case-insensitive match once per distinct code. Matching is then one scan
// of integer compares over the rows, and an unset predicate costs nothing.
// Events, Count, and GroupCount stream matches through that plan without
// building a row-id slice; Events materializes only the rows inside its
// page, and a filter with nothing set reads its page directly.
// AppendEventsJSON walks the same page and writes it as JSON straight
// from the columns, byte-identical to encoding/json over Events; it is how
// the serving layer writes disengagement pages. SelectScan is the
// string-comparing reference implementation the tests hold every answer
// equal to.
package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"avfda/internal/core"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
)

// Filter is one conjunctive query over the failure database: every
// non-empty field must match (string matches are case-insensitive, as
// strings.EqualFold compares them).
type Filter struct {
	// Manufacturer, Tag, Category, Road, Weather, and Modality are
	// equality predicates on the event's display values.
	Manufacturer string
	Tag          string
	Category     string
	Road         string
	Weather      string
	Modality     string
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
// (a group-by over an unknown column). It mirrors MonthError so transports
// can classify it as client input error with errors.As instead of
// matching message text.
type ColumnError struct {
	// Column is the rejected column name.
	Column string
	// Err is the underlying cause.
	Err error
}

// Error implements the error interface.
func (e *ColumnError) Error() string {
	return fmt.Sprintf("group by %q: %v", e.Column, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *ColumnError) Unwrap() error { return e.Err }

// PredicateError reports a filter predicate a listing cannot apply:
// accident reports carry no tag, category, road, weather or modality.
type PredicateError struct {
	// Field is the predicate's parameter name, as avquery's flags and
	// avserve's query parameters spell it ("tag", "road", ...).
	Field string
}

// Error implements the error interface.
func (e *PredicateError) Error() string {
	return fmt.Sprintf("accidents cannot be filtered by %s: accident reports carry no %s", e.Field, e.Field)
}

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

// ValidateAccidents checks the filter for an accident listing: only
// Manufacturer, From and To apply, so any other set predicate is a
// *PredicateError, and the month bounds are checked as Validate checks
// them. It is the one place that decides which predicates accident
// listings accept.
func (f Filter) ValidateAccidents() error {
	for _, p := range [...]struct{ field, value string }{
		{"tag", f.Tag}, {"category", f.Category}, {"road", f.Road},
		{"weather", f.Weather}, {"modality", f.Modality},
	} {
		if p.value != "" {
			return &PredicateError{Field: p.field}
		}
	}
	return f.Validate()
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

// Engine answers queries over one study's failure database. Every engine
// reads the study through a snapshot2.View: New encodes a freshly built
// database into the v2 layout and views those heap bytes, and NewFromView
// wraps a View already open over a mapped file, so fresh and restarted
// studies run the same code. Build it once and share it freely: all
// methods are read-only and safe for concurrent use.
type Engine struct {
	v *snapshot2.View
	// clean records, per string id, that the string needs no JSON
	// escaping (see appendString); it is filled lazily.
	clean []atomic.Bool
}

// New encodes db in the snapshot2 layout and builds an engine over a View
// of those bytes.
func New(db *core.DB) (*Engine, error) {
	if db == nil {
		return nil, errors.New("query: nil database")
	}
	data, err := snapshot2.Encode(db)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	v, err := snapshot2.NewView(data)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return NewFromView(v), nil
}

// NewFromView builds an engine over an open View, typically a mapped
// study file. The caller keeps ownership of v: the engine must not be used
// after v is closed.
func NewFromView(v *snapshot2.View) *Engine {
	return &Engine{v: v, clean: make([]atomic.Bool, v.NumStrings())}
}

// WriteSeed persists the study the engine reads as the canonical v2 file
// for seed under dir and returns its payload checksum
// (snapshot2.View.WriteSeed).
func (e *Engine) WriteSeed(dir string, seed int64) (uint32, error) {
	return e.v.WriteSeed(dir, seed)
}

// Answer returns the status and content type of the study's stored answer
// in slot s (snapshot2.View.Answer).
func (e *Engine) Answer(s snapshot2.Slot) (status int, contentType string) { return e.v.Answer(s) }

// AppendAnswer appends the body of the study's stored answer in slot s to
// dst (snapshot2.View.AppendAnswer).
func (e *Engine) AppendAnswer(dst []byte, s snapshot2.Slot) []byte { return e.v.AppendAnswer(dst, s) }

// Len returns the total number of events in the engine.
func (e *Engine) Len() int { return e.v.NumRows() }

// eqFold reports whether got matches the predicate want ("" matches all).
func eqFold(got, want string) bool {
	return want == "" || strings.EqualFold(got, want)
}

// plan is a Filter resolved once against an engine: each set equality
// predicate bound to its column of codes, and the month bounds as
// inclusive limits on the whole-seconds time column. Row matching is one
// loop of integer compares: an unset predicate costs nothing per row, and
// an unbounded month window never reads the time column.
type plan struct {
	preds  []codePred
	lo, hi int64 // inclusive Unix-second bounds, math.MinInt64/MaxInt64 when open
	timed  bool  // either month bound is set
}

// enumCodes bounds the enum codes a predicate memoizes. Every defined
// code of the ontology and schema enums lies below it; a code outside it,
// which only a crafted file holds, is rendered on every row instead.
const enumCodes = 64

// codePred is one set equality predicate over a code column. A row
// matches when its code's display string EqualFolds want, exactly as
// SelectScan compares it. The decision is made once per code and kept in
// memo, which holds every string id for the manufacturer and enumCodes
// codes for the rest; a plan must therefore not be shared between
// goroutines.
type codePred struct {
	col  snapshot2.Column
	want string
	memo []byte // per code: 0 undecided, else yes or no
}

// Memoized decisions.
const (
	yes byte = 1 + iota
	no
)

// decide renders code k, compares it with want, and memoizes the answer
// when k lies within memo.
func (c *codePred) decide(v *snapshot2.View, k int64) byte {
	m := no
	if strings.EqualFold(v.Render(c.col, k), c.want) {
		m = yes
	}
	if uint64(k) < uint64(len(c.memo)) {
		c.memo[k] = m
	}
	return m
}

// plan resolves f against the engine. Malformed month bounds produce a
// *MonthError. The bounds are UTC month starts with zero nanoseconds and
// the View keeps nanoseconds within [0, 1s), so comparing whole seconds
// decides the window exactly as comparing times does.
func (e *Engine) plan(f Filter) (plan, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return plan{}, err
	}
	p := plan{lo: math.MinInt64, hi: math.MaxInt64}
	if !from.IsZero() {
		p.lo, p.timed = from.Unix(), true
	}
	if !toExcl.IsZero() {
		p.hi, p.timed = toExcl.Unix()-1, true
	}
	for _, c := range [...]struct {
		col  snapshot2.Column
		want string
	}{
		{snapshot2.ColManufacturer, f.Manufacturer},
		{snapshot2.ColTag, f.Tag},
		{snapshot2.ColCategory, f.Category},
		{snapshot2.ColRoad, f.Road},
		{snapshot2.ColWeather, f.Weather},
		{snapshot2.ColModality, f.Modality},
	} {
		if c.want == "" {
			continue
		}
		n := enumCodes
		if c.col == snapshot2.ColManufacturer {
			n = e.v.NumStrings()
		}
		p.preds = append(p.preds, codePred{col: c.col, want: c.want, memo: make([]byte, n)})
	}
	return p, nil
}

// all reports whether the plan matches every row: nothing is set.
func (p *plan) all() bool { return len(p.preds) == 0 && !p.timed }

// each calls fn with every row the plan matches, in ascending order: one
// loop of integer compares, where a code's first sight renders it once.
func (e *Engine) each(p *plan, fn func(i int)) {
rows:
	for i := range e.Len() {
		for k := range p.preds {
			c := &p.preds[k]
			code, m := e.v.Code(c.col, i), byte(0)
			if uint64(code) < uint64(len(c.memo)) {
				m = c.memo[code]
			}
			if m == 0 {
				m = c.decide(e.v, code)
			}
			if m != yes {
				continue rows
			}
		}
		if p.timed {
			if s := e.v.TimeUnix(i); s < p.lo || s > p.hi {
				continue
			}
		}
		fn(i)
	}
}

// Select returns the ascending row ids matching the filter, through the
// same plan and row loop as Events, Count and GroupCount. It returns what
// SelectScan returns; the tests hold the two equal.
func (e *Engine) Select(f Filter) ([]int, error) {
	p, err := e.plan(f)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, e.Len())
	e.each(&p, func(i int) { out = append(out, i) })
	return out, nil
}

// SelectScan returns the matching row ids by scanning every row and
// comparing every predicate against the rendered display strings and
// times, without the plan's column codes. It is the reference
// implementation that Select, Events, Count, and GroupCount are tested
// against; production callers should use Select.
func (e *Engine) SelectScan(f Filter) ([]int, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, e.Len())
	for i := range e.Len() {
		if !eqFold(e.v.Manufacturer(i), f.Manufacturer) ||
			!eqFold(e.v.Tag(i), f.Tag) ||
			!eqFold(e.v.Category(i), f.Category) ||
			!eqFold(e.v.Road(i), f.Road) ||
			!eqFold(e.v.Weather(i), f.Weather) ||
			!eqFold(e.v.Modality(i), f.Modality) {
			continue
		}
		ts := e.v.Time(i)
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
		return e.Len(), nil
	}
	n := 0
	e.each(&p, func(int) { n++ })
	return n, nil
}

// event materializes row i.
func (e *Engine) event(i int) Event {
	return Event{
		Manufacturer:    e.v.Manufacturer(i),
		Vehicle:         e.v.Vehicle(i),
		ReportYear:      e.v.ReportYear(i),
		Time:            e.v.Time(i),
		Cause:           e.v.Cause(i),
		Tag:             e.v.Tag(i),
		Category:        e.v.Category(i),
		Modality:        e.v.Modality(i),
		Road:            e.v.Road(i),
		Weather:         e.v.Weather(i),
		ReactionSeconds: e.v.ReactionSeconds(i),
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

// pageRows is the one walk behind Events and AppendEventsJSON: it plans f
// and calls fn with each matching row inside pg, in ascending order. It
// returns the match total and pg with its offset clamped to >= 0. Matches
// stream through the plan, so only the page's rows reach fn, and a filter
// with nothing set reads its page directly.
func (e *Engine) pageRows(f Filter, pg Page, fn func(i int)) (int, Page, error) {
	p, err := e.plan(f)
	if err != nil {
		return 0, pg, err
	}
	pg.Offset = max(pg.Offset, 0)
	if p.all() {
		start, end := window(e.Len(), pg)
		for i := start; i < end; i++ {
			fn(i)
		}
		return e.Len(), pg, nil
	}
	total := 0
	e.each(&p, func(i int) {
		if k := total - pg.Offset; k >= 0 && (pg.Limit <= 0 || k < pg.Limit) {
			fn(i)
		}
		total++
	})
	return total, pg, nil
}

// Events returns one page of matching events plus the match total. An
// offset at or past the total yields an empty (non-nil) page. Only the
// rows inside the page are materialized.
func (e *Engine) Events(f Filter, pg Page) (EventPage, error) {
	rows := []Event{}
	if pg.Limit > 0 {
		start, end := window(e.Len(), Page{Offset: max(pg.Offset, 0), Limit: pg.Limit})
		rows = make([]Event, 0, end-start)
	}
	total, pg, err := e.pageRows(f, pg, func(i int) { rows = append(rows, e.event(i)) })
	if err != nil {
		return EventPage{}, err
	}
	return EventPage{Total: total, Offset: pg.Offset, Limit: pg.Limit, Events: rows}, nil
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
// engine ignores the other filter fields, and transports reject them up
// front with ValidateAccidents. Pagination follows Events: negative
// offsets clamp to 0, Limit <= 0 means unlimited, and an offset at or past
// the total yields an empty (non-nil) page. The View decodes its accident
// columns and nothing else.
func (e *Engine) Accidents(f Filter, p Page) (AccidentPage, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return AccidentPage{}, err
	}
	rows, err := e.v.Accidents()
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

// groupKeys renders each group-by column's key for row i. The event
// columns render as core.DB.EventsFrame would: strings as stored, times in
// RFC 3339 with nanoseconds, and reaction times in %g form. "month" is the
// event's "YYYY-MM".
var groupKeys = map[string]func(v *snapshot2.View, i int) string{
	"manufacturer": (*snapshot2.View).Manufacturer,
	"tag":          (*snapshot2.View).Tag,
	"category":     (*snapshot2.View).Category,
	"road":         (*snapshot2.View).Road,
	"weather":      (*snapshot2.View).Weather,
	"modality":     (*snapshot2.View).Modality,
	"month":        func(v *snapshot2.View, i int) string { return v.Time(i).Format("2006-01") },
	"vehicle":      (*snapshot2.View).Vehicle,
	"reportYear":   (*snapshot2.View).ReportYear,
	"cause":        (*snapshot2.View).Cause,
	"time":         func(v *snapshot2.View, i int) string { return v.Time(i).Format(time.RFC3339Nano) },
	"reactionSeconds": func(v *snapshot2.View, i int) string {
		return strconv.FormatFloat(v.ReactionSeconds(i), 'g', -1, 64)
	},
}

// GroupColumns lists the columns GroupCount groups by.
func GroupColumns() []string {
	return []string{"manufacturer", "tag", "category", "road", "weather", "modality", "month",
		"vehicle", "reportYear", "cause", "time", "reactionSeconds"}
}

// IsGroupColumn reports whether by is a column GroupCount can group by.
// The server checks ?by= with it while parsing the request, before the
// study is resolved: a garbage ?by= must fail in microseconds, not after
// a full pipeline run.
func IsGroupColumn(by string) bool { return groupKeys[by] != nil }

// errNoColumn is the cause a *ColumnError carries.
var errNoColumn = errors.New("no such column")

// GroupCount counts matching events per value of the named column, most
// frequent first (ties broken by key). An unknown column is a
// *ColumnError.
func (e *Engine) GroupCount(f Filter, by string) ([]GroupCount, error) {
	p, err := e.plan(f)
	if err != nil {
		return nil, err
	}
	key := groupKeys[by]
	if key == nil {
		return nil, &ColumnError{Column: by, Err: errNoColumn}
	}
	counts := make(map[string]int)
	e.each(&p, func(i int) { counts[key(e.v, i)]++ })
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
