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
// (NewFromView), so every study answers through the same code. The View's
// inverted indexes (manufacturer/tag/category value → row ids) let
// equality-filtered queries walk only the smallest matching posting list
// instead of scanning every row. Each query plans its Filter once: the
// month bounds are parsed, the posting list is chosen, and only the
// predicates the filter sets are tested per row, so an unset predicate
// costs nothing. Events, Count, and GroupCount stream matches through that
// plan without building a row-id slice; Events materializes only the rows
// inside its page, and a filter with nothing set reads its page directly.
// SelectScan is the full-scan reference implementation the tests hold
// every answer equal to.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"avfda/internal/core"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
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
	return &Engine{v: v}, nil
}

// NewFromView builds an engine over an open View, typically a mapped
// study file. The caller keeps ownership of v: the engine must not be used
// after v is closed.
func NewFromView(v *snapshot2.View) *Engine { return &Engine{v: v} }

// WriteSeed persists the study the engine reads as the canonical v2 file
// for seed under dir and returns its payload checksum
// (snapshot2.View.WriteSeed).
func (e *Engine) WriteSeed(dir string, seed int64) (uint32, error) {
	return e.v.WriteSeed(dir, seed)
}

// Len returns the total number of events in the engine.
func (e *Engine) Len() int { return e.v.NumRows() }

// eqFold reports whether got matches the predicate want ("" matches all).
func eqFold(got, want string) bool {
	return want == "" || strings.EqualFold(got, want)
}

// plan is a Filter resolved once against an engine: the parsed month
// bounds, the smallest posting list, and only the equality predicates the
// filter sets, each bound to its View accessor. An unset predicate costs
// nothing per row, and an unbounded month window never reads Time.
type plan struct {
	from, toExcl time.Time
	timed        bool  // either month bound is set
	cands        []int // nil: every row is a candidate
	preds        []pred
}

// pred is one set equality predicate: column accessor and wanted value.
type pred struct {
	col  func(*snapshot2.View, int) string
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
		{(*snapshot2.View).Manufacturer, f.Manufacturer},
		{(*snapshot2.View).Tag, f.Tag},
		{(*snapshot2.View).Category, f.Category},
		{(*snapshot2.View).Road, f.Road},
		{(*snapshot2.View).Weather, f.Weather},
		{(*snapshot2.View).Modality, f.Modality},
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
		if !strings.EqualFold(c.col(e.v, i), c.want) {
			return false
		}
	}
	if !p.timed {
		return true
	}
	ts := e.v.Time(i)
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
	for i := range e.Len() {
		if e.match(p, i) {
			fn(i)
		}
	}
}

// ids collects the plan's matching rows.
func (e *Engine) ids(p *plan) []int {
	n := e.Len()
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
	consider(e.v.ManufacturerIDs, f.Manufacturer)
	consider(e.v.TagIDs, f.Tag)
	consider(e.v.CategoryIDs, f.Category)
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
		start, end := window(e.Len(), pg)
		page.Total = e.Len()
		page.Events = make([]Event, 0, end-start)
		for i := start; i < end; i++ {
			page.Events = append(page.Events, e.event(i))
		}
		return page, nil
	}
	page.Events = []Event{}
	if room := e.Len() - pg.Offset; pg.Limit > 0 && room > 0 {
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
