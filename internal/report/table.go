// Package report renders the analysis results of package core into the
// paper's tables and figures: aligned text tables and ASCII charts for the
// terminal (the source of truth for EXPERIMENTS.md), and SVG for richer
// viewing. Rendering is pure: every function maps data to strings/bytes.
package report

import (
	"fmt"
	"strings"
)

// Align selects column alignment in a text table.
type Align int

// Column alignments.
const (
	Left Align = iota
	Right
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Aligns  []Align // optional; defaults to Left
	Rows    [][]string
	// Notes are printed under the table, one per line, prefixed "note:".
	Notes []string
}

// AddRow appends a row, converting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Render draws the table with box-drawing rules.
func (t *Table) Render() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if w := len([]rune(c)); w > widths[i] {
				widths[i] = w
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	align := func(i int) Align {
		if i < len(t.Aligns) {
			return t.Aligns[i]
		}
		return Left
	}
	pad := func(s string, i int) string {
		w := widths[i]
		gap := w - len([]rune(s))
		if gap <= 0 {
			return s
		}
		if align(i) == Right {
			return strings.Repeat(" ", gap) + s
		}
		return s + strings.Repeat(" ", gap)
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	rule := func() {
		for i := 0; i < cols; i++ {
			sb.WriteString("+")
			sb.WriteString(strings.Repeat("-", widths[i]+2))
		}
		sb.WriteString("+\n")
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			sb.WriteString("| ")
			sb.WriteString(pad(cell, i))
			sb.WriteString(" ")
		}
		sb.WriteString("|\n")
	}
	rule()
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		rule()
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	rule()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Dash renders negative sentinel values as the paper's dash.
func Dash(v float64, format string) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// DashInt renders negative counts as a dash.
func DashInt(v int) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}
