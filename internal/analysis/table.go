// Package analysis is the experiment harness: it runs the protocol
// configurations behind every table and figure of the paper's evaluation
// (and the theory-validation experiments DESIGN.md adds) and formats the
// results as plain-text tables.
package analysis

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells, one per header. It is the
// one place a row's width is checked, so Render and RenderJSON always see
// the same rectangular table; a mismatch is a bug in the calling
// experiment and panics.
func (t *Table) AddRow(cells ...any) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("analysis: table %q: row of %d cells under %d headers", t.Title, len(cells), len(t.Headers)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RenderJSON returns the table as a machine-readable JSON document —
// the title, the header list, and one cell array per row aligned with
// the headers (cell values keep Render's string formatting) — so CI can
// track experiment output across commits without scraping aligned text.
// Rows stay arrays rather than header-keyed objects: an object would
// silently drop cells under duplicate header names, truncating exactly
// the artifact CI relies on.
func (t *Table) RenderJSON() string {
	type doc struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	b, err := json.MarshalIndent(doc{Title: t.Title, Headers: t.Headers, Rows: rows}, "", "  ")
	if err != nil {
		// Impossible: the document is strings all the way down.
		panic(fmt.Sprintf("analysis: table JSON: %v", err))
	}
	return string(b) + "\n"
}
