// Package metrics provides the small reporting toolkit the experiment
// harness uses: derived ratios (gain %, slowdown factor) and fixed-width
// text tables that render each paper figure/table as rows and series.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// GainPercent reports how much faster value is than baseline, in percent
// (the paper's "gains (%) relative to SlowMem-only": 100% gain = 2x).
// Times: smaller is better, so gain = (baseline/value - 1) * 100.
func GainPercent(baselineTime, time float64) float64 {
	if time == 0 {
		return 0
	}
	return (baselineTime/time - 1) * 100
}

// Slowdown reports value/baseline for times (>1 = slower), the paper's
// "slowdown factor relative to FastMem-only".
func Slowdown(baselineTime, time float64) float64 {
	if baselineTime == 0 {
		return 0
	}
	return time / baselineTime
}

// Table renders aligned columns of figure/table data.
type Table struct {
	Title   string
	Caption string
	header  []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends one formatted row; values are Sprint'ed with %v except
// float64, which renders through FormatFloat.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a table value: two decimals for ordinary
// magnitudes, but two significant digits for nonzero values whose
// magnitude is below 0.005 — an unconditional %.2f would collapse
// sub-centisecond latencies and small ratios to "0.00".
func FormatFloat(v float64) string {
	if v != 0 && v < 0.005 && v > -0.005 {
		return fmt.Sprintf("%.2g", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(w, "%s\n", t.Caption)
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for i, h := range t.header {
		fmt.Fprintf(w, "%-*s", widths[i]+2, h)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CheckFormat reports whether format names a table rendering the CLIs
// accept: text, markdown, or csv.
func CheckFormat(format string) error {
	switch format {
	case "text", "markdown", "csv":
		return nil
	}
	return fmt.Errorf("unknown -format %q (want text, markdown, or csv)", format)
}

// RenderAs writes the table in format, which must pass CheckFormat.
func (t *Table) RenderAs(w io.Writer, format string) {
	switch format {
	case "markdown":
		t.RenderMarkdown(w)
	case "csv":
		t.RenderCSV(w)
	default:
		t.Render(w)
	}
}

// RenderMarkdown writes the table as GitHub-flavoured markdown, for
// dropping experiment results straight into documentation.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "**%s**\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(w, "_%s_\n", t.Caption)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.header, " | "))
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
}

// RenderCSV writes the table as CSV (header row first), for plotting
// pipelines. Cells containing commas or quotes are quoted.
func (t *Table) RenderCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
}
