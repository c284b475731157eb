// Package experiment implements the reproduction experiments E1–E12, one
// per theorem/corollary/application claim of Feng & Yin, PODC 2018 (see
// README.md). Each experiment returns a structured table whose rows mirror
// what the paper's claims predict (round-complexity shapes, error bounds,
// acceptance rates, decay rates, and the uniqueness phase transition), so
// the same code backs the lbench CLI and the root-level testing.B
// benchmarks.
package experiment

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result: a header, column names and rows.
type Table struct {
	// ID is the experiment identifier (E1..E10).
	ID string
	// Title describes the claim being reproduced.
	Title string
	// Claim is the paper's prediction, quoted for the report.
	Claim string
	// Columns are the column names.
	Columns []string
	// Rows are the result rows, one formatted cell per column.
	Rows [][]string
	// Notes collects free-form observations (e.g. fitted exponents).
	Notes []string
}

// String renders the table in a fixed-width layout.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f formats a float compactly for table cells.
func f(x float64) string { return fmt.Sprintf("%.4g", x) }

// d formats an int for table cells.
func d(x int) string { return fmt.Sprintf("%d", x) }
