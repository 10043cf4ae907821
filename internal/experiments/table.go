// Package experiments implements experiments E1–E11, each reproducing one
// question the paper's §3.3.1 ("fairness check benchmarks"), §4.1
// (objective validation measures), or §4.2 (research agenda: assess the
// discriminatory power of existing algorithms) poses. Every experiment
// returns a Table; `crowdfair experiments` prints them as markdown, and the
// committed EXPERIMENTS.md is that output at seed 42, pinned cell by cell
// by TestAllProducesElevenTables. bench_test.go wraps the same entry
// points in testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result grid.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes the experiment and its paper anchor.
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold pre-formatted cells, parallel to Columns.
	Rows [][]string
	// Notes carry the expected-shape commentary printed under the table.
	Notes []string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as a markdown section: a heading, a pipe table
// and the notes as a paragraph. Cells are not padded, so a cell whose
// width changes between runs (a wall-clock time) leaves every other cell
// of its row byte-identical.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	b.WriteString(strings.Repeat("| --- ", len(t.Columns)) + "|\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n" + strings.Join(t.Notes, "\n") + "\n")
	}
	return b.String()
}

// All runs every experiment at its default scale with the given seed and
// returns the tables in order.
func All(seed uint64) []*Table {
	specs := Specs()
	out := make([]*Table, len(specs))
	for i, s := range specs {
		out[i] = s.Run(seed)
	}
	return out
}

// Markdown renders tables as one document: a header naming the seed and
// the command that regenerates it, then every table in order.
func Markdown(seed uint64, tables []*Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Experiments\n\n"+
		"E1–E11 at seed %d, as printed by `go run ./cmd/crowdfair experiments -seed %d`.\n"+
		"Every cell is a function of the seed alone except the wall-clock columns\n"+
		"(times, rates and speedups in E7, E8 and E11), which vary from run to run.\n", seed, seed)
	for _, t := range tables {
		b.WriteString("\n" + t.String())
	}
	return b.String()
}
