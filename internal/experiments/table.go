package experiments

import (
	"fmt"
	"strings"
)

// column is one column of a study's table: its header, its width in the
// -fig text (negative: left-aligned; zero: unpadded) and its cell for a row.
// A cell wider than its column prints whole.
type column[R any] struct {
	head  string
	width int
	cell  func(R) string
}

// writeTable prints rows under cols: as the fixed-width -fig text, cells
// padded to their widths one space apart, or as a markdown table of the
// same headers and cells, their padding trimmed.
func writeTable[R any](b *strings.Builder, cols []column[R], rows []R, md bool) {
	line := func(cell func(column[R]) string) {
		for i, c := range cols {
			switch s := cell(c); {
			case md:
				fmt.Fprintf(b, "| %s ", strings.TrimSpace(s))
			case i > 0:
				fmt.Fprintf(b, " %*s", c.width, s)
			default:
				fmt.Fprintf(b, "%*s", c.width, s)
			}
		}
		if md {
			b.WriteString("|")
		}
		b.WriteString("\n")
	}
	line(func(c column[R]) string { return c.head })
	if md {
		b.WriteString(strings.Repeat("|---", len(cols)) + "|\n")
	}
	for _, row := range rows {
		line(func(c column[R]) string { return c.cell(row) })
	}
}
