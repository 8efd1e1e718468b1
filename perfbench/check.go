package main

import (
	"fmt"
	"strconv"
	"strings"

	"icdb/internal/icdb"
)

// checkReply checks one command's reply rows. It returns the
// implementation names a find reply claims, which the caller verifies
// exist once the measured phase is over.
func checkReply(m *manifest, c command, rows []string) (names []string, err error) {
	switch c.kind {
	case kindFind:
		return checkFind(m, c, rows)
	case kindPareto:
		return nil, checkPareto(c, rows)
	case kindExplore:
		if len(rows) != c.want.points+1 || !strings.HasPrefix(rows[len(rows)-1], fmt.Sprintf("explored %d design point(s)", c.want.points)) {
			return nil, fmt.Errorf("explore reply %q", rows)
		}
	case kindExpand:
		if len(rows) == 0 {
			return nil, fmt.Errorf("expand %s: empty network", c.want.design)
		}
	}
	return nil, nil
}

// rankedRow is the part of a find row the checks read.
type rankedRow struct {
	name string
	cost float64
	tok  string // the cost as printed
}

// parseFindRow parses "N. name component width a..b area x delay y cost z".
func parseFindRow(line string) (rankedRow, error) {
	f := strings.Fields(line)
	if len(f) < 10 || f[len(f)-2] != "cost" {
		return rankedRow{}, fmt.Errorf("malformed find row %q", line)
	}
	tok := f[len(f)-1]
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return rankedRow{}, fmt.Errorf("find row %q: cost: %v", line, err)
	}
	return rankedRow{name: f[1], cost: v, tok: tok}, nil
}

// checkFind checks a ranked find: at most limit rows in ascending cost
// order and, where an oracle exists, exactly its names and costs.
func checkFind(m *manifest, c command, rows []string) ([]string, error) {
	if len(rows) == 1 && rows[0] == "no matching implementations" {
		rows = nil
	}
	if len(rows) > c.want.limit {
		return nil, fmt.Errorf("find returned %d rows, limit %d", len(rows), c.want.limit)
	}
	var names []string
	prev := -1.0
	for i, line := range rows {
		r, err := parseFindRow(line)
		if err != nil {
			return nil, err
		}
		if r.cost < prev {
			return nil, fmt.Errorf("find row %d cost %g after %g: not ascending", i+1, r.cost, prev)
		}
		prev = r.cost
		names = append(names, r.name)
		if c.want.exact {
			exp := m.Oracle[c.want.query]
			if i >= len(exp) || exp[i].Name != r.name || strconv.FormatFloat(exp[i].Cost, 'g', -1, 64) != r.tok {
				return nil, fmt.Errorf("find %q row %d = %s cost %s, oracle %v", c.text, i+1, r.name, r.tok, exp)
			}
		}
	}
	if c.want.exact && len(rows) != len(m.Oracle[c.want.query]) {
		return nil, fmt.Errorf("find %q returned %d rows, oracle %d", c.text, len(rows), len(m.Oracle[c.want.query]))
	}
	return names, nil
}

// checkPareto checks a frontier reply: at most limit rows, ascending
// area, and no returned point dominated by another (icdb.CheckFrontier
// over the rows as the claimed frontier).
func checkPareto(c command, rows []string) error {
	if len(rows) == 1 && strings.HasPrefix(rows[0], "no explored design points") {
		return nil
	}
	if len(rows) > c.want.limit {
		return fmt.Errorf("pareto returned %d rows, limit %d", len(rows), c.want.limit)
	}
	pts := make([]icdb.Exploration, 0, len(rows))
	for i, line := range rows {
		f := strings.Fields(line)
		// "N. gen[bindings] Component width W area A delay D cost C"
		if len(f) != 11 || f[3] != "width" || f[5] != "area" || f[7] != "delay" {
			return fmt.Errorf("malformed pareto row %q", line)
		}
		area, err1 := strconv.ParseFloat(f[6], 64)
		delay, err2 := strconv.ParseFloat(f[8], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("pareto row %q: bad area/delay", line)
		}
		if i > 0 && area < pts[i-1].Area {
			return fmt.Errorf("pareto row %d area %g after %g: not ascending", i+1, area, pts[i-1].Area)
		}
		gen, bindings, _ := strings.Cut(strings.TrimSuffix(f[1], "]"), "[")
		pts = append(pts, icdb.Exploration{Generator: gen, Bindings: bindings, Area: area, Delay: delay})
	}
	frontier := make([]bool, len(pts))
	for i := range frontier {
		frontier[i] = true
	}
	return icdb.CheckFrontier(pts, frontier)
}
