package bench

import (
	"strconv"
	"testing"
)

// hierOpts: quick scale, the paper's unscaled Ethernet, and the twins'
// default heavy compute — the regime whose crossover the shape test
// pins. (virtualOpts would override ComputeCost and flatten it; the
// twins always run virtually anyway.)
func hierOpts() Options {
	return Options{Quick: true, Seed: 7}
}

func cellInt(t *testing.T, tab *Table, row int, col string) int64 {
	t.Helper()
	s, err := tab.Cell(row, col)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("cell %q not an integer: %v", s, err)
	}
	return v
}

// TestTableHierStaticShape pins the crossover the hierarchy-aware cut
// exists for: on the uniform network the flat cut's better balance
// wins (speedup < 1), on the slowed inter-group link the hierarchical
// cut wins (speedup > 1), and its slow-link byte footprint is a tiny
// fraction of the flat cut's at every scale.
func TestTableHierStaticShape(t *testing.T) {
	tab, err := TableHierStatic(hierOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("%d rows, want at least the uniform and slowed scales", len(tab.Rows))
	}
	first := cellSeconds(t, tab, 0, "Speedup")
	last := cellSeconds(t, tab, len(tab.Rows)-1, "Speedup")
	if first >= 1 {
		t.Errorf("uniform network: hierarchical cut should lose on balance, got speedup %.2f", first)
	}
	if last <= 1 {
		t.Errorf("slowed inter-group link: hierarchical cut should win, got speedup %.2f", last)
	}
	for row := range tab.Rows {
		flat := cellInt(t, tab, row, "Flat slow-link bytes")
		hier := cellInt(t, tab, row, "Hier slow-link bytes")
		if hier*10 >= flat {
			t.Errorf("row %d: hierarchical cut's slow-link bytes %d not <10%% of flat's %d", row, hier, flat)
		}
	}
}
