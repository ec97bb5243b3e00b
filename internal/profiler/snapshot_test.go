package profiler

import (
	"errors"
	"strings"
	"testing"

	"netcut/internal/zoo"
)

// TestPrepareTablesRejectsHostileNodeIDs pins the bound on the dense
// node index a restored table is rebuilt with: a snapshot row may not
// size that index (an ID far beyond the entry's row count), go below
// it, or name a node twice. Each is a structured ErrInvalidTable
// rejection, never an allocation or a silently shadowed row.
func TestPrepareTablesRejectsHostileNodeIDs(t *testing.T) {
	rows := func(ids ...int) []TableRowState {
		out := make([]TableRowState, len(ids))
		for i, id := range ids {
			out[i] = TableRowState{NodeID: id, Name: "layer", MeanMs: 0.5}
		}
		return out
	}
	cases := map[string][]TableRowState{
		"duplicate":    rows(1, 2, 2),
		"huge":         rows(1, 1<<40),
		"past entry":   rows(1, 4),
		"negative":     rows(-1, 1),
		"dup of input": rows(0, 0),
	}
	for name, layers := range cases {
		_, err := PrepareTables([]TableState{
			{Key: 1, Network: "ok", EndToEndMs: 1, Layers: rows(1, 2, 3)},
			{Key: 2, Network: "hostile", EndToEndMs: 1, Layers: layers},
		})
		if !errors.Is(err, ErrInvalidTable) {
			t.Errorf("%s: err = %v, want ErrInvalidTable", name, err)
			continue
		}
		if !strings.Contains(err.Error(), "entry 1 (hostile)") {
			t.Errorf("%s: error %q does not name the hostile entry", name, err)
		}
	}
	// The widest legal table: IDs 0..len(rows), one left out.
	if _, err := PrepareTables([]TableState{{Key: 1, Network: "ok", EndToEndMs: 1, Layers: rows(3, 1, 2)}}); err != nil {
		t.Fatalf("legal out-of-order table rejected: %v", err)
	}
}

// TestRestoredTableMatchesProfiled pins the rebuilt index: a table that
// goes through snapshot and restore answers every lookup — and the
// memoized Eq. (1) denominator — exactly as the profiled original.
func TestRestoredTableMatchesProfiled(t *testing.T) {
	p := newProfiler(t, Protocol{WarmupRuns: 10, TimedRuns: 20})
	g, _ := zoo.ByName("MobileNetV2 (1.0)")
	tbl := p.Profile(g)
	prep, err := PrepareTables(p.SnapshotTables())
	if err != nil {
		t.Fatal(err)
	}
	got := prep.entries[0].Val
	for id := -1; id <= len(g.Nodes); id++ {
		a, aok := tbl.LayerMs(id)
		b, bok := got.LayerMs(id)
		if a != b || aok != bok {
			t.Fatalf("node %d: profiled (%v, %v) vs restored (%v, %v)", id, a, aok, b, bok)
		}
	}
	for _, tb := range []*Table{tbl, got, tbl} { // the third call reads the memo
		sum, _, ok := tb.FeatureSumMs(g)
		var want float64
		for _, n := range g.Nodes[1:] {
			if !n.Head {
				ms, _ := tbl.LayerMs(n.ID)
				want += ms
			}
		}
		if !ok || sum != want {
			t.Fatalf("FeatureSumMs = %v, %v; want %v", sum, ok, want)
		}
	}
}
