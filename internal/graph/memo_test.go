package graph_test

import (
	"encoding/json"
	"testing"

	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/persist"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// TestFingerprintMemoMatchesRecompute pins the memoized fingerprint
// against a fresh hash for every way a graph enters the process: zoo
// builds, blockwise and exhaustive TRNs (built through SubgraphBuilder),
// graphs restored from a state snapshot and graphs decoded from the
// gateway's JSON wire format. A mismatch means some constructor changed
// a graph after it was fingerprinted — exactly what the immutability
// contract in the Graph doc forbids.
func TestFingerprintMemoMatchesRecompute(t *testing.T) {
	check := func(what string, g *graph.Graph) {
		t.Helper()
		memo := graph.Fingerprint(g)
		if again := graph.Fingerprint(g); again != memo {
			t.Fatalf("%s: memo changed between calls: %016x then %016x", what, memo, again)
		}
		if fresh := graph.FingerprintUncached(g); fresh != memo {
			t.Fatalf("%s: memo %016x != fresh hash %016x", what, memo, fresh)
		}
	}
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	for _, g := range zoo.ExtendedZoo() {
		check(g.Name, g)

		blockwise, err := trim.EnumerateBlockwise(g, trim.DefaultHead, true)
		if err != nil {
			t.Fatal(err)
		}
		exhaustive, err := trim.EnumerateExhaustive(g, trim.DefaultHead)
		if err != nil {
			t.Fatal(err)
		}
		for _, trn := range append(blockwise, exhaustive...) {
			check(trn.Name(), trn.Graph)
		}

		st := persist.EncodeGraph(g)
		restored, err := persist.DecodeGraph(&st)
		if err != nil {
			t.Fatal(err)
		}
		check(g.Name+" (restored)", restored)
		if graph.Fingerprint(restored) != graph.Fingerprint(g) {
			t.Fatalf("%s: restored graph fingerprints differently", g.Name)
		}

		raw, err := json.Marshal(gateway.EncodeGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		var w gateway.GraphWire
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatal(err)
		}
		decoded, err := gateway.DecodeGraph(&w)
		if err != nil {
			t.Fatal(err)
		}
		check(g.Name+" (wire)", decoded)
		if graph.Fingerprint(decoded) != graph.Fingerprint(g) {
			t.Fatalf("%s: wire-decoded graph fingerprints differently", g.Name)
		}
	}
}
