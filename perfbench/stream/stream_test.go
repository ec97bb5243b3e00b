package stream

import (
	"bytes"
	"encoding/json"
	"testing"

	"netcut/internal/device"
	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/zoo"
)

const testN = 200

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range Workloads {
		a, err := Generate(w, 7, testN)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(w, 7, testN)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(concat(a.Warmup), concat(b.Warmup)) || !bytes.Equal(concat(a.Requests), concat(b.Requests)) {
			t.Errorf("%s: seed 7 gave two different streams", w)
		}
		c, err := Generate(w, 8, testN)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(concat(a.Requests), concat(c.Requests)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
}

func concat(rs []Request) []byte {
	var b bytes.Buffer
	for i := range rs {
		b.Write(rs[i].Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestBodiesMatchRequests(t *testing.T) {
	for _, w := range Workloads {
		s, err := Generate(w, 3, testN)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range append(s.Warmup, s.Requests...) {
			var wire gateway.PlanRequestWire
			if err := json.Unmarshal(r.Body, &wire); err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if wire.Network != r.Network || wire.Target != r.Target ||
				wire.DeadlineMs != r.DeadlineMs || wire.Estimator != r.Estimator ||
				(wire.Graph != nil) != (r.Name() != r.Network) {
				t.Fatalf("%s: body %s does not match request %+v", w, r.Body, r)
			}
		}
	}
}

func TestColdGraphsAreValidAndDistinct(t *testing.T) {
	s, err := Generate(ColdGraphs, 5, testN)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	shapes := map[uint64]bool{}
	for _, r := range append(s.Warmup, s.Requests...) {
		g, err := r.Graph()
		if err != nil || g == nil {
			t.Fatalf("cold request %s: graph %v, %v", r.Name(), g, err)
		}
		if err := graph.Validate(g); err != nil {
			t.Fatal(err)
		}
		// The rebuilt graph is the one the body carries.
		var wire gateway.PlanRequestWire
		if err := json.Unmarshal(r.Body, &wire); err != nil {
			t.Fatal(err)
		}
		sent, err := json.Marshal(wire.Graph)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := json.Marshal(gateway.EncodeGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sent, rebuilt) {
			t.Fatalf("%s: rebuilt graph differs from the one sent", g.Name)
		}
		if names[g.Name] {
			t.Fatalf("graph name %q repeats", g.Name)
		}
		names[g.Name] = true
		shapes[graph.Fingerprint(g)] = true
		if len(r.Body) > gateway.DefaultMaxBodyBytes {
			t.Fatalf("%s: body of %d bytes exceeds the service limit", g.Name, len(r.Body))
		}
	}
	if len(shapes) < testN/4 {
		t.Errorf("only %d distinct structures in %d graphs", len(shapes), testN)
	}
}

func TestSweepDeadlinesStraddleParentLatency(t *testing.T) {
	s, err := Generate(DeadlineSweep, 11, testN)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	below, above := 0, 0
	for _, r := range s.Requests {
		cfg, err := device.ProfileByName(r.Target)
		if err != nil {
			t.Fatal(err)
		}
		g, err := zoo.ByName(r.Network)
		if err != nil {
			t.Fatal(err)
		}
		frac := r.DeadlineMs / device.New(cfg).LatencyMs(g)
		if frac < 0.2 || frac >= 1.1 {
			t.Fatalf("deadline %v is %.3f of the parent's latency", r.DeadlineMs, frac)
		}
		if frac < 1 {
			below++
		} else {
			above++
		}
		if seen[r.DeadlineMs] {
			t.Fatalf("deadline %v repeats", r.DeadlineMs)
		}
		seen[r.DeadlineMs] = true
	}
	if below == 0 || above == 0 {
		t.Errorf("deadlines do not straddle the parent latency: %d below, %d above", below, above)
	}
}

func TestZipfWarmupCoversHotKeys(t *testing.T) {
	s, err := Generate(ZipfHits, 2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]bool{}
	for _, r := range s.Warmup {
		warm[string(r.Body)] = true
	}
	distinct := map[string]bool{}
	misses := 0
	for _, r := range s.Requests {
		k := string(r.Body)
		if !warm[k] && !distinct[k] {
			misses++
		}
		distinct[k] = true
	}
	if misses == 0 || float64(misses) > 0.05*float64(len(s.Requests)) {
		t.Errorf("%d first-time keys in %d requests; want some, and at most 5%%", misses, len(s.Requests))
	}
}
