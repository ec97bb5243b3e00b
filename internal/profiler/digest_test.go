package profiler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// protocolDigest is the SHA-256 of every Measure and Profile result in
// TestProtocolDigestUnchanged's scope, as produced by a protocol that
// times every warm-up run, builds every profiled row and evaluates the
// warm-up factor per run. Cheaper protocol loops must reproduce it bit
// for bit: a moved bit would move every golden downstream.
const protocolDigest = "07ea3b98ff7b40649a1b1010abf26de137ed18220cbc61f5cb7cefabb4086244"

// digestDevices is every registry profile plus two Xavier variants:
// one with no warm-up transient, and one whose transient decays so
// slowly that its warm-up factor never reaches exactly 1 within the
// device's precomputed table, so long protocols run past the table.
func digestDevices() []device.Config {
	cfgs := device.Profiles()
	flat := device.Xavier()
	flat.Name = "sim-xavier-no-warmup"
	flat.ColdPenalty = 0
	slow := device.Xavier()
	slow.Name = "sim-xavier-slow-warmup"
	slow.ColdRuns = 300
	return append(cfgs, flat, slow)
}

func mixFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// digestJob hashes every Measure and Profile result of graphs on one
// device under one protocol, at seeds 0 and 1.
func digestJob(cfg device.Config, graphs []*graph.Graph, proto Protocol) ([]byte, error) {
	h := sha256.New()
	dev := device.New(cfg)
	for _, seed := range []int64{0, 1} {
		p, err := New(dev, proto, seed)
		if err != nil {
			return nil, err
		}
		for _, g := range graphs {
			m := p.Measure(g)
			mixFloat(h, m.MeanMs)
			mixFloat(h, m.StdMs)
			tbl := p.Profile(g)
			mixFloat(h, tbl.EndToEndMs)
			for _, l := range tbl.Layers {
				mixFloat(h, l.MeanMs)
			}
		}
	}
	return h.Sum(nil), nil
}

// TestProtocolDigestUnchanged pins the bits of the measurement
// protocol: Measure's mean and std and every Profile table's
// end-to-end mean and per-layer means, over the zoo networks and their
// blockwise TRNs on every registry device plus the two Xavier variants
// of digestDevices, at two seeds. The zoo networks run the paper
// protocol, and a warm-up-free protocol longer than any device's
// warm-up table, whose timed runs fall inside the table, at its end and
// past it. The TRNs run a short protocol, which keeps the test cheap
// under the race detector. Any moved bit fails.
func TestProtocolDigestUnchanged(t *testing.T) {
	nets := zoo.Paper7()
	graphs := append([]*graph.Graph(nil), nets...)
	for _, g := range nets {
		trns, err := trim.EnumerateBlockwise(g, trim.DefaultHead, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, trn := range trns {
			graphs = append(graphs, trn.Graph)
		}
	}
	type job struct {
		graphs []*graph.Graph
		proto  Protocol
	}
	jobs := []job{
		{nets, PaperProtocol()},
		{nets, Protocol{WarmupRuns: 0, TimedRuns: 1100}},
		{graphs, Protocol{WarmupRuns: 10, TimedRuns: 40}},
	}
	devs := digestDevices()
	// Each (protocol, device) pair hashes on its own; the pair digests
	// are folded in a fixed order, so the result is independent of
	// scheduling.
	sums := make([][]byte, len(jobs)*len(devs))
	err := par.ForEach(len(sums), func(i int) error {
		j := jobs[i/len(devs)]
		var err error
		sums[i], err = digestJob(devs[i%len(devs)], j.graphs, j.proto)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range sums {
		h.Write(s)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != protocolDigest {
		t.Fatalf("protocol digest = %s, want %s: a Measure or Profile result moved", got, protocolDigest)
	}
}
