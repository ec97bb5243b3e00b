// Package profiler implements the measurement protocol of Sec. IV-B2 and
// the per-layer latency tables of Sec. V-B1.
//
// Performance results follow the paper's protocol exactly: the device is
// warmed up with 200 inferences, then latency is reported as the average
// over another 800 timed runs. Per-layer tables are collected with
// event-style instrumentation, whose overhead makes the table sum
// slightly exceed the end-to-end latency — the effect the profiler-based
// estimator's ratio formulation (Eq. 1) cancels.
//
// A cold measurement costs what the protocol's results depend on: its
// noise draws. Warm-up runs, whose latencies the protocol discards,
// only advance the session's noise stream (device.Session.Skip), and a
// profiled run adds each layer's time into per-layer sums
// (device.Session.AccumulateProfiled) rather than materializing a
// table row per layer per run. Both consume the same draws in the same
// order as timing every run, so results are bit-identical to doing so.
package profiler

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync/atomic"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/metric"
	"netcut/internal/telemetry"
)

// Protocol fixes the measurement counts. The zero value is invalid; use
// PaperProtocol.
type Protocol struct {
	WarmupRuns int
	TimedRuns  int
}

// PaperProtocol is the paper's 200-warm-up / 800-run protocol.
func PaperProtocol() Protocol { return Protocol{WarmupRuns: 200, TimedRuns: 800} }

func (p Protocol) validate() error {
	if p.WarmupRuns < 0 || p.TimedRuns <= 0 {
		return fmt.Errorf("profiler: invalid protocol %+v", p)
	}
	return nil
}

// Measurement is the end-to-end latency summary of one network.
type Measurement struct {
	Network string
	MeanMs  float64
	StdMs   float64
	Runs    int
}

// LayerStat is one row of a per-layer latency table: the mean measured
// latency of one layer across the timed runs.
type LayerStat struct {
	NodeID int
	Name   string
	Kind   graph.OpKind
	MeanMs float64
}

// Table is the per-layer profile of one network — the artefact Eq. (1)
// consumes. One table is built per unmodified network (Sec. V-B1: "the
// number of tables generated is equal to the number of unmodified
// networks").
type Table struct {
	Network string
	Layers  []LayerStat
	// EndToEndMs is the mean plain (non-instrumented) latency measured
	// under the same protocol.
	EndToEndMs float64
	// pos indexes Layers densely by graph node ID: pos[id]-1 is node
	// id's row, 0 marks a node with no row. Profiled rows cover every
	// non-input node, so the index is one slot longer than Layers.
	pos []int32
	// featSum memoizes FeatureSumMs for the last structure asked about.
	featSum atomic.Pointer[featureSum]
}

// featureSum is one memoized FeatureSumMs result.
type featureSum struct {
	print uint64 // graph.Fingerprint of the summed graph
	ms    float64
}

// ErrInvalidTable marks a table rejected while rebuilding its node
// index from untrusted rows (a snapshot or CSV): a node ID out of range
// or listed twice. Branch on it with errors.Is.
var ErrInvalidTable = errors.New("invalid table")

// indexLayers builds t's dense node index. Every NodeID must lie in
// [0, len(Layers)] — the range a profiled table covers — so a hostile
// row cannot size the allocation, and must be unique.
func (t *Table) indexLayers() error {
	t.pos = make([]int32, len(t.Layers)+1)
	for i, l := range t.Layers {
		if l.NodeID < 0 || l.NodeID >= len(t.pos) {
			return fmt.Errorf("%w: node %d out of range [0,%d]", ErrInvalidTable, l.NodeID, len(t.Layers))
		}
		if t.pos[l.NodeID] != 0 {
			return fmt.Errorf("%w: duplicate node %d", ErrInvalidTable, l.NodeID)
		}
		t.pos[l.NodeID] = int32(i + 1)
	}
	return nil
}

// SumMs returns the sum of per-layer mean latencies; due to event
// overhead it exceeds EndToEndMs.
func (t *Table) SumMs() float64 {
	var s float64
	for _, l := range t.Layers {
		s += l.MeanMs
	}
	return s
}

// LayerMs returns the mean latency of the layer with the given graph
// node ID and whether it is present.
func (t *Table) LayerMs(nodeID int) (float64, bool) {
	if nodeID < 0 || nodeID >= len(t.pos) || t.pos[nodeID] == 0 {
		return 0, false
	}
	return t.Layers[t.pos[nodeID]-1].MeanMs, true
}

// FeatureSumMs returns the summed mean latency of g's feature layers
// (every node that is neither the input nor a head layer), added in
// node order: the denominator of Eq. (1). If a feature layer has no row
// it returns that node's ID and false. The sum is memoized per table
// for the last structure asked about (by graph.Fingerprint), so the
// per-candidate estimates of one exploration sum their parent once.
func (t *Table) FeatureSumMs(g *graph.Graph) (ms float64, missing int, ok bool) {
	print := graph.Fingerprint(g)
	if m := t.featSum.Load(); m != nil && m.print == print {
		return m.ms, 0, true
	}
	for _, n := range g.Nodes {
		if n.Head || n.Kind == graph.OpInput {
			continue
		}
		l, ok := t.LayerMs(n.ID)
		if !ok {
			return 0, n.ID, false
		}
		ms += l
	}
	t.featSum.Store(&featureSum{print: print, ms: ms})
	return ms, 0, true
}

// Profiler measures networks on a device.
//
// A Profiler's measurements are pure functions of the graph: the device
// is a deterministic simulation, the protocol and base seed are fixed
// at construction, and each network's noise stream derives from its own
// name (sessionSeed). Measure and Profile therefore memoize their
// results per structural plan key — re-measuring a network the paper's
// pipeline already measured (the sweep re-visits every sample TRN, the
// figure generators re-cut and re-measure proposals) is a cache hit
// that returns the byte-identical Measurement or Table.
//
// Both memoization layers are bounded LRUs (DefaultMeasurementCacheCap,
// DefaultTableCacheCap): measurements are pure functions of
// (seed, device config, structure), so an evicted entry recomputes to
// the identical value and a stream of arbitrary user graphs runs in
// constant memory. The memo key is the device plan key, which folds in
// the device-calibration fingerprint (device.Config.Fingerprint) — so
// in a multi-target deployment two devices can never share a
// Measurement or Table for the same graph, even if their profilers
// were pointed at one cache.
type Profiler struct {
	dev   *device.Device
	proto Protocol
	seed  int64

	measurements *lru.Cache[uint64, Measurement] // by device-scoped plan key
	tables       *lru.Cache[uint64, *Table]      // by device-scoped plan key
}

// DefaultMeasurementCacheCap bounds the end-to-end measurement cache;
// DefaultTableCacheCap bounds the (larger, rarer) per-layer tables.
const (
	DefaultMeasurementCacheCap = 8192
	DefaultTableCacheCap       = 1024
)

// New returns a Profiler using the given device and protocol.
func New(dev *device.Device, proto Protocol, seed int64) (*Profiler, error) {
	if err := proto.validate(); err != nil {
		return nil, err
	}
	return &Profiler{
		dev:          dev,
		proto:        proto,
		seed:         seed,
		measurements: lru.New[uint64, Measurement](DefaultMeasurementCacheCap),
		tables:       lru.New[uint64, *Table](DefaultTableCacheCap),
	}, nil
}

// SetCacheCaps re-bounds the measurement and table caches (<= 0 means
// unbounded), evicting least-recently-used entries as needed.
func (p *Profiler) SetCacheCaps(measurements, tables int) {
	p.measurements.Resize(measurements)
	p.tables.Resize(tables)
}

// CacheStats reports the measurement- and table-cache counters, in that
// order.
func (p *Profiler) CacheStats() (measurements, tables lru.Stats) {
	return p.measurements.Stats(), p.tables.Stats()
}

// Instrument registers both memoization layers' hit/miss/eviction/
// occupancy series on reg (netcut_profiler_measurements and
// netcut_profiler_tables prefixes), labeled with the device the
// profiler measures on.
func (p *Profiler) Instrument(reg *telemetry.Registry) {
	labels := []telemetry.Label{{Key: "device", Value: p.dev.Config().Name}}
	lru.InstrumentWith(reg, "netcut_profiler_measurements", labels, p.measurements)
	lru.InstrumentWith(reg, "netcut_profiler_tables", labels, p.tables)
}

// HasMeasurement reports whether g's end-to-end measurement is already
// memoized — the warm-path predicate the serving layer uses to classify
// request latency as cold or warm. It plans g if needed (work Measure
// would do anyway, shared via the device's plan cache) but does not
// touch the measurement cache's recency order or counters.
func (p *Profiler) HasMeasurement(g *graph.Graph) bool {
	return p.measurements.Contains(p.dev.PlanKey(g))
}

// sessionSeed derives the per-network measurement seed from the
// profiler's base seed: seed XOR a hash of the network name. Each
// network therefore draws its own reproducible noise stream that is
// independent of every other network's, which is what lets the
// experiment harness measure many networks concurrently and still get
// results that are bit-identical to a serial run in any order.
func sessionSeed(base int64, name string) int64 {
	h := fnv.New64a()
	io.WriteString(h, name)
	return base ^ int64(h.Sum64())
}

// Measure runs the warm-up/timed protocol and returns the end-to-end
// latency summary of g. Structurally identical graphs share one cached
// result (see the Profiler doc comment for why this is exact).
func (p *Profiler) Measure(g *graph.Graph) Measurement {
	// A concurrent miss computes the identical value; either store wins.
	return p.measurements.GetOrCompute(p.dev.PlanKey(g), func() Measurement {
		return p.measure(g)
	})
}

func (p *Profiler) measure(g *graph.Graph) Measurement {
	s := p.dev.Open(g, sessionSeed(p.seed, g.Name))
	s.Skip(p.proto.WarmupRuns)
	lat := make([]float64, p.proto.TimedRuns)
	for i := range lat {
		lat[i] = s.InferMs()
	}
	return Measurement{
		Network: g.Name,
		MeanMs:  metric.Mean(lat),
		StdMs:   metric.Std(lat),
		Runs:    p.proto.TimedRuns,
	}
}

// Profile runs the protocol with per-layer event instrumentation and
// returns the layer table for g. Structurally identical graphs share
// one cached table; callers treat tables as immutable.
func (p *Profiler) Profile(g *graph.Graph) *Table {
	return p.tables.GetOrCompute(p.dev.PlanKey(g), func() *Table {
		return p.profile(g)
	})
}

func (p *Profiler) profile(g *graph.Graph) *Table {
	s := p.dev.Open(g, sessionSeed(p.seed, g.Name))
	s.Skip(p.proto.WarmupRuns)
	// The execution plan — and therefore the profiled row order — is
	// identical on every run, so every run adds into the same per-row
	// sums and no run materializes a table.
	rows := s.Layers()
	sums := make([]float64, len(rows))
	var endToEnd float64
	for i := 0; i < p.proto.TimedRuns; i++ {
		endToEnd += s.AccumulateProfiled(sums)
	}
	tbl := &Table{
		Network:    g.Name,
		EndToEndMs: endToEnd / float64(p.proto.TimedRuns),
		Layers:     make([]LayerStat, len(rows)),
	}
	for ri, r := range rows {
		tbl.Layers[ri] = LayerStat{
			NodeID: r.NodeID,
			Name:   r.Name,
			Kind:   r.Kind,
			MeanMs: sums[ri] / float64(p.proto.TimedRuns),
		}
	}
	if err := tbl.indexLayers(); err != nil {
		panic(err) // the device profiles each non-input node exactly once
	}
	return tbl
}
