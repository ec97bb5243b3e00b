package device

import (
	"math"
	"math/rand"
	"sync"

	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/telemetry"
)

// Device is a simulated embedded GPU. It memoizes the fused execution
// plan and steady-state kernel times of every graph it sees, the way a
// deployed engine caches compiled engines: repeated latency queries and
// session opens on the same network cost a cache hit, not a re-plan.
// The cache is two-level — by (weak) graph pointer for O(1) repeats
// that never outlive the graph, by structural fingerprint so
// independently built copies of the same network (e.g. a TRN re-cut by
// two explorations) share one plan. The fingerprint level is a bounded
// LRU (DefaultPlanCacheCap), so a service planning a stream of
// arbitrary user graphs runs in constant memory; plans are pure
// functions of (config, structure), so eviction is transparent.
type Device struct {
	cfg     Config
	print   uint64    // cfg.Fingerprint(), folded into every plan key
	cold    []float64 // warm-up factor per run index (coldTable)
	byPtr   sync.Map  // weak.Pointer[graph.Graph] -> *planInfo, self-evicting
	byPrint *lru.Cache[uint64, *planInfo]
}

// DefaultPlanCacheCap bounds the fingerprint-keyed plan cache. It
// comfortably covers the paper pipeline's working set (7 networks, 148
// blockwise TRNs, a few hundred exhaustive cuts) while capping what a
// stream of distinct user graphs can pin.
const DefaultPlanCacheCap = 4096

// New returns a Device for the given configuration. Configurations are
// static calibration tables, so an invalid one panics rather than
// returning an error through every measurement call. Service
// boundaries that accept device profiles as configuration input use
// NewChecked instead, so a bad profile is a structured startup error
// rather than a crash.
func New(cfg Config) *Device {
	d, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// NewChecked is New with the validation failure returned instead of
// panicking — the constructor for the planner/gateway paths, where a
// device profile arrives from flags or config rather than a calibrated
// table compiled into the binary.
func NewChecked(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		cfg:     cfg,
		print:   cfg.Fingerprint(),
		cold:    coldTable(&cfg),
		byPrint: lru.New[uint64, *planInfo](DefaultPlanCacheCap),
	}, nil
}

// Fingerprint returns the calibration identity of this device
// (Config.Fingerprint, computed once at construction).
func (d *Device) Fingerprint() uint64 { return d.print }

// SetPlanCacheCap re-bounds the fingerprint-keyed plan cache, evicting
// least-recently-used plans if needed. cap <= 0 means unbounded.
func (d *Device) SetPlanCacheCap(cap int) { d.byPrint.Resize(cap) }

// Instrument registers the kernel-plan cache's hit/miss/eviction/
// occupancy series on reg under the netcut_device_plans prefix, with a
// device label carrying the calibration name so a multi-target pool's
// caches stay distinguishable on one scrape surface.
func (d *Device) Instrument(reg *telemetry.Registry) {
	lru.InstrumentWith(reg, "netcut_device_plans",
		[]telemetry.Label{{Key: "device", Value: d.cfg.Name}}, d.byPrint)
}

// PlanCacheStats reports the plan cache's size and hit counters.
func (d *Device) PlanCacheStats() lru.Stats { return d.byPrint.Stats() }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// throughput returns the sustained MAC/s for a kernel, combining the
// precision mode, the kernel-class efficiency and the channel ramp.
func (c *Config) throughput(k *Kernel) float64 {
	peak := c.PeakMACs
	switch c.Precision {
	case INT8:
		peak *= c.INT8Speedup
	case FP32:
		peak /= c.FP32Slowdown
	}
	var eff float64
	switch k.Kind {
	case graph.OpConv:
		eff = c.ConvEff
	case graph.OpDWConv:
		eff = c.DWEff
	case graph.OpDense:
		eff = c.DenseEff
	case graph.OpMaxPool, graph.OpAvgPool, graph.OpGlobalAvgPool:
		eff = c.PoolEff
	default:
		eff = c.EltwEff
	}
	ch := float64(k.OutChannels)
	ramp := ch / (ch + c.ChannelKnee)
	return peak * eff * ramp
}

// KernelTimeMs returns the noise-free steady-state latency of one kernel
// in milliseconds: launch overhead plus the roofline maximum of compute
// and memory time.
func (d *Device) KernelTimeMs(k *Kernel) float64 {
	c := &d.cfg
	computeS := 0.0
	if k.MACs > 0 {
		computeS = float64(k.MACs) / c.throughput(k)
	}
	bytes := (float64(k.WeightBytes) + float64(k.IOBytes)) * c.Precision.bytesPerElem()
	memS := bytes / c.MemBandwidth
	return c.LaunchOverheadMs + 1e3*math.Max(computeS, memS)
}

// LatencyMs returns the noise-free steady-state end-to-end inference
// latency of g in milliseconds. After the first query for a graph this
// is a cache lookup.
func (d *Device) LatencyMs(g *graph.Graph) float64 {
	return d.plan(g).steadyMs
}

// Session is an open execution context for one network on the device.
// It tracks warm-up state and yields noisy per-run measurements, the way
// repeated timed inferences on real hardware do. The execution plan is
// shared, immutable cache state; only the run counter and noise stream
// are per-session.
//
// A measurement protocol pays only for what its results depend on.
// Warm-up runs whose latencies are discarded only advance the noise
// stream (Skip), and profiled runs add each row's time into the
// caller's per-row sums (AccumulateProfiled) rather than materializing
// a table per run. Both consume exactly the draws a timed run would,
// in the same order, so every later run sees the same noise.
type Session struct {
	dev  *Device
	g    *graph.Graph
	info *planInfo
	runs int
	rng  *rand.Rand
}

// Open prepares a session for g, reusing the device's memoized plan and
// steady-state kernel times. The seed makes the measurement-noise
// stream reproducible.
func (d *Device) Open(g *graph.Graph, seed int64) *Session {
	return &Session{
		dev:  d,
		g:    g,
		info: d.plan(g),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Graph returns the network this session executes.
func (s *Session) Graph() *graph.Graph { return s.g }

// Runs returns the number of inferences executed so far.
func (s *Session) Runs() int { return s.runs }

// coldTableCap bounds a device's warm-up factor table (8 KB).
const coldTableCap = 1024

// coldTable precomputes the warm-up factor 1 + ColdPenalty*exp(-k/ColdRuns)
// for runs k = 0, 1, ... up to and including the first run whose factor
// is exactly 1, or coldTableCap entries, whichever is shorter. The
// factor never increases, so once it is exactly 1 it stays 1. A device
// with no warm-up transient gets an empty table.
func coldTable(c *Config) []float64 {
	if c.ColdPenalty == 0 {
		return nil
	}
	var tab []float64
	for k := 0; k < coldTableCap; k++ {
		f := 1 + c.ColdPenalty*math.Exp(-float64(k)/c.ColdRuns)
		tab = append(tab, f)
		if f == 1 {
			break
		}
	}
	return tab
}

// coldFactor models the warm-up transient of run k: a table lookup
// while the transient lasts, exactly 1 once it has decayed, and the
// formula itself past a table that hit coldTableCap.
func (d *Device) coldFactor(k int) float64 {
	if k < len(d.cold) {
		return d.cold[k]
	}
	if len(d.cold) < coldTableCap {
		return 1
	}
	c := &d.cfg
	return 1 + c.ColdPenalty*math.Exp(-float64(k)/c.ColdRuns)
}

// runNoise is the per-run global noise factor (clock and DVFS jitter
// affect all kernels of a run together); kernelNoise is the smaller
// independent per-kernel jitter.
func (s *Session) runNoise() float64 {
	return 1 + s.dev.cfg.NoiseSigma*s.rng.NormFloat64()
}

func (s *Session) kernelNoise() float64 {
	return 1 + 0.5*s.dev.cfg.NoiseSigma*s.rng.NormFloat64()
}

// InferMs executes one inference and returns its measured latency in
// milliseconds, including warm-up and noise effects.
func (s *Session) InferMs() float64 {
	cold := s.dev.coldFactor(s.runs)
	run := s.runNoise()
	s.runs++
	total := 0.0
	for _, b := range s.info.baseMs {
		total += b * s.kernelNoise()
	}
	return total * run * cold
}

// Skip advances the session by n runs whose latencies nobody reads, as
// a warm-up does: it consumes the run's and every kernel's noise draw,
// exactly as InferMs would, and counts the runs, but times nothing.
func (s *Session) Skip(n int) {
	for i := n * (1 + len(s.info.baseMs)); i > 0; i-- {
		s.rng.NormFloat64()
	}
	s.runs += n
}

// LayerTimeMs is one row of a per-layer profiling table.
type LayerTimeMs struct {
	NodeID int
	Name   string
	Kind   graph.OpKind
	Ms     float64
}

// Layers returns the identity of every profiled row, in the order
// AccumulateProfiled and InferProfiledMs report them (plan order), with
// Ms zero.
func (s *Session) Layers() []LayerTimeMs {
	rows := make([]LayerTimeMs, 0, s.info.rows)
	for _, tmpl := range s.info.rowTmpl {
		for ri := range tmpl {
			r := &tmpl[ri]
			rows = append(rows, LayerTimeMs{NodeID: r.nodeID, Name: r.name, Kind: r.kind})
		}
	}
	return rows
}

// InferProfiledMs executes one inference with per-layer event recording,
// returning a per-layer latency table and the end-to-end latency the
// run would have had without events. Kernel time is attributed to its
// fused layers proportionally to their MAC share (precomputed once per
// plan, not per run), and each recorded layer pays the event overhead —
// which is why the table's sum slightly exceeds the end-to-end latency,
// the effect Eq. (1) divides away.
func (s *Session) InferProfiledMs() ([]LayerTimeMs, float64) {
	rows := s.Layers()
	sums := make([]float64, len(rows))
	total := s.AccumulateProfiled(sums)
	for ri := range rows {
		rows[ri].Ms = sums[ri]
	}
	return rows, total
}

// AccumulateProfiled executes one profiled inference, as InferProfiledMs
// does, but adds each row's time into sums[i] (row i in Layers order)
// instead of returning a table; it returns the run's end-to-end latency.
// A protocol loop summing hundreds of runs thus allocates nothing per
// run. sums must have one slot per row.
func (s *Session) AccumulateProfiled(sums []float64) float64 {
	cold := s.dev.coldFactor(s.runs)
	run := s.runNoise()
	s.runs++
	total := 0.0
	ev := s.dev.cfg.EventOverheadMs
	i := 0
	for ki, tmpl := range s.info.rowTmpl {
		t := s.info.baseMs[ki] * s.kernelNoise() * run * cold
		total += t
		for ri := range tmpl {
			sums[i] += t*tmpl[ri].share + ev*(1+0.1*s.rng.NormFloat64())
			i++
		}
	}
	return total
}
