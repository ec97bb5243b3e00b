package main

import (
	"fmt"
	"time"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/par"
	"netcut/internal/profiler"
	"netcut/internal/serve"
	"netcut/internal/transfer"
	"netcut/internal/trim"
	"netcut/internal/zoo"
	"netcut/perfbench/stream"
)

// The mirror replays requests through the same public layer functions
// serve.Planner calls, in the same order and with the same per-device
// configuration (seed 0, the paper protocol and head, the pool's cache
// caps split across the registry), and times each call. Its bodies must
// equal the planner's byte for byte, which the traced run checks, so
// the per-layer times describe the pass the service runs.

// mirrorPlanner is one device's layer stack.
type mirrorPlanner struct {
	name       string
	dev        *device.Device
	prof       *profiler.Profiler
	sim        *transfer.Simulator
	analytical *estimate.AnalyticalEstimator
}

type mirror struct {
	planners map[string]*mirrorPlanner
	zoo      map[string]*graph.Graph
	head     trim.HeadSpec
	t        layerTimes
	// buildMs is the analytical estimator's build time per device.
	buildMs []float64
}

// layerTimes accumulates the timed calls of a replay.
type layerTimes struct {
	requests                                          int
	validate, fingerprint, measureServe, measureProf  time.Duration
	profile, estimateServe, explore, exploreSelf, cut time.Duration
	latency, retrain                                  time.Duration
	profiles, cuts, latencies, retrains, candidates   int
	est                                               map[string]time.Duration
	estCalls                                          map[string]int
	// cutStats counts cut-cache lookups inside core.Explore only; the
	// others count every lookup of the timed replay.
	cutStats, measureStats, tableStats, planStats cacheCounts
}

// cacheCounts is a cache's hit, miss and eviction counters.
type cacheCounts struct{ hits, misses, evictions uint64 }

func countsOf(s lru.Stats) cacheCounts { return cacheCounts{s.Hits, s.Misses, s.Evictions} }

func (c cacheCounts) plus(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits + o.hits, c.misses + o.misses, c.evictions + o.evictions}
}

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.misses - o.misses, c.evictions - o.evictions}
}

// hitRatio is hits over lookups, 0 before any lookup.
func (c cacheCounts) hitRatio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

func newMirror() (*mirror, error) {
	cfgs := device.Profiles()
	n := len(cfgs)
	m := &mirror{planners: map[string]*mirrorPlanner{}, zoo: map[string]*graph.Graph{}, head: trim.DefaultHead}
	for _, g := range zoo.Paper7() {
		m.zoo[g.Name] = g
	}
	for _, cfg := range cfgs {
		dev, err := device.NewChecked(cfg)
		if err != nil {
			return nil, err
		}
		dev.SetPlanCacheCap(device.DefaultPlanCacheCap / n)
		prof, err := profiler.New(dev, profiler.PaperProtocol(), 0)
		if err != nil {
			return nil, err
		}
		prof.SetCacheCaps(profiler.DefaultMeasurementCacheCap/n, profiler.DefaultTableCacheCap/n)
		mp := &mirrorPlanner{name: cfg.Name, dev: dev, prof: prof, sim: transfer.NewSimulator(0)}
		start := time.Now()
		if mp.analytical, err = m.buildAnalytical(mp); err != nil {
			return nil, err
		}
		m.buildMs = append(m.buildMs, msSince(start))
		m.planners[cfg.Name] = mp
	}
	return m, nil
}

// buildAnalytical trains the shared analytical estimator the way the
// planner does on its first analytical request: the zoo's blockwise
// TRNs measured on this device, a stratified 20% train split, seed 0.
func (m *mirror) buildAnalytical(mp *mirrorPlanner) (*estimate.AnalyticalEstimator, error) {
	nets := zoo.Paper7()
	parentMs := make([]float64, len(nets))
	if err := par.ForEach(len(nets), func(i int) error {
		parentMs[i] = mp.prof.Measure(nets[i]).MeanMs
		return nil
	}); err != nil {
		return nil, err
	}
	var samples []estimate.Sample
	for i, g := range nets {
		trns, err := trim.EnumerateBlockwiseScoped(mp.dev.Fingerprint(), g, m.head, false)
		if err != nil {
			return nil, err
		}
		for _, tr := range trns {
			samples = append(samples, estimate.Sample{TRN: tr, ParentLatencyMs: parentMs[i]})
		}
	}
	if err := par.ForEach(len(samples), func(i int) error {
		samples[i].MeasuredMs = mp.prof.Measure(samples[i].TRN.Graph).MeanMs
		return nil
	}); err != nil {
		return nil, err
	}
	train, _ := estimate.StratifiedSplit(samples, 0.2, 0)
	return estimate.TrainAnalytical(train, estimate.AnalyticalConfig{Seed: 0})
}

// timedEstimator times each EstimateMs call and records the TRNs asked
// about, which are exactly the cuts exploration made.
type timedEstimator struct {
	inner   estimate.Estimator
	d       *time.Duration
	visited *[]*trim.TRN
}

func (t timedEstimator) Name() string { return t.inner.Name() }

func (t timedEstimator) EstimateMs(trn *trim.TRN) (float64, error) {
	start := time.Now()
	v, err := t.inner.EstimateMs(trn)
	*t.d += time.Since(start)
	*t.visited = append(*t.visited, trn)
	return v, err
}

// replay plans every request and returns the rendered bodies. With
// timed false it only warms the caches.
func (m *mirror) replay(reqs []stream.Request, timed bool) ([][]byte, error) {
	if timed {
		m.t = layerTimes{est: map[string]time.Duration{}, estCalls: map[string]int{}}
		m.t.measureStats, m.t.tableStats, m.t.planStats = m.cacheStats()
	}
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		if bodies[i], err = m.plan(&reqs[i], timed); err != nil {
			return nil, fmt.Errorf("mirror: %s on %s: %w", reqs[i].Name(), reqs[i].Target, err)
		}
	}
	if timed {
		ms, ts, ps := m.cacheStats()
		m.t.measureStats = ms.minus(m.t.measureStats)
		m.t.tableStats = ts.minus(m.t.tableStats)
		m.t.planStats = ps.minus(m.t.planStats)
	}
	return bodies, nil
}

func (m *mirror) cacheStats() (measure, table, plan cacheCounts) {
	for _, mp := range m.planners {
		ms, ts := mp.prof.CacheStats()
		measure = measure.plus(countsOf(ms))
		table = table.plus(countsOf(ts))
		plan = plan.plus(countsOf(mp.dev.PlanCacheStats()))
	}
	return
}

// plan is serve.Planner's selectOne, call for call, with every layer
// call timed when timed is set.
func (m *mirror) plan(r *stream.Request, timed bool) ([]byte, error) {
	mp := m.planners[r.Target]
	if mp == nil {
		return nil, fmt.Errorf("unknown device")
	}
	g, err := r.Graph()
	if err != nil {
		return nil, err
	}
	if g == nil {
		g = m.zoo[r.Network]
	}
	t := &m.t
	lap := time.Now()
	// next returns the time since the previous lap and starts a new one.
	next := func() time.Duration {
		now := time.Now()
		d := now.Sub(lap)
		lap = now
		return d
	}
	if err := graph.Validate(g); err != nil {
		return nil, err
	}
	dValidate := next()
	graph.Fingerprint(g)
	dFingerprint := next()
	deadline := r.DeadlineMs
	if deadline == 0 {
		deadline = 0.9
	}

	measureStart := time.Now()
	if !mp.sim.HasProfile(g.Name) {
		if err := mp.sim.RegisterProfile(transfer.GenericProfile(g.Name, g.FeatureLayerCount())); err != nil {
			return nil, err
		}
	}
	next()
	meas := mp.prof.Measure(g)
	dMeasure := next()
	acc, err := mp.sim.OffTheShelfAccuracy(g.Name)
	if err != nil {
		return nil, err
	}
	dMeasureServe := time.Since(measureStart)

	kind := r.Estimator
	if kind == "" {
		kind = "profiler"
	}
	next()
	var est estimate.Estimator
	var dProfile time.Duration
	switch kind {
	case "profiler":
		tbl := mp.prof.Profile(g)
		dProfile = next()
		est = estimate.NewProfilerEstimator(map[string]*profiler.Table{g.Name: tbl})
	case "analytical":
		est = mp.analytical.WithParentLatency(g.Name, meas.MeanMs)
	default:
		return nil, fmt.Errorf("estimator %q is not mirrored", kind)
	}
	dEstimate := dProfile + next()

	var estD, retrainD time.Duration
	var retrains int
	var visited []*trim.TRN
	rt := core.RetrainerFunc(func(trn *trim.TRN) (core.TrainResult, error) {
		start := time.Now()
		res, err := mp.sim.Retrain(trn)
		retrainD += time.Since(start)
		retrains++
		return core.TrainResult{Accuracy: res.Accuracy, TrainHours: res.TrainHours}, err
	})
	cand := core.Candidate{Graph: g, MeasuredMs: meas.MeanMs, Accuracy: acc, CacheScope: mp.dev.Fingerprint()}
	cuts0 := trim.CutCacheStats()
	next()
	res, err := core.Explore([]core.Candidate{cand}, deadline,
		timedEstimator{inner: est, d: &estD, visited: &visited}, rt, m.head)
	dExplore := next()
	cuts1 := trim.CutCacheStats()
	if err != nil {
		return nil, err
	}

	resp := &serve.Response{Device: mp.name, Parent: g.Name}
	var dLatency time.Duration
	if best := res.Best; best != nil {
		next()
		measured := mp.dev.LatencyMs(best.TRN.Graph)
		dLatency = next()
		resp = &serve.Response{
			Device:        mp.name,
			Feasible:      true,
			Network:       best.TRN.Name(),
			Parent:        g.Name,
			BlocksRemoved: best.Cutpoint,
			LayersRemoved: best.TRN.LayersRemoved,
			EstimatedMs:   best.EstimateMs,
			MeasuredMs:    measured,
			Accuracy:      best.Accuracy,
			TrainHours:    best.TrainHours,
			Iterations:    best.Iterations,
		}
	}
	body := gateway.EncodeResponse(resp)
	if !timed {
		return body, nil
	}

	// Below here nothing feeds the response: direct timings of layer
	// calls the pass above made inside core.Explore.
	// The cut lookups exploration made, repeated: each is now a cache
	// hit, which is the cost the warm pass pays per candidate.
	var dCut time.Duration
	for _, trn := range visited {
		start := time.Now()
		if _, err := trim.CutScoped(cand.CacheScope, g, trn.Cutpoint, m.head); err != nil {
			return nil, err
		}
		dCut += time.Since(start)
	}
	// The analytical estimator on the same candidates, for requests
	// that asked for another kind, so its per-call cost is measured on
	// every workload's graphs.
	if kind != "analytical" {
		shadow := mp.analytical.WithParentLatency(g.Name, meas.MeanMs)
		for _, trn := range visited {
			start := time.Now()
			if _, err := shadow.EstimateMs(trn); err != nil {
				return nil, err
			}
			t.est["analytical"] += time.Since(start)
			t.estCalls["analytical"]++
		}
	}

	t.requests++
	t.validate += dValidate
	t.fingerprint += dFingerprint
	t.measureProf += dMeasure
	t.measureServe += dMeasureServe
	if kind == "profiler" {
		t.profile += dProfile
		t.profiles++
	}
	t.estimateServe += dEstimate
	t.explore += dExplore
	t.exploreSelf += dExplore - estD - retrainD
	t.est[kind] += estD
	t.estCalls[kind] += len(visited)
	t.retrain += retrainD
	t.retrains += retrains
	t.candidates += len(visited)
	t.cut += dCut
	t.cuts += len(visited)
	if res.Best != nil {
		t.latency += dLatency
		t.latencies++
	}
	t.cutStats = t.cutStats.plus(countsOf(cuts1).minus(countsOf(cuts0)))
	return body, nil
}
