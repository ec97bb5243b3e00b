package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"netcut/internal/serve"
	"netcut/internal/trace"
	"netcut/internal/trim"
	"netcut/perfbench/stream"
)

// runTraced is the per-layer run. It replays the head of the same seeded
// stream against a fresh server, the first half reading each request's
// /debug/trace record and the second half untraced for the allocation
// count, then replays it in process twice: through the mirror, which
// times every layer call, and through a plain serve.PlannerPool, which
// is the untraced baseline and the reference bodies.
func runTraced(e env, rep *report) (result, error) {
	ctx := context.Background()
	st, err := stream.Generate(e.w.name, e.seed, e.w.tracePerSecond*e.seconds)
	if err != nil {
		return result{}, err
	}
	snap, err := snapshotLayer(e, st.Warmup)
	if err != nil {
		return result{}, err
	}
	args := []string{"-pprof"}
	if e.w.name == stream.DeadlineSweep {
		args = append(args, "-state-file", snap.path)
	}
	srv, err := startServer(e.netserve, args...)
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	url := srv.base + "/v1/plan"

	warm := closedLoop("warmup", client, url, st.Warmup, e.conns, nil)
	s0, err := gatewayStats(ctx, client, srv)
	if err != nil {
		return result{}, err
	}
	half := len(st.Requests) / 2
	views := make([]*trace.View, half)
	fetchErrs := make([]error, half)
	traced := closedLoop("traced", client, url, st.Requests[:half], e.conns, func(i int, o *outcome) {
		views[i], fetchErrs[i] = fetchTrace(ctx, client, srv, o.traceID)
	})
	// Reading the count allocates too: two reads in a row measure what
	// one read costs, which is taken off the replay's delta.
	var m [3]float64
	if m[0], err = mallocs(ctx, client, srv); err != nil {
		return result{}, err
	}
	if m[1], err = mallocs(ctx, client, srv); err != nil {
		return result{}, err
	}
	plain := closedLoop("untraced", client, url, st.Requests[half:], e.conns, nil)
	if m[2], err = mallocs(ctx, client, srv); err != nil {
		return result{}, err
	}
	s1, err := gatewayStats(ctx, client, srv)
	if err != nil {
		return result{}, err
	}
	srv.stop()
	for _, err := range fetchErrs {
		if err != nil {
			return result{}, fmt.Errorf("reading trace records: %w", err)
		}
	}

	// In process: the mirror, then the baseline, each from empty caches.
	trim.PurgeCutCache()
	mir, err := newMirror()
	if err != nil {
		return result{}, err
	}
	if _, err := mir.replay(st.Warmup, false); err != nil {
		return result{}, err
	}
	start := time.Now()
	mirBodies, err := mir.replay(st.Requests, true)
	if err != nil {
		return result{}, err
	}
	mirWall := time.Since(start)

	trim.PurgeCutCache()
	orc, err := newOracle()
	if err != nil {
		return result{}, err
	}
	if _, err := orc.serial(st.Warmup); err != nil {
		return result{}, err
	}
	start = time.Now()
	refs, err := orc.serial(st.Requests)
	if err != nil {
		return result{}, err
	}
	baseWall := time.Since(start)
	for i := range refs {
		if !bytes.Equal(mirBodies[i], refs[i]) {
			return result{}, fmt.Errorf("the mirror diverged from serve.Planner on %s (%s): %s vs %s",
				st.Requests[i].Name(), st.Requests[i].Target, mirBodies[i], refs[i])
		}
	}

	phases := []*phase{warm, traced, plain}
	if err := orc.check(phases, e.conns); err != nil {
		return result{}, err
	}
	res := tally(rep, phases)
	layers := gatewayLayers(views, s1.minus(s0))
	perRead := m[1] - m[0]
	layers["gateway.allocs_per_request"] = metricValue{(m[2] - m[1] - perRead) / float64(len(plain.outs)), "count"}
	for k, v := range mir.layers() {
		layers[k] = v
	}
	layers["persist.restore_ms"] = metricValue{snap.restoreMs, "ms"}
	layers["persist.snapshot_bytes"] = metricValue{float64(snap.bytes), "bytes"}
	layers["trace_overhead_frac"] = metricValue{mirWall.Seconds()/baseWall.Seconds() - 1, "frac"}
	res.Metrics = layers

	missing := 0
	for _, v := range views {
		if v == nil {
			missing++
		}
	}
	checks, failed := selfChecks(e.w.name, layers)
	rep.Notes = map[string]any{
		"traced_requests":      half,
		"trace_records_missed": missing,
		"mirror_wall_s":        mirWall.Seconds(),
		"baseline_wall_s":      baseWall.Seconds(),
		"selfchecks":           checks,
	}
	if failed != "" {
		return res, fmt.Errorf("workload self-check failed: %s", failed)
	}
	return res, nil
}

// selfChecks asserts that the workload stresses the layer it claims. It
// returns each check's outcome and the first failure.
func selfChecks(workload string, l map[string]metricValue) (map[string]bool, string) {
	type check struct {
		metric  string
		atLeast bool
		bound   float64
	}
	var cs []check
	switch workload {
	case stream.ZipfHits:
		cs = []check{{"gateway.bytecache_hit_ratio", true, 0.95}}
	case stream.DeadlineSweep:
		cs = []check{
			{"gateway.bytecache_hit_ratio", false, 0.05},
			{"trim.cutcache_hit_ratio", true, 0.95},
			{"profiler.measure_hit_ratio", true, 0.95},
		}
	case stream.ColdGraphs:
		cs = []check{{"profiler.measure_hit_ratio", false, 0.05}}
	}
	out := map[string]bool{}
	failed := ""
	for _, c := range cs {
		v := l[c.metric].Value
		ok := v <= c.bound
		op := "<="
		if c.atLeast {
			ok, op = v >= c.bound, ">="
		}
		out[c.metric+" "+op+" "+strconv.FormatFloat(c.bound, 'g', -1, 64)] = ok
		if !ok && failed == "" {
			failed = fmt.Sprintf("%s is %.4f, want %s %g", c.metric, v, op, c.bound)
		}
	}
	return out, failed
}

// gatewayLayers derives the gateway's per-request stage times from the
// trace records and its cache ratios from the /debug/stats deltas. Stage
// times are means over traced requests, a request without the stage
// counting zero, so they add up to the request's duration.
func gatewayLayers(views []*trace.View, d counters) map[string]metricValue {
	var n float64
	sum := map[string]float64{}
	var self float64
	for _, v := range views {
		if v == nil || v.Status != 200 {
			continue
		}
		n++
		stage := map[string]float64{}
		for _, sp := range v.Spans {
			stage[sp.Stage] += sp.DurMs
		}
		for k, ms := range stage {
			sum[k] += ms
		}
		self += v.DurMs - stage["exec"] - stage["queue_wait"]
	}
	per := func(v float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	hits, misses := d.sum("netcut_gateway_bytecache_hits_total"), d.sum("netcut_gateway_bytecache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	execPer := 0.0
	if reqs := d.sum("netcut_gateway_requests_total"); reqs > 0 {
		execPer = d.sum("netcut_planner_executions_total") / reqs
	}
	return map[string]metricValue{
		"gateway.self_ms":             {per(self), "ms"},
		"gateway.decode_ms":           {per(sum["decode"]), "ms"},
		"gateway.encode_ms":           {per(sum["encode"]), "ms"},
		"gateway.deliver_ms":          {per(sum["deliver"]), "ms"},
		"gateway.queue_wait_ms":       {per(sum["queue_wait"]), "ms"},
		"gateway.bytecache_hit_ratio": {ratio, "ratio"},
		"gateway.bytecache_evictions": {d.sum("netcut_gateway_bytecache_evictions_total"), "count"},
		"gateway.exec_per_request":    {execPer, "count"},
	}
}

// layers turns the mirror's timed replay into per-layer metrics: times
// per request for the planner phases, per call for the layer functions.
func (m *mirror) layers() map[string]metricValue {
	t := &m.t
	ms := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Millisecond) / float64(n)
	}
	us := func(d time.Duration, n int) float64 { return 1000 * ms(d, n) }
	r := t.requests
	return map[string]metricValue{
		"serve.measure_ms":            {ms(t.measureServe, r), "ms"},
		"serve.estimate_ms":           {ms(t.estimateServe, r), "ms"},
		"serve.explore_ms":            {ms(t.explore, r), "ms"},
		"serve.estimator_build_ms":    {median(m.buildMs), "ms"},
		"core.explore_self_ms":        {ms(t.exploreSelf, r), "ms"},
		"core.candidates_per_request": {float64(t.candidates) / float64(max(r, 1)), "count"},
		"estimate.call_us.profiler":   {us(t.est["profiler"], t.estCalls["profiler"]), "us"},
		"estimate.call_us.analytical": {us(t.est["analytical"], t.estCalls["analytical"]), "us"},
		"transfer.retrain_us":         {us(t.retrain, t.retrains), "us"},
		"trim.cut_us":                 {us(t.cut, t.cuts), "us"},
		"trim.cutcache_hit_ratio":     {t.cutStats.hitRatio(), "ratio"},
		"graph.fingerprint_us":        {us(t.fingerprint, r), "us"},
		"graph.validate_us":           {us(t.validate, r), "us"},
		"profiler.measure_ms":         {ms(t.measureProf, r), "ms"},
		"profiler.profile_ms":         {ms(t.profile, t.profiles), "ms"},
		"profiler.measure_hit_ratio":  {t.measureStats.hitRatio(), "ratio"},
		"profiler.table_hit_ratio":    {t.tableStats.hitRatio(), "ratio"},
		"device.latency_us":           {us(t.latency, t.latencies), "us"},
		"device.plancache_hit_ratio":  {t.planStats.hitRatio(), "ratio"},
	}
}

// serial plans reqs one after another and returns the reference bodies.
func (o *oracle) serial(reqs []stream.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		if out[i], err = o.reference(&reqs[i], reqs[i].Target); err != nil {
			return nil, fmt.Errorf("oracle: %s on %s: %w", reqs[i].Name(), reqs[i].Target, err)
		}
	}
	return out, nil
}

// snapshot is the persist layer's measurement: the warmed pool's state
// as the code under test writes it, and how long a fresh pool takes to
// restore it.
type snapshot struct {
	path      string
	bytes     int
	restoreMs float64
}

// restoreRepeats is how many fresh pools restore the snapshot; the
// reported time is their median.
const restoreRepeats = 3

func snapshotLayer(e env, warmup []stream.Request) (snapshot, error) {
	path := filepath.Join(e.workdir, e.w.name+".state")
	b, err := writeSnapshot(warmup, path, e.conns)
	if err != nil {
		return snapshot{}, err
	}
	var times []float64
	for i := 0; i < restoreRepeats; i++ {
		pool, err := serve.NewPool(serve.PoolConfig{})
		if err != nil {
			return snapshot{}, err
		}
		start := time.Now()
		if err := pool.LoadState(bytes.NewReader(b)); err != nil {
			return snapshot{}, fmt.Errorf("restoring snapshot: %w", err)
		}
		times = append(times, msSince(start))
	}
	return snapshot{path: path, bytes: len(b), restoreMs: median(times)}, nil
}

// writeSnapshot plans the warm-up requests on a fresh pool, saves its
// state to path and returns the bytes written.
func writeSnapshot(warmup []stream.Request, path string, workers int) ([]byte, error) {
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	if err := o.warm(warmup, workers); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := o.pool.SaveState(&buf); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fetchTrace reads one completed trace record. A record the server did
// not retain (the ring samples under overload) comes back nil.
func fetchTrace(ctx context.Context, c *http.Client, srv *server, id string) (*trace.View, error) {
	if id == "" {
		return nil, nil
	}
	b, err := srv.get(ctx, c, "/debug/trace?id="+id)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Traces []trace.View `json:"traces"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding trace %s: %w", id, err)
	}
	if len(doc.Traces) != 1 {
		return nil, nil
	}
	return &doc.Traces[0], nil
}

// counters is a flat view of the server's /debug/stats metrics.
type counters map[string]float64

func gatewayStats(ctx context.Context, c *http.Client, srv *server) (counters, error) {
	b, err := srv.get(ctx, c, "/debug/stats")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/stats: %w", err)
	}
	out := counters{}
	for k, v := range doc.Metrics {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// sum adds the series of one metric across its label sets.
func (c counters) sum(name string) float64 {
	var s float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// mallocs reads the server's cumulative heap allocation count from the
// runtime.MemStats footer of its heap profile.
func mallocs(ctx context.Context, c *http.Client, srv *server) (float64, error) {
	b, err := srv.get(ctx, c, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("no Mallocs line in the heap profile")
}
