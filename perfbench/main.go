// Command perfbench is the repository's end-to-end benchmark of the
// planning service. For one workload it builds a seeded request stream,
// starts cmd/netserve as a fresh process, drives it over loopback HTTP,
// checks every response body against an in-process reference planner,
// and prints the metrics as the last line of standard output.
//
// Usage (from the repository root, after building both binaries; see
// run.sh):
//
//	perfbench -netserve BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench compare BASE.out HEAD.out
//
// With --trace 0 a run measures the end-to-end metrics: set-up time,
// open-loop latency at the workload's fixed offered rate, the share of
// requests answered correctly within the latency limit, closed-loop
// capacity and the server's peak memory. With --trace 1 it replays the
// same stream once more, reading the server's per-request trace records
// and timing the planner's layers in process, and prints the per-layer
// metrics instead. compare reads the {"report": ...} lines of two saved
// outputs and prints per-metric medians, refusing results taken on
// different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"netcut/perfbench/stream"
)

// workload is one traffic mix and its frozen load settings.
type workload struct {
	name string
	// rate is the open-loop offered rate in requests per second, a
	// quarter of capacity: low enough that a stall on a shared host
	// drains within a latency window, high enough that the lanes queue.
	rate float64
	// capacity sizes each round's closed loop so that it lasts about its
	// share of the round: the closed-loop rate measured on 2 vCPUs when
	// the benchmark was introduced. Both values stay frozen so later
	// commits are judged at the same load.
	capacity float64
	// limitMs is the latency limit slo_met_frac counts against.
	limitMs float64
	// setups is how many times a run starts and warms a server; setup_s
	// is their median.
	setups int
	// tracePerSecond sizes the traced replay: this many requests per
	// second of --seconds.
	tracePerSecond int
}

var workloads = map[string]workload{
	stream.ZipfHits:      {name: stream.ZipfHits, rate: 3500, capacity: 14000, limitMs: 5, setups: 5, tracePerSecond: 400},
	stream.DeadlineSweep: {name: stream.DeadlineSweep, rate: 800, capacity: 3300, limitMs: 10, setups: 5, tracePerSecond: 600},
	stream.ColdGraphs:    {name: stream.ColdGraphs, rate: 120, capacity: 480, limitMs: 50, setups: 9, tracePerSecond: 100},
}

// A run is a series of rounds of roundSeconds each. openShare of a round
// is the open loop; the closed loop sends enough requests to last the
// rest at the workload's capacity.
const (
	roundSeconds = 2.5
	openShare    = 0.6
)

// lateCeilingMs bounds the generator's p99 lateness in the open loop. A
// run that lags more measured its own scheduler, not the server, and is
// rejected.
const lateCeilingMs = 20

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is one run's configuration.
type env struct {
	w        workload
	seed     int64
	seconds  int
	netserve string
	workdir  string
	conns    int
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.out HEAD.out")
			return 2
		}
		if err := compare(os.Stdout, args[1], args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(stream.Workloads, ", "))
	seed := fs.Int64("seed", 1, "stream seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	netserve := fs.String("netserve", "", "netserve binary built from the tree under test")
	workdir := fs.String("workdir", "", "directory for snapshots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *netserve == "" || *workdir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -netserve, -workdir, --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(stream.Workloads, ", "))
		return 2
	}
	// The generator keeps every request and response for the oracle, so
	// most of its heap is live; collecting at twice the default growth
	// halves its collections, and their CPU, at a modest memory cost.
	debug.SetGCPercent(200)
	e := env{w: w, seed: *seed, seconds: *seconds, netserve: *netserve, workdir: *workdir, conns: runtime.NumCPU()}
	if err := checkCPUs(e.conns); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	h, err := hostRecord(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: host record:", err)
		return 1
	}
	rep := &report{Workload: w.name, Seed: e.seed, Seconds: e.seconds, Trace: *traceFlag == 1, Host: h}
	var res result
	if rep.Trace {
		res, err = runTraced(e, rep)
	} else {
		res, err = runE2E(e, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Metrics = map[string]float64{}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, v.Value)
			return 1
		}
		rep.Metrics[k] = v.Value
	}
	line, err := json.Marshal(map[string]*report{"report": rep})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// checkCPUs asserts the run uses no more connections or scheduler
// threads than the host has CPUs. netserve inherits GOMAXPROCS from the
// environment, so the same check covers both processes.
func checkCPUs(conns int) error {
	n := runtime.NumCPU()
	if conns > n {
		return fmt.Errorf("%d connections exceed nproc %d", conns, n)
	}
	if g := runtime.GOMAXPROCS(0); g > n {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", g, n)
	}
	return nil
}

// runE2E measures the end-to-end metrics: repeated set-up, then rounds
// of an open loop at the workload's offered rate followed by a closed
// loop at nproc connections, then the oracle over every body.
// Interleaving the two loops in short rounds spreads both over the whole
// run, so a slow spell of the shared host lands in a few rounds of each
// rather than in all of one.
func runE2E(e env, rep *report) (result, error) {
	roundS := min(roundSeconds, float64(e.seconds))
	rounds := max(1, int(float64(e.seconds)/roundS))
	openPer := int(openShare * roundS * e.w.rate)
	closedPer := max(e.conns, int((1-openShare)*roundS*e.w.capacity))
	st, err := stream.Generate(e.w.name, e.seed, rounds*(openPer+closedPer))
	if err != nil {
		return result{}, err
	}
	args, err := serverArgs(e, st)
	if err != nil {
		return result{}, err
	}
	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var warm *phase
	setups := make([]float64, 0, e.w.setups)
	for k := 0; k < e.w.setups; k++ {
		if srv != nil {
			srv.stop()
			client.CloseIdleConnections()
		}
		if srv, err = startServer(e.netserve, args...); err != nil {
			return result{}, err
		}
		warm = closedLoop("warmup", client, srv.base+"/v1/plan", st.Warmup, e.conns, nil)
		setups = append(setups, time.Since(srv.started).Seconds())
	}
	url := srv.base + "/v1/plan"
	open, closed := &phase{name: "open"}, &phase{name: "closed"}
	var roundElapsed []time.Duration
	for r, reqs := 0, st.Requests; r < rounds; r++ {
		open.add(openLoop(client, url, reqs[:openPer], e.w.rate, e.conns))
		c := closedLoop("closed", client, url, reqs[openPer:openPer+closedPer], e.conns, nil)
		closed.add(c)
		roundElapsed = append(roundElapsed, c.elapsed)
		reqs = reqs[openPer+closedPer:]
	}
	rss, rssErr := srv.peakRSSMB()
	srv.stop()
	if rssErr != nil {
		return result{}, rssErr
	}

	// Nothing is timed from here on: collect at the default pace again,
	// so the oracle's planner caches add less garbage on top.
	debug.SetGCPercent(100)
	orc, err := newOracle()
	if err != nil {
		return result{}, err
	}
	phases := []*phase{warm, open, closed}
	if err := orc.check(phases, e.conns); err != nil {
		return result{}, err
	}
	res := tally(rep, phases)
	op := rep.Phases[1]
	if op.LateP99Ms > lateCeilingMs {
		return result{}, fmt.Errorf("generator lagged: open-loop lateness p99 %.2fms exceeds the %dms ceiling", op.LateP99Ms, lateCeilingMs)
	}

	lat := make([]float64, len(open.outs))
	met := 0
	for i := range open.outs {
		o := &open.outs[i]
		lat[i] = o.latMs
		if !o.failed() && o.latMs <= e.w.limitMs {
			met++
		}
	}
	// Capacity pools every round: the cost of a cold graph varies with
	// its size, so a round's rate depends on which graphs it drew.
	roundRates := make([]float64, rounds)
	var good int
	var busy time.Duration
	for r := range roundRates {
		n := 0
		for _, o := range closed.outs[r*closedPer : (r+1)*closedPer] {
			if !o.failed() {
				n++
			}
		}
		roundRates[r] = float64(n) / roundElapsed[r].Seconds()
		good += n
		busy += roundElapsed[r]
	}
	all := append([]float64(nil), lat...)
	sort.Float64s(all)
	res.Metrics = map[string]metricValue{
		"setup_s":        {median(setups), "s"},
		"latency_p50_ms": {windowedQuantile(lat, 0.50, p50Window), "ms"},
		"slo_met_frac":   {float64(met) / float64(len(open.outs)), "frac"},
		"capacity_rps":   {float64(good) / busy.Seconds(), "1/s"},
		"peak_rss_mb":    {rss, "MB"},
	}
	rep.Notes = map[string]any{
		"offered_rps":      e.w.rate,
		"latency_limit_ms": e.w.limitMs,
		"connections":      e.conns,
		"rounds":           rounds,
		"setups_s":         setups,
		"latency_samples":  len(lat),
		"whole_p50_ms":     quantileSorted(all, 0.5),
		"whole_p99_ms":     quantileSorted(all, 0.99),
		// Not an end-to-end metric: on a host shared with other virtual
		// machines its run-to-run spread is wider than any bound the
		// benchmark could hold a change to.
		"latency_p99_ms":     windowedQuantile(lat, 0.99, p99Window),
		"round_capacity_rps": roundRates,
	}
	return res, nil
}

// serverArgs returns netserve's flags for the workload. deadline-sweep
// boots from a snapshot of its warmed planner state, written here by the
// code under test before anything is timed.
func serverArgs(e env, st *stream.Stream) ([]string, error) {
	if e.w.name != stream.DeadlineSweep {
		return nil, nil
	}
	path := filepath.Join(e.workdir, e.w.name+".state")
	if _, err := writeSnapshot(st.Warmup, path, e.conns); err != nil {
		return nil, err
	}
	return []string{"-state-file", path}, nil
}

// tally fills the per-phase report and the result's counts. Correct
// means the oracle found no wrong body.
func tally(rep *report, phases []*phase) result {
	res := result{Correct: true}
	for _, p := range phases {
		pr := phaseReport{Name: p.name, Sent: len(p.outs), ElapsedS: p.elapsed.Seconds()}
		var late []float64
		for i := range p.outs {
			o := &p.outs[i]
			switch {
			case o.failed():
				pr.Failed++
				if o.wrong {
					pr.WrongBody++
				}
				if pr.FirstError == "" {
					pr.FirstError = describe(o)
				}
			default:
				pr.Succeeded++
			}
			if p.name == "open" {
				late = append(late, o.lateMs)
			}
		}
		if len(late) > 0 {
			sort.Float64s(late)
			pr.LateP50Ms, pr.LateP99Ms = quantileSorted(late, 0.5), quantileSorted(late, 0.99)
			pr.LatencyN = len(late)
		}
		res.Attempted += pr.Sent
		res.Failed += pr.Failed
		if pr.WrongBody > 0 {
			res.Correct = false
		}
		rep.Phases = append(rep.Phases, pr)
	}
	return res
}

func describe(o *outcome) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.wrong:
		return "wrong body: " + string(o.body)
	default:
		return fmt.Sprintf("status %d: %s", o.status, o.body)
	}
}

// p50Window and p99Window are the open-loop samples per latency
// window: the p99 window is the smallest whose p99 still has ten samples
// beyond it. Each percentile is the median over consecutive windows, so
// a stall of the shared host moves a few windows' values, not the run's.
const (
	p50Window = 200
	p99Window = 1000
)

// windowedQuantile splits v, in send order, into consecutive windows of
// at least minN values and returns the median of the windows'
// q-quantiles.
func windowedQuantile(v []float64, q float64, minN int) float64 {
	k := max(1, len(v)/minN)
	qs := make([]float64, k)
	for w := range qs {
		win := append([]float64(nil), v[w*len(v)/k:(w+1)*len(v)/k]...)
		sort.Float64s(win)
		qs[w] = quantileSorted(win, q)
	}
	return median(qs)
}

// quantileSorted interpolates the q-quantile of sorted values.
func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}
