// Package stream generates the benchmark's seeded request streams. A
// stream is a pure function of (workload, seed, length): the same
// arguments give byte-identical request bodies, so every run, the
// traced replay and the correctness oracle all see the same inputs.
// The program under test receives only the rendered bodies.
package stream

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"netcut/internal/device"
	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/zoo"
)

// Workload names.
const (
	ZipfHits      = "zipf-hits"
	DeadlineSweep = "deadline-sweep"
	ColdGraphs    = "cold-graphs"
)

// Workloads lists every workload in a fixed order.
var Workloads = []string{ZipfHits, DeadlineSweep, ColdGraphs}

// Request is one generated plan request: the structured identity the
// oracle replans from, and the exact body the generator sends.
type Request struct {
	// Network names a calibrated zoo network; empty for graph requests.
	Network string
	// graphName and graphSeed identify a submitted graph (cold-graphs),
	// which Graph rebuilds: a request keeps only its body, so a long
	// stream of large graphs stays small.
	graphName  string
	graphSeed  int64
	Target     string
	DeadlineMs float64
	// Estimator is the wire value; empty means the service default.
	Estimator string
	Body      []byte
}

// Name returns the requested network's name.
func (r *Request) Name() string {
	if r.graphName != "" {
		return r.graphName
	}
	return r.Network
}

// Graph rebuilds the submitted graph of a graph request, a fresh object
// on every call, the way the service decodes each body anew. Zoo
// requests return nil.
func (r *Request) Graph() (*graph.Graph, error) {
	if r.graphName == "" {
		return nil, nil
	}
	return randomGraph(rand.New(rand.NewSource(r.graphSeed)), r.graphName)
}

// Stream is one workload's request sequence for one seed.
type Stream struct {
	Workload string
	// Warmup is sent during set-up, untimed. It does not depend on the
	// seed.
	Warmup []Request
	// Requests are the measured requests, in send order.
	Requests []Request
}

// zipfDeadlinesMs are the fixed deadlines of the zipf-hits key space.
// Warm-up covers every key with the first len-1 deadlines; keys with the
// last one are first met in the measured stream, so a small, bounded
// share of requests misses the byte cache and exercises encode and the
// lane queue.
var zipfDeadlinesMs = []float64{0.4, 0.9, 2.5, 6.0}

// Generate builds the stream of n measured requests for workload.
func Generate(workload string, seed int64, n int) (*Stream, error) {
	// Salt the seed per workload so the streams of two workloads never
	// share a random sequence.
	salt := map[string]int64{ZipfHits: 0x5a17, DeadlineSweep: 0x5eed, ColdGraphs: 0xc01d}
	s, ok := salt[workload]
	if !ok {
		return nil, fmt.Errorf("stream: unknown workload %q (known: %v)", workload, Workloads)
	}
	rng := rand.New(rand.NewSource(seed ^ s<<32))
	st := &Stream{Workload: workload}
	var err error
	switch workload {
	case ZipfHits:
		st.Warmup, st.Requests, err = zipfHits(rng, n)
	case DeadlineSweep:
		st.Warmup, st.Requests, err = deadlineSweep(rng, n)
	case ColdGraphs:
		st.Warmup, st.Requests, err = coldGraphs(rng, seed, n)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

func zooRequest(network, target string, deadlineMs float64, estimator string) (Request, error) {
	r := Request{Network: network, Target: target, DeadlineMs: deadlineMs, Estimator: estimator}
	return r, r.render(nil)
}

// render encodes the body; g is the request's graph, nil for zoo
// requests.
func (r *Request) render(g *graph.Graph) error {
	w := gateway.PlanRequestWire{
		Network:    r.Network,
		Target:     r.Target,
		DeadlineMs: r.DeadlineMs,
		Estimator:  r.Estimator,
	}
	if g != nil {
		w.Graph = gateway.EncodeGraph(g)
	}
	b, err := json.Marshal(&w)
	if err != nil {
		return fmt.Errorf("stream: rendering %s: %w", r.Name(), err)
	}
	r.Body = b
	return nil
}

// zipfHits draws Zipf-popular keys from zoo x devices x deadlines x
// {profiler, analytical}; a seeded permutation decides which keys are
// popular.
func zipfHits(rng *rand.Rand, n int) (warm, reqs []Request, err error) {
	var keys []Request
	for _, dl := range zipfDeadlinesMs {
		for _, d := range device.Profiles() {
			for _, net := range zoo.Names {
				for _, est := range []string{"profiler", "analytical"} {
					r, err := zooRequest(net, d.Name, dl, est)
					if err != nil {
						return nil, nil, err
					}
					keys = append(keys, r)
				}
			}
		}
	}
	warmKeys := len(keys) / len(zipfDeadlinesMs) * (len(zipfDeadlinesMs) - 1)
	warm = keys[:warmKeys]
	perm := rng.Perm(len(keys))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	reqs = make([]Request, n)
	for i := range reqs {
		reqs[i] = keys[perm[z.Uint64()]]
	}
	return warm, reqs, nil
}

// sweepWarmDeadlineMs is below every cut's latency, so a warm-up request
// walks every blockwise cut of its network and leaves the cut cache,
// measurements and tables warm for any deadline.
const sweepWarmDeadlineMs = 1e-3

// deadlineSweep draws zoo networks on all devices, profiler and
// analytical estimators in a 3:1 mix, with a continuous deadline between
// 0.2 and 1.1 times the parent's latency on that device, so the range
// straddles the cut depths and no deadline repeats.
func deadlineSweep(rng *rand.Rand, n int) (warm, reqs []Request, err error) {
	devs := device.Profiles()
	parents := make([]*graph.Graph, len(zoo.Names))
	for i, name := range zoo.Names {
		if parents[i], err = zoo.ByName(name); err != nil {
			return nil, nil, err
		}
	}
	parentMs := make([][]float64, len(devs))
	for di, d := range devs {
		dev := device.New(d)
		parentMs[di] = make([]float64, len(parents))
		for ni, g := range parents {
			parentMs[di][ni] = dev.LatencyMs(g)
		}
		for _, name := range zoo.Names {
			for _, est := range []string{"profiler", "analytical"} {
				r, err := zooRequest(name, d.Name, sweepWarmDeadlineMs, est)
				if err != nil {
					return nil, nil, err
				}
				warm = append(warm, r)
			}
		}
	}
	reqs = make([]Request, n)
	for i := range reqs {
		di, ni := rng.Intn(len(devs)), rng.Intn(len(parents))
		est := "profiler"
		if rng.Intn(4) == 0 {
			est = "analytical"
		}
		dl := parentMs[di][ni] * (0.2 + 0.9*rng.Float64())
		if reqs[i], err = zooRequest(zoo.Names[ni], devs[di].Name, dl, est); err != nil {
			return nil, nil, err
		}
	}
	return warm, reqs, nil
}

// coldGraphs submits a never-seen random graph per request, planned with
// the default estimator on a uniformly drawn device, with a deadline
// between 0.3 and 1.0 times the graph's latency there. Each graph comes
// from its own generator, seeded from the stream's, so it can be rebuilt
// alone. Warm-up sends one cold graph per device from fixed seeds, under
// names the measured stream never uses.
func coldGraphs(rng *rand.Rand, seed int64, n int) (warm, reqs []Request, err error) {
	devs := device.Profiles()
	sims := make([]*device.Device, len(devs))
	for i, d := range devs {
		sims[i] = device.New(d)
	}
	coldOne := func(name string, graphSeed int64, di int) (Request, error) {
		// Graph rebuilds from the same seed; the deadline draw follows
		// the graph's.
		own := rand.New(rand.NewSource(graphSeed))
		g, err := randomGraph(own, name)
		if err != nil {
			return Request{}, err
		}
		r := Request{
			graphName:  name,
			graphSeed:  graphSeed,
			Target:     devs[di].Name,
			DeadlineMs: sims[di].LatencyMs(g) * (0.3 + 0.7*own.Float64()),
		}
		return r, r.render(g)
	}
	for di := range devs {
		r, err := coldOne(fmt.Sprintf("warmup-%d", di), int64(di), di)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, r)
	}
	reqs = make([]Request, n)
	for i := range reqs {
		name := fmt.Sprintf("cold-%d-%d", seed, i)
		if reqs[i], err = coldOne(name, rng.Int63(), rng.Intn(len(devs))); err != nil {
			return nil, nil, err
		}
	}
	return warm, reqs, nil
}

// randomGraph builds a random ResNet- or MobileNet-like block stack:
// a strided stem, two to four stages of one to four removable blocks
// each (the first block of a stage halves the resolution and the stage
// doubles the width), and a pooled dense head.
func randomGraph(rng *rand.Rand, name string) (*graph.Graph, error) {
	side := 64 + 32*rng.Intn(6)
	classes := 10 + rng.Intn(991)
	b := graph.NewBuilder(name, graph.Shape{H: side, W: side, C: 3}, classes)
	residual := rng.Intn(2) == 0
	width := 16 << rng.Intn(3)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, width, 2, graph.Same)
	stages := 2 + rng.Intn(3)
	for s := 0; s < stages; s++ {
		if s > 0 {
			width *= 2
		}
		for i, nb := 0, 1+rng.Intn(4); i < nb; i++ {
			stride := 1
			if i == 0 && s > 0 {
				stride = 2
			}
			b.BeginBlock(fmt.Sprintf("s%d_b%d", s, i))
			if residual {
				y := b.ConvBNReLU(x, 3, width, stride, graph.Same)
				y = b.ConvBN(y, 3, width, 1, graph.Same)
				short := x
				if stride != 1 || b.Shape(x).C != width {
					short = b.ConvBN(x, 1, width, stride, graph.Same)
				}
				x = b.ReLU(b.Add(y, short))
			} else {
				x = b.ReLU6(b.BN(b.DWConv(x, 3, stride, graph.Same)))
				x = b.ConvBNReLU6(x, 1, width, 1, graph.Same)
			}
			b.EndBlock()
		}
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, classes)
	b.Softmax(x)
	return b.Finish()
}
