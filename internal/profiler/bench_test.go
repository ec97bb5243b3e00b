package profiler

import (
	"testing"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/zoo"
)

// TestColdProtocolAllocsIndependentOfRuns guards the protocol loops
// against a per-run allocation: a cold Profile, and separately a cold
// Measure, must allocate the same number of times at 8 and at 800 timed
// runs. Allocation belongs to the table and the latency buffer, which
// are sized once, never to a run.
func TestColdProtocolAllocsIndependentOfRuns(t *testing.T) {
	g, _ := zoo.ByName("MobileNetV1 (0.25)")
	dev := device.New(device.Xavier())
	allocs := func(timed int, call func(p *Profiler)) float64 {
		p, err := New(dev, Protocol{WarmupRuns: 200, TimedRuns: timed}, 11)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { call(p) })
	}
	for _, c := range []struct {
		name string
		call func(p *Profiler)
	}{
		{"Profile", func(p *Profiler) { p.profile(g) }},
		{"Measure", func(p *Profiler) { p.measure(g) }},
	} {
		short, long := allocs(8, c.call), allocs(800, c.call)
		if short != long {
			t.Errorf("cold %s: %v allocs at 8 timed runs, %v at 800: a run allocates", c.name, short, long)
		}
	}
}

// benchCold times one protocol call per iteration on a fresh Profiler,
// so every call misses the memo and runs the full paper protocol. The
// device plan is built once up front: the benchmark isolates the
// protocol from kernel planning.
func benchCold(b *testing.B, call func(p *Profiler, g *graph.Graph)) {
	g, _ := zoo.ByName("ResNet-50")
	dev := device.New(device.Xavier())
	dev.PlanKey(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(dev, PaperProtocol(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		call(p, g)
	}
}

func BenchmarkProfilerMeasureCold(b *testing.B) {
	benchCold(b, func(p *Profiler, g *graph.Graph) { p.Measure(g) })
}

func BenchmarkProfilerProfileCold(b *testing.B) {
	benchCold(b, func(p *Profiler, g *graph.Graph) { p.Profile(g) })
}
