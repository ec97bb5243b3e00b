package device

import (
	"math"
	"testing"

	"netcut/internal/zoo"
)

// TestColdTableMatchesFormula pins the precomputed warm-up factors to
// the formula they replace: for every run index up to twice the table
// bound, so past the end of every table, the lookup returns exactly
// the bits of 1 + ColdPenalty*exp(-k/ColdRuns). The configs cover every
// registry profile, a device with no transient, and a transient slow
// enough that the table stops at coldTableCap and later runs use the
// formula.
func TestColdTableMatchesFormula(t *testing.T) {
	flat := Xavier()
	flat.ColdPenalty = 0
	slow := Xavier()
	slow.ColdRuns = 300
	cfgs := append(Profiles(), flat, slow)
	capped := false
	for _, cfg := range cfgs {
		d := New(cfg)
		if len(d.cold) == coldTableCap {
			capped = true
		}
		for k := 0; k <= 2*coldTableCap; k++ {
			want := 1 + cfg.ColdPenalty*math.Exp(-float64(k)/cfg.ColdRuns)
			if got := d.coldFactor(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (penalty %v over %v runs): run %d factor %v, formula %v",
					cfg.Name, cfg.ColdPenalty, cfg.ColdRuns, k, got, want)
			}
		}
	}
	if !capped {
		t.Fatalf("no config's table reached coldTableCap (%d)", coldTableCap)
	}
}

// TestSkipMatchesDiscardedRuns checks that a skipped warm-up leaves the
// session exactly where timing and discarding the same runs would: the
// same run count and the same noise for every later run, plain or
// profiled.
func TestSkipMatchesDiscardedRuns(t *testing.T) {
	d := New(Xavier())
	g, _ := zoo.ByName("MobileNetV2 (1.0)")
	for _, n := range []int{0, 1, 37} {
		timed, skipped := d.Open(g, 5), d.Open(g, 5)
		for i := 0; i < n; i++ {
			timed.InferMs()
		}
		skipped.Skip(n)
		if timed.Runs() != skipped.Runs() {
			t.Fatalf("skip %d: runs %d, want %d", n, skipped.Runs(), timed.Runs())
		}
		if a, b := timed.InferMs(), skipped.InferMs(); a != b {
			t.Fatalf("skip %d: next run %v, want %v", n, b, a)
		}
		ra, ta := timed.InferProfiledMs()
		rb, tb := skipped.InferProfiledMs()
		if ta != tb {
			t.Fatalf("skip %d: next profiled run %v, want %v", n, tb, ta)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("skip %d: row %d = %+v, want %+v", n, i, rb[i], ra[i])
			}
		}
	}
}
