package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReports(t *testing.T, name string, h host, capacity ...float64) string {
	t.Helper()
	var b strings.Builder
	for _, c := range capacity {
		r := report{Workload: "zipf-hits", Host: h, Metrics: map[string]float64{"capacity_rps": c}}
		line, err := json.Marshal(map[string]report{"report": r})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteString("\n{\"correct\":true}\n")
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	a := host{NProc: 2, GOMAXPROCS: 2, Kernel: "k", CPU: "c", Go: "go1.24.0", Commit: "src-a"}
	b := a
	b.Commit = "src-b"
	base := writeReports(t, "base.out", a, 100, 110, 90)
	head := writeReports(t, "head.out", b, 120, 130, 125)
	var out strings.Builder
	if err := compare(&out, base, head); err != nil {
		t.Fatalf("same host, different commit: %v", err)
	}
	if !strings.Contains(out.String(), "zipf-hits capacity_rps") || !strings.Contains(out.String(), "+25.0%") {
		t.Errorf("compare output lacks the median change:\n%s", out.String())
	}

	c := a
	c.NProc = 1
	other := writeReports(t, "other.out", c, 120)
	if err := compare(&out, base, other); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("compare across hosts: got %v, want a refusal", err)
	}
}
