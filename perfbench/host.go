package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host identifies the machine and code a result was taken on. Results
// compare only when every field but Commit matches.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	// Commit is a digest of the Go sources and module files of the tree
	// the benchmark ran in, which need not be a git checkout.
	Commit string `json:"commit"`
}

func hostRecord(root string) (host, error) {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	d, err := sourceDigest(root)
	if err != nil {
		return h, err
	}
	h.Commit = d
	return h, nil
}

// sameHost reports whether results from a and b may be compared.
func sameHost(a, b host) bool {
	a.Commit, b.Commit = "", ""
	return a == b
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in
// path order, skipping build output.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// report is the detailed record of one run, printed as a {"report": ...}
// line before the result line.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Phases   []phaseReport      `json:"phases"`
	Metrics  map[string]float64 `json:"metrics"`
	Notes    map[string]any     `json:"notes,omitempty"`
}

type phaseReport struct {
	Name       string  `json:"name"`
	Sent       int     `json:"sent"`
	Succeeded  int     `json:"succeeded"`
	Failed     int     `json:"failed"`
	WrongBody  int     `json:"wrong_body"`
	ElapsedS   float64 `json:"elapsed_s"`
	LateP50Ms  float64 `json:"generator_late_p50_ms,omitempty"`
	LateP99Ms  float64 `json:"generator_late_p99_ms,omitempty"`
	LatencyN   int     `json:"latency_samples,omitempty"`
	FirstError string  `json:"first_error,omitempty"`
}

// compare prints, per workload and metric, the median of each side's
// runs and the relative change. It refuses results from different
// hosts: a speed-up measured across machines is not a result.
func compare(w io.Writer, basePath, headPath string) error {
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	head, err := readReports(headPath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(head) == 0 {
		return fmt.Errorf("compare: no report lines in %s or %s", basePath, headPath)
	}
	for _, r := range append(base[1:], head...) {
		if !sameHost(base[0].Host, r.Host) {
			return fmt.Errorf("compare: results come from different hosts (%+v vs %+v); rerun both sides on one host", base[0].Host, r.Host)
		}
	}
	type cell struct{ base, head []float64 }
	cells := map[string]*cell{}
	var keys []string
	add := func(rs []report, isBase bool) {
		for _, r := range rs {
			for m, v := range r.Metrics {
				k := r.Workload + " " + m
				c := cells[k]
				if c == nil {
					c = &cell{}
					cells[k] = c
					keys = append(keys, k)
				}
				if isBase {
					c.base = append(c.base, v)
				} else {
					c.head = append(c.head, v)
				}
			}
		}
	}
	add(base, true)
	add(head, false)
	sort.Strings(keys)
	fmt.Fprintf(w, "%-48s %12s %12s %9s %s\n", "workload metric", "base", "head", "change", "runs")
	for _, k := range keys {
		c := cells[k]
		if len(c.base) == 0 || len(c.head) == 0 {
			continue
		}
		b, h := median(c.base), median(c.head)
		change := "n/a"
		if b != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(h-b)/b)
		}
		fmt.Fprintf(w, "%-48s %12.4f %12.4f %9s %d/%d\n", k, b, h, change, len(c.base), len(c.head))
	}
	return nil
}

// readReports collects the report lines of saved benchmark output.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"report":`) {
			continue
		}
		var wrap struct {
			Report report `json:"report"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, wrap.Report)
	}
	return out, sc.Err()
}
