package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netcut/internal/gateway"
	"netcut/perfbench/stream"
)

// outcome is one sent request.
type outcome struct {
	status int
	body   []byte // the response body, kept for the oracle
	err    error
	// latMs runs from when the request was due (open loop) or sent
	// (closed loop) to the last body byte.
	latMs float64
	// lateMs is the generator's own lag: send start minus the later of
	// the due time and the moment a connection was free to send.
	lateMs  float64
	traceID string
	// wrong marks a 200 body the oracle rejected.
	wrong bool
}

// failed reports a transport error, a non-200 status or a wrong body.
func (o *outcome) failed() bool { return o.err != nil || o.status != 200 || o.wrong }

// phase is one load phase: the requests sent and what came back,
// position for position.
type phase struct {
	name    string
	reqs    []stream.Request
	outs    []outcome
	elapsed time.Duration
}

// add appends another slice of the same phase.
func (p *phase) add(o *phase) {
	p.reqs = append(p.reqs, o.reqs...)
	p.outs = append(p.outs, o.outs...)
	p.elapsed += o.elapsed
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends one plan request and reads the whole response.
func post(c *http.Client, url string, body []byte) outcome {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return outcome{status: resp.StatusCode, body: b, err: err, traceID: resp.Header.Get(gateway.TraceHeader)}
}

// openLoop sends reqs[i] when it falls due, at start + i/rate, from conns
// workers that each hold one connection. A request that finds every
// worker busy waits, and that wait counts in its latency.
func openLoop(c *http.Client, url string, reqs []stream.Request, rate float64, conns int) *phase {
	p := &phase{name: "open", reqs: reqs, outs: make([]outcome, len(reqs))}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(20 * time.Millisecond)
	parallel(len(reqs), conns, func(i int) {
		due := start.Add(time.Duration(i) * interval)
		ready := time.Now()
		sleepUntil(due)
		sent := time.Now()
		if due.After(ready) {
			ready = due
		}
		o := post(c, url, reqs[i].Body)
		o.latMs = msSince(due)
		o.lateMs = ms(sent.Sub(ready))
		p.outs[i] = o
	})
	p.elapsed = time.Since(start)
	return p
}

// closedLoop sends reqs back to back from conns workers. after, when not
// nil, runs on the worker after each response, outside the timed span.
func closedLoop(name string, c *http.Client, url string, reqs []stream.Request, conns int, after func(i int, o *outcome)) *phase {
	p := &phase{name: name, reqs: reqs, outs: make([]outcome, len(reqs))}
	start := time.Now()
	parallel(len(reqs), conns, func(i int) {
		t := time.Now()
		o := post(c, url, reqs[i].Body)
		o.latMs = msSince(t)
		p.outs[i] = o
		if after != nil {
			after(i, &p.outs[i])
		}
	})
	p.elapsed = time.Since(start)
	return p
}

// parallel calls fn for every index in [0, n) from the given number of
// goroutines, handing indices out in order, and returns when all calls
// have.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer wheel wakes sub-millisecond sleeps up to a millisecond late when
// the process is otherwise idle, which at these rates would be most of
// the measured latency; the kernel's high-resolution timer is not.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
