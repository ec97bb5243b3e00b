package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/serve"
	"netcut/internal/zoo"
	"netcut/perfbench/stream"
)

// oracle replans requests on a fresh in-process planner pool built from
// the same source as the server, and renders the reference bodies.
type oracle struct {
	pool *serve.PlannerPool
	zoo  map[string]*graph.Graph
}

func newOracle() (*oracle, error) {
	pool, err := serve.NewPool(serve.PoolConfig{})
	if err != nil {
		return nil, err
	}
	o := &oracle{pool: pool, zoo: map[string]*graph.Graph{}}
	for _, g := range zoo.Paper7() {
		o.zoo[g.Name] = g
	}
	return o, nil
}

// request converts a generated request to the planner's form.
func (o *oracle) request(r *stream.Request) (serve.Request, error) {
	g, err := r.Graph()
	if g == nil && err == nil {
		g = o.zoo[r.Network]
	}
	return serve.Request{Graph: g, DeadlineMs: r.DeadlineMs, Estimator: r.Estimator}, err
}

// reference is the canonical body the service must send for r on dev.
func (o *oracle) reference(r *stream.Request, dev string) ([]byte, error) {
	req, err := o.request(r)
	if err != nil {
		return nil, err
	}
	resp, err := o.pool.Select(dev, req)
	if err != nil {
		return nil, err
	}
	return gateway.EncodeResponse(resp), nil
}

// check compares every 200 body of the phases, with its trace ID
// stripped, byte for byte against the reference for the device the body
// names, and marks each mismatch wrong. References are computed once per
// distinct (request, device) on the given number of workers.
func (o *oracle) check(phases []*phase, workers int) error {
	type key struct{ req, dev string }
	type ref struct {
		r    *stream.Request
		body []byte
		err  error
	}
	refs := map[key]*ref{}
	var order []key
	keyOf := func(p *phase, i int) (key, bool) {
		out := &p.outs[i]
		var named struct {
			Device string `json:"device"`
		}
		if out.err != nil || out.status != 200 || json.Unmarshal(out.body, &named) != nil {
			return key{}, false
		}
		return key{string(p.reqs[i].Body), named.Device}, true
	}
	for _, p := range phases {
		for i := range p.outs {
			k, ok := keyOf(p, i)
			if !ok || refs[k] != nil {
				continue
			}
			refs[k] = &ref{r: &p.reqs[i]}
			order = append(order, k)
		}
	}
	parallel(len(order), workers, func(i int) {
		rf := refs[order[i]]
		rf.body, rf.err = o.reference(rf.r, order[i].dev)
	})
	for _, p := range phases {
		for i := range p.outs {
			k, ok := keyOf(p, i)
			if !ok {
				continue
			}
			rf := refs[k]
			if rf.err != nil {
				return fmt.Errorf("oracle: %s on %s: %w", rf.r.Name(), k.dev, rf.err)
			}
			out := &p.outs[i]
			out.wrong = k.dev != p.reqs[i].Target || !bytes.Equal(gateway.StripTraceID(out.body), rf.body)
		}
	}
	return nil
}

// warm plans reqs on the oracle's pool from the given number of workers.
func (o *oracle) warm(reqs []stream.Request, workers int) error {
	errs := make([]error, len(reqs))
	parallel(len(reqs), workers, func(i int) {
		_, errs[i] = o.reference(&reqs[i], reqs[i].Target)
	})
	return errors.Join(errs...)
}
