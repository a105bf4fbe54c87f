package main

// The output oracle: every plan served over the wire must byte-match a
// cold in-process sailor.System plan for the same request, compared as
// wire-encoded results with the telemetry zeroed the way the goldens zero
// it. References are computed after the timed phase.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/wire"
	"repro/sailor"
)

// refSystems holds one cold in-process System per (model, GPU set) shape,
// built with the service's own profiling seed and worker count.
type refSystems struct {
	workers int
	m       map[string]*sailor.System
	// measured memoizes ground-truth iteration times by shape and plan.
	measured map[string]float64
}

func newRefSystems() *refSystems {
	return &refSystems{workers: runtime.NumCPU(), m: map[string]*sailor.System{}, measured: map[string]float64{}}
}

func shapeKey(m sailor.Model, gpus []sailor.GPUType) string {
	names := make([]string, len(gpus))
	for i, g := range gpus {
		names[i] = string(g)
	}
	sort.Strings(names)
	return m.Name + "|" + strings.Join(names, ",")
}

func (r *refSystems) get(m sailor.Model, gpus []sailor.GPUType) (*sailor.System, error) {
	k := shapeKey(m, gpus)
	if s, ok := r.m[k]; ok {
		return s, nil
	}
	s, err := sailor.New(m, gpus, sailor.WithSeed(1), sailor.WithWorkers(r.workers))
	if err != nil {
		return nil, err
	}
	r.m[k] = s
	return s, nil
}

// gtIterTime is the ground-truth iteration time of plan (System.Measure).
func (r *refSystems) gtIterTime(m sailor.Model, gpus []sailor.GPUType, plan sailor.Plan) (float64, error) {
	k := shapeKey(m, gpus) + "|" + planKey(plan)
	if v, ok := r.measured[k]; ok {
		return v, nil
	}
	sys, err := r.get(m, gpus)
	if err != nil {
		return 0, err
	}
	est, err := sys.Measure(plan)
	if err != nil {
		return 0, err
	}
	r.measured[k] = est.IterTime
	return est.IterTime, nil
}

// timedPlan is a cold reference plan and how long System.Plan took.
type timedPlan struct {
	canon []byte
	res   sailor.PlanResult
	took  time.Duration
}

func (r *refSystems) plan(m sailor.Model, gpus []sailor.GPUType, pool *sailor.Pool, obj sailor.Objective, cons sailor.Constraints) (timedPlan, error) {
	sys, err := r.get(m, gpus)
	if err != nil {
		return timedPlan{}, err
	}
	t0 := time.Now()
	res, err := sys.Plan(pool, obj, cons)
	took := time.Since(t0)
	if err != nil {
		return timedPlan{}, err
	}
	return timedPlan{canon: canonical(res, true), res: res, took: took}, nil
}

// canonical renders a result as the wire codec does with the wall-clock
// field zeroed. strict keeps the search telemetry (a cold Plan matches
// System.Plan on Explored and CacheHits too); otherwise the telemetry a
// warm, speculative or recovered search legitimately changes is zeroed as
// well, leaving plan and estimate.
func canonical(r sailor.PlanResult, strict bool) []byte {
	w := wire.FromResult(r)
	w.SearchTimeNS = 0
	if !strict {
		w.Explored, w.CacheHits, w.OOMPlansEmitted = 0, 0, 0
		w.WarmStart, w.SpeculativeHit = false, false
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // wire DTOs always marshal
	}
	return b
}

func planKey(p sailor.Plan) string {
	b, err := json.Marshal(wire.FromPlan(p))
	if err != nil {
		panic(err)
	}
	return string(b)
}

// oracle collects mismatches; each one fails the run.
type oracle struct {
	mismatches []string
}

func (o *oracle) failf(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// compare checks a served result against its reference rendering.
func (o *oracle) compare(what string, got sailor.PlanResult, want []byte, strict bool) bool {
	if got.Degraded {
		o.failf("%s: degraded result where a full search was expected", what)
		return false
	}
	g := canonical(got, strict)
	if string(g) != string(want) {
		o.failf("%s: served plan differs from the cold in-process plan\n  served: %s\n  cold:   %s", what, g, want)
		return false
	}
	return true
}
