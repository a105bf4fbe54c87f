package main

// fleet-storm: closed loop, one controller. The daemon runs in fleet mode
// with twelve jobs of mixed priorities whose GPU-type sets overlap, so the
// rebalance partitions are both solo and conflicting. A long seeded
// availability trace — registered scenarios remapped onto the fleet's
// cells, day after day, each day composed with a correlated-failure and a
// price-spike overlay — is fed as FleetEvent calls followed by Rebalance,
// one step per timestamp group. Every crashEvery steps the daemon crashes
// (journal closed with no final snapshot) and is recovered from its data
// dir. This is the write-heavy use of the layers: ledger ops journaled
// with fsync inside the ledger lock, partitioned rebalance, warm replans of
// broken jobs, and recovery, which serve-churn never exercises.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/sailor"
)

const (
	fleetJobCap  = 24 // per-job lease bound, GPUs
	fleetHorizon = 12 * time.Hour
	crashEvery   = 150 // steps between simulated crashes
	// A faster service gets further into the trace, where warm caches make
	// steps cheaper; so the figures cover the first fleetBlocks crash
	// intervals only, the same steps for every run of a seed. A run goes on
	// past its --seconds until it has played them (6000 steps: about 15 s
	// on a quiet 2-vCPU VM, 30 s while the host's steal halves its speed).
	fleetBlocks   = 40
	fleetDeadline = 60 * time.Second
)

// fleetCells maps each registered scenario's cells (in the order the
// scenario's trace first mentions them) onto fleet cells.
var fleetCells = []struct {
	scenario string
	base     int
	cells    [][2]string // {zone, gpu}
}{
	{"preemption-storm", 24, [][2]string{{"us-central1-a", string(core.A100)}}},
	{"diurnal-wave", 24, [][2]string{{"us-central1-b", string(core.V100)}}},
	{"zone-outage", 12, [][2]string{{"europe-west4-a", string(core.H100)}, {"europe-west4-b", string(core.H100)}}},
	{"hetero-arrivals", 8, [][2]string{{"us-central1-c", string(core.T4)}, {"us-central1-c", string(core.A10G)}}},
	{"geo-shift", 12, [][2]string{{"us-central1-a", string(core.GH200)}, {"europe-west4-a", string(core.GH200)}}},
}

// fleetJobs: T4, A10G and GH200 have one job each (solo partitions); the
// A100/V100/H100 jobs overlap into one conflicting partition.
var fleetJobs = []struct {
	name     string
	model    sailor.Model
	gpus     []sailor.GPUType
	priority int
}{
	{"j00", sailor.OPT350M(), []sailor.GPUType{core.A100}, 3},
	{"j01", sailor.GPT2XL(), []sailor.GPUType{core.A100, core.V100}, 2},
	{"j02", sailor.OPT350M(), []sailor.GPUType{core.V100}, 1},
	{"j03", sailor.GPT2XL(), []sailor.GPUType{core.A100}, 1},
	{"j04", sailor.OPT350M(), []sailor.GPUType{core.H100}, 3},
	{"j05", sailor.OPT350M(), []sailor.GPUType{core.H100, core.V100}, 2},
	{"j06", sailor.OPT350M(), []sailor.GPUType{core.T4}, 1},
	{"j07", sailor.GPT2XL(), []sailor.GPUType{core.A10G}, 2},
	{"j08", sailor.OPT350M(), []sailor.GPUType{core.GH200}, 3},
	{"j09", sailor.GPT2XL(), []sailor.GPUType{core.V100}, 0},
	{"j10", sailor.GPT2XL(), []sailor.GPUType{core.H100}, 1},
	{"j11", sailor.OPT350M(), []sailor.GPUType{core.A100, core.H100}, 0},
}

func zoneByName(name string) sailor.Zone {
	// GCP zone names end in "-<letter>".
	return cluster.GCPZone(name[:len(name)-2], name[len(name)-1])
}

// fleetTrace yields the step sequence: each step the availability events
// that move the fleet from the previous step's capacity to the next
// timestamp group's. Days are generated as they are needed.
type fleetTrace struct {
	seed  int64
	steps [][]sailor.TraceEvent
	cur   *sailor.Pool
	day   int
}

func newFleetTrace(seed int64) *fleetTrace { return &fleetTrace{seed: seed, cur: cluster.NewPool()} }

func (f *fleetTrace) step(i int) []sailor.TraceEvent {
	for i >= len(f.steps) {
		f.addDay()
	}
	return f.steps[i]
}

// addDay composes one day: every scenario's seeded trace remapped onto its
// fleet cells, then a correlated failure of one zone and a price spike at
// seeded positions.
func (f *fleetTrace) addDay() {
	rng := rand.New(rand.NewSource(f.seed*1_000_033 + int64(f.day)))
	var events []sailor.TraceEvent
	for si, fc := range fleetCells {
		sc, ok := sailor.ScenarioByName(fc.scenario)
		if !ok {
			panic("scenario not registered: " + fc.scenario)
		}
		tr := sc.TraceWith(f.seed*131+int64(f.day*len(fleetCells)+si), sailor.ScenarioOpts{Horizon: fleetHorizon, Base: fc.base})
		remap := map[[2]string]int{}
		for _, ev := range tr.Events {
			k := [2]string{ev.Zone.String(), string(ev.GPU)}
			ci, ok := remap[k]
			if !ok {
				ci = len(remap) % len(fc.cells)
				remap[k] = ci
			}
			cell := fc.cells[ci]
			events = append(events, sailor.TraceEvent{At: ev.At, Zone: zoneByName(cell[0]), GPU: sailor.GPUType(cell[1]), Delta: ev.Delta})
		}
	}
	failAt := 0.2 + 0.5*rng.Float64()
	spikeAt := 0.1 + 0.7*rng.Float64()
	zones := []string{"us-central1-a", "us-central1-b", "us-central1-c", "europe-west4-a", "europe-west4-b"}
	day := sailor.ComposeTrace(sailor.SyntheticTrace(fleetHorizon, events...),
		sailor.OverlayCorrelatedFailure(failAt, 0.05+0.1*rng.Float64(), zoneByName(zones[rng.Intn(len(zones))])),
		sailor.OverlayPriceSpike(spikeAt, spikeAt+0.1, 0.25+0.25*rng.Float64()))
	for i, ev := range day.Events {
		if i+1 < len(day.Events) && day.Events[i+1].At == ev.At {
			continue
		}
		target := day.PoolAt(ev.At)
		var step []sailor.TraceEvent
		for _, e := range poolDiff(f.cur, target) {
			e.At = time.Duration(f.day)*fleetHorizon + ev.At
			step = append(step, e)
		}
		if len(step) > 0 {
			f.steps = append(f.steps, step)
			f.cur = target
		}
	}
	f.day++
}

// poolDiff lists the per-cell deltas that turn from into to, in canonical
// cell order.
func poolDiff(from, to *sailor.Pool) []sailor.TraceEvent {
	seen := map[[2]string]bool{}
	var out []sailor.TraceEvent
	for _, p := range []*sailor.Pool{to, from} {
		for _, e := range p.Entries() {
			k := [2]string{e.Zone.String(), string(e.GPU)}
			if seen[k] {
				continue
			}
			seen[k] = true
			if d := to.Available(e.Zone, e.GPU) - from.Available(e.Zone, e.GPU); d != 0 {
				out = append(out, sailor.TraceEvent{Zone: e.Zone, GPU: e.GPU, Delta: d})
			}
		}
	}
	return out
}

// fleetStep is what one step returned over the wire (or in-process, for
// the reference): the leases its events broke, the rebalance pass, and
// the ledger after it.
type fleetStep struct {
	Broken    []string               `json:"broken"`
	Rebalance []sailor.RebalanceStep `json:"rebalance"`
	Stats     sailor.FleetStats      `json:"stats"`
}

// canonicalStep renders a step with the planner telemetry zeroed that a
// recovery or a speculative hit legitimately changes (the goldens' rule).
func canonicalStep(s fleetStep) []byte {
	c := s
	c.Rebalance = append([]sailor.RebalanceStep(nil), s.Rebalance...)
	for i := range c.Rebalance {
		if r := c.Rebalance[i].Result; r != nil {
			z := *r
			z.SearchTimeNS, z.Explored, z.CacheHits, z.OOMPlansEmitted = 0, 0, 0, 0
			z.WarmStart, z.SpeculativeHit = false, false
			c.Rebalance[i].Result = &z
		}
	}
	return mustJSON(c)
}

// driveStep applies one step through any API (wire client or reference).
func driveStep(api sailor.API, evs []sailor.TraceEvent) (fleetStep, error) {
	var st fleetStep
	for _, ev := range evs {
		broken, err := api.FleetEvent(ev)
		if err != nil {
			return st, fmt.Errorf("fleet event: %w", err)
		}
		for _, b := range broken {
			st.Broken = append(st.Broken, b.Job)
		}
	}
	ctx, cancel := deadlineCtx(fleetDeadline)
	defer cancel()
	steps, err := api.Rebalance(ctx)
	if err != nil {
		return st, fmt.Errorf("rebalance: %w", err)
	}
	st.Rebalance = steps
	return st, nil
}

func openFleet(api sailor.API) error {
	if err := api.SetFleet(cluster.NewPool(), fleetJobCap); err != nil {
		return fmt.Errorf("set fleet: %w", err)
	}
	for _, j := range fleetJobs {
		if err := api.OpenJob(j.name, j.model, j.gpus, j.priority); err != nil {
			return fmt.Errorf("open %s: %w", j.name, err)
		}
	}
	return nil
}

type fleetEnv struct {
	d   *daemon
	c   *client
	dir string
}

func (e *fleetEnv) close() error {
	e.c.Close()
	return e.d.close()
}

// fleetSetup boots, installs the fleet, opens every job and plays step 0
// (the first capacity grant, which admits the jobs cold).
func fleetSetup(cfg *config, p *probes, dir string, tr *fleetTrace) (*fleetEnv, fleetStep, error) {
	d, err := bootDaemon(dir, cfg.serviceConfig(), p)
	if err != nil {
		return nil, fleetStep{}, err
	}
	c, err := dialClient(d.addr(), 0, p)
	if err != nil {
		d.close()
		return nil, fleetStep{}, err
	}
	env := &fleetEnv{d: d, c: c, dir: dir}
	if err := openFleet(c); err != nil {
		env.close()
		return nil, fleetStep{}, err
	}
	st, err := driveStep(c, tr.step(0))
	if err == nil {
		st.Stats, err = c.FleetStats()
	}
	if err != nil {
		env.close()
		return nil, fleetStep{}, fmt.Errorf("step 0: %w", err)
	}
	return env, st, nil
}

// stepRec is one timed step. Its FleetStats are checked and digested as
// the step ends, with the block clock stopped, rather than kept: a ledger
// snapshot per step would make the benchmark's own heap the largest part
// of the memory and GC work it measures.
type stepRec struct {
	st         fleetStep // Broken and Rebalance; Stats left empty
	digest     [32]byte  // of canonicalStep with the step's FleetStats
	overLeased string
	err        error
	start, end int64
	events     int
	afterCrash bool
	traced     bool
	searchNS   int64
}

func runFleetStorm(cfg *config, p *probes, dir string) (*outcome, error) {
	o := &outcome{}
	tr := newFleetTrace(cfg.seed)
	var step0 fleetStep
	env, setups, err := timedSetups(cfg, dir, func(sub string) (*fleetEnv, error) {
		e, st, err := fleetSetup(cfg, p, sub, tr)
		step0 = st
		return e, err
	}, (*fleetEnv).close)
	if err != nil {
		return nil, err
	}
	orc := &oracle{}
	rotate := sample{ms(env.d.rotate)}
	var recoverMS, replayed sample
	var sd svcDelta
	s0, _ := env.d.svc.Stats()
	ph := startPhase(p)
	t0 := p.now()
	limit := int64(cfg.seconds * 1e9)
	var recs []stepRec
	// Blocks are crash intervals: the loop runs whole ones, each opening
	// with a crash and recovery (block 0 with set-up's steady state).
	blocks := []block{{}}
	m := ph.begin()
	callID := int64(0)
	afterCrash, corrupted := false, false
	for i := 1; i%crashEvery != 0 || p.now()-t0 < limit || i < fleetBlocks*crashEvery; i++ {
		if i%crashEvery == 0 {
			ph.finish(m, &blocks[len(blocks)-1])
			blocks = append(blocks, block{})
			var before sailor.FleetStats
			var err error
			ph.setAside(func() { before, err = env.d.svc.FleetStats() })
			if err != nil {
				return nil, err
			}
			s1, _ := env.d.svc.Stats()
			sd.add(s0, s1)
			sd.addCache(s1)
			m = ph.begin()
			env.c.Close()
			if err := env.d.crash(); err != nil {
				return nil, fmt.Errorf("crash: %w", err)
			}
			t1 := time.Now()
			d, err := bootDaemon(env.dir, cfg.serviceConfig(), p)
			if err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
			c, err := dialClient(d.addr(), 0, p)
			if err != nil {
				d.close()
				return nil, err
			}
			recoverMS = append(recoverMS, ms(time.Since(t1)))
			replayed = append(replayed, float64(d.recovered.RecordsReplayed))
			rotate = append(rotate, ms(d.rotate))
			env.d, env.c = d, c
			s0, _ = d.svc.Stats()
			ph.setAside(func() {
				after, err2 := d.svc.FleetStats()
				if err2 != nil {
					err = err2
				} else if a, b := mustJSON(after), mustJSON(before); string(a) != string(b) {
					orc.failf("step %d: FleetStats after recovery differ from before the crash\n  after:  %s\n  before: %s", i, a, b)
				}
			})
			if err != nil {
				return nil, err
			}
			afterCrash = true
		}
		evs := tr.step(i)
		p.tracing.Store(cfg.trace && i%2 == 1)
		rec := stepRec{events: len(evs), afterCrash: afterCrash, traced: p.tracing.Load()}
		afterCrash = false
		rec.start = p.now()
		api := sailor.API(env.c.Client)
		var calls []callEvent
		if rec.traced {
			api = &tracedAPI{API: env.c.Client, c: env.c, p: p, op: int64(i), next: &callID, calls: &calls}
		}
		rec.st, rec.err = driveStep(api, evs)
		rec.end = p.now()
		for _, r := range rec.st.Rebalance {
			if r.Result != nil && !r.Result.SpeculativeHit {
				rec.searchNS += r.Result.SearchTimeNS
			}
		}
		rec.traced = rec.traced && p.tracing.Load()
		if rec.traced {
			p.addOp(opEvent{Op: int64(i), Name: "step", Start: rec.start, End: rec.end})
			for _, c := range calls {
				p.addCall(c)
			}
		}
		p.tracing.Store(false)
		if rec.err == nil {
			ph.setAside(func() {
				if cfg.corrupt && !corrupted {
					corrupted = rec.corrupt()
				}
				rec.checkStats(env.d.svc)
			})
		}
		recs = append(recs, rec)
		ph.tick()
	}
	ph.finish(m, &blocks[len(blocks)-1])
	ph.stop(p)
	s1, _ := env.d.svc.Stats()
	sd.add(s0, s1)
	sd.addCache(s1)
	var rpc rpcPairs
	if cfg.trace {
		j := fleetJobs[0]
		if st, err := env.c.FleetStats(); err == nil {
			for _, le := range st.Leases {
				if le.Job == j.name {
					rpc = pairedSimulate(env.c, env.d.svc, j.name, le.Plan.Core(), 300)
				}
			}
		}
	}
	if err := env.close(); err != nil {
		return nil, err
	}

	// Oracle: an in-process reference Service with no rpc, no journal, no
	// speculation and no crashes, driven with the same events.
	ref := sailor.NewService(sailor.ServiceConfig{WithoutSpeculation: true})
	if err := openFleet(ref); err != nil {
		return nil, err
	}
	refStep, err := driveStep(ref, tr.step(0))
	if err == nil {
		refStep.Stats, err = ref.FleetStats()
	}
	if err != nil {
		return nil, fmt.Errorf("reference step 0: %w", err)
	}
	if a, b := canonicalStep(step0), canonicalStep(refStep); string(a) != string(b) {
		orc.failf("step 0 differs from the in-process reference\n  served:    %s\n  reference: %s", a, b)
	}
	refs := newRefSystems()
	jobOf := map[string]int{}
	for k, j := range fleetJobs {
		jobOf[j.name] = k
	}
	var lat, traced, untraced, postRec, inproc, search, estUS, errPct sample
	var gt []float64
	searchNS, callNS := map[int64]int64{}, map[int64]int64{}
	broken, events, replans, explored, hits, warm := 0, 0, 0, 0, 0, 0
	for k, rec := range recs {
		i := k + 1
		o.attempted++
		evs := tr.step(i)
		r0 := time.Now()
		want, err := driveStep(ref, evs)
		if err == nil {
			inproc = append(inproc, ms(time.Since(r0)))
			want.Stats, err = ref.FleetStats()
		}
		if err != nil {
			return nil, fmt.Errorf("reference step %d: %w", i, err)
		}
		// One controller, retries off and 60 s deadlines: nothing may fail.
		if rec.err != nil {
			orc.failf("step %d failed: %v", i, rec.err)
			o.failed++
			continue
		}
		if b := canonicalStep(want); rec.digest != sha256.Sum256(b) {
			orc.failf("step %d differs from the in-process reference\n  served (stats omitted): %s\n  reference: %s", i, canonicalStep(rec.st), b)
			o.failed++
			continue
		}
		if rec.overLeased != "" {
			orc.failf("step %d: %s", i, rec.overLeased)
			o.failed++
			continue
		}
		d := ms(time.Duration(rec.end - rec.start))
		lat = append(lat, d)
		b := &blocks[i/crashEvery]
		b.lat = append(b.lat, d)
		b.ops++
		if rec.afterCrash {
			postRec = append(postRec, d)
		}
		if rec.traced {
			traced = append(traced, d-float64(rec.searchNS)/1e6)
			searchNS[int64(i)] = rec.searchNS
			callNS[int64(i)] = rec.end - rec.start
		} else {
			untraced = append(untraced, d-float64(rec.searchNS)/1e6)
		}
		broken += len(rec.st.Broken)
		events += rec.events
		for _, r := range rec.st.Rebalance {
			if r.Result == nil {
				continue
			}
			replans++
			explored += r.Result.Explored
			hits += r.Result.CacheHits
			if r.Result.WarmStart {
				warm++
			}
			if !r.Result.SpeculativeHit {
				search = append(search, float64(r.Result.SearchTimeNS)/1e6)
			}
			j := fleetJobs[jobOf[r.Job]]
			plan := r.Result.Plan.Core()
			g, err := refs.gtIterTime(j.model, j.gpus, plan)
			if err != nil {
				return nil, err
			}
			if i/crashEvery < fleetBlocks {
				gt = append(gt, g)
			}
			if len(estUS) < 200 {
				sys, _ := refs.get(j.model, j.gpus)
				t0 := time.Now()
				est, err := sys.Simulator().Estimate(plan)
				estUS = append(estUS, us(time.Since(t0)))
				if err == nil {
					errPct = append(errPct, 100*abs(est.IterTime-g)/g)
				}
			}
		}
	}
	o.mismatches = orc.mismatches
	n := len(recs)
	o.commonE2E(setups, blocks[:min(len(blocks), fleetBlocks)], gt)
	o.e2e = append(o.e2e,
		metric{Name: "recover_ms", Unit: "ms", Value: recoverMS.median(), Samples: len(recoverMS)},
		metric{Name: "failed_ratio", Unit: "ratio", Value: ratio(float64(o.failed), float64(o.attempted)), Samples: o.attempted},
	)
	if !cfg.trace {
		return o, nil
	}
	o.commonLayers(ph, sd, n)
	o.setLayer("persist.rotate_ms", "ms", rotate.median(), len(rotate))
	o.setLayer("persist.records_replayed", "count", replayed.mean(), len(replayed))
	o.setLayer("fleet.leases_broken_per_event", "count", ratio(float64(broken), float64(events)), events)
	o.setLayer("fleet.replans_per_step", "count", ratio(float64(replans), float64(len(lat))), len(lat))
	o.setLayer("fleet.post_recovery_step_ms_p50", "ms", postRec.median(), len(postRec))
	o.setLayer("fleet.inproc_step_ms_p50", "ms", inproc.median(), len(inproc))
	o.setLayer("planner.search_ms_p50", "ms", search.median(), len(search))
	o.setLayer("planner.search_ms_p99", "ms", search.pct(99), len(search))
	o.setLayer("planner.explored_per_op", "count", ratio(float64(explored), float64(replans)), replans)
	o.setLayer("planner.cache_hits_per_op", "count", ratio(float64(hits), float64(replans)), replans)
	o.setLayer("planner.warm_start_ratio", "ratio", ratio(float64(warm), float64(replans)), replans)
	o.setLayer("sim.estimate_us_p50", "us", estUS.median(), len(estUS))
	o.setLayer("sim.err_pct", "%", errPct.mean(), len(errPct))
	rpc.setLayers(o)
	var enc, dec sample
	for i := 0; i < len(recs) && len(enc) < 200; i++ {
		rec := recs[i]
		if rec.err != nil || len(rec.st.Rebalance) == 0 {
			continue
		}
		ev := tr.step(i + 1)[0]
		e, d := timeJSON(wire.FleetEventRequest{V: wire.Version, Event: wire.FromFleetEvent(ev)},
			wire.RebalanceResponse{V: wire.Version, Steps: rec.st.Rebalance}, &wire.RebalanceResponse{})
		enc, dec = append(enc, e), append(dec, d)
	}
	o.setLayer("wire.encode_us_p50", "us", enc.median(), len(enc))
	o.setLayer("wire.decode_us_p50", "us", dec.median(), len(dec))
	return o, o.traceLayers(p, "step", traced, untraced, lat.median(), searchNS, callNS, spansPath(cfg))
}

// corrupt alters the step's first served plan, if it has one: the
// self-test's deliberately wrong output.
func (r *stepRec) corrupt() bool {
	if len(r.st.Rebalance) == 0 || r.st.Rebalance[0].Result == nil {
		return false
	}
	r.st.Rebalance[0].Result.Plan.MicroBatchSize++
	return true
}

// checkStats reads the ledger after the step in-process, checks it never
// leases more than the fleet holds, and keeps a digest of the whole step
// for the reference comparison.
func (r *stepRec) checkStats(svc *sailor.Service) {
	st, err := svc.FleetStats()
	if err != nil {
		r.err = fmt.Errorf("fleet stats: %w", err)
		return
	}
	r.overLeased = overLeased(st)
	full := r.st
	full.Stats = st
	r.digest = sha256.Sum256(canonicalStep(full))
}

// overLeased reports a cell whose leased GPUs exceed its capacity.
func overLeased(st sailor.FleetStats) string {
	used := map[[2]string]int{}
	for _, le := range st.Leases {
		for _, s := range le.Plan.Stages {
			for _, r := range s.Replicas {
				used[[2]string{r.Zone.Region + "/" + r.Zone.Name, r.GPU}] += r.TP
			}
		}
	}
	capacity := map[[2]string]int{}
	for _, e := range st.Capacity.Entries {
		capacity[[2]string{e.Zone.Region + "/" + e.Zone.Name, e.GPU}] = e.Count
	}
	for k, u := range used {
		if u > capacity[k] {
			return fmt.Sprintf("leases hold %d %s GPUs in %s, capacity %d", u, k[1], k[0], capacity[k])
		}
	}
	if st.LeasedGPUs > st.CapacityGPUs {
		return fmt.Sprintf("leased %d GPUs of a %d-GPU fleet", st.LeasedGPUs, st.CapacityGPUs)
	}
	return ""
}

// tracedAPI wraps the wire client for one traced step: each call is tagged
// for the conn probe and logged as a call span of the step.
type tracedAPI struct {
	sailor.API
	c     *client
	p     *probes
	op    int64
	next  *int64
	calls *[]callEvent
}

func (t *tracedAPI) call(method string, f func() (int64, error)) error {
	*t.next++
	id := *t.next
	t.c.slot.put(id)
	start := t.p.now()
	search, err := f()
	end := t.p.now()
	t.c.slot.release(id)
	*t.calls = append(*t.calls, callEvent{Call: id, Op: t.op, Method: method, Conn: t.c.idx, Start: start, End: end, SearchNS: search})
	return err
}

func (t *tracedAPI) FleetEvent(ev sailor.TraceEvent) (out []sailor.LeaseInfo, err error) {
	err = t.call("fleet_event", func() (int64, error) {
		var e error
		out, e = t.API.FleetEvent(ev)
		return 0, e
	})
	return out, err
}

func (t *tracedAPI) Rebalance(ctx context.Context) (out []sailor.RebalanceStep, err error) {
	err = t.call("rebalance", func() (int64, error) {
		var e error
		out, e = t.API.Rebalance(ctx)
		s := int64(0)
		for _, r := range out {
			if r.Result != nil && !r.Result.SpeculativeHit {
				s += r.Result.SearchTimeNS
			}
		}
		return s, e
	})
	return out, err
}
