package main

// cold-geo: closed loop, one client, cold Plan requests for seeded
// heterogeneous geo-distributed pools — the paper's planner itself
// (Figs. 8-14). The DP, pruning, dominance and sim.Estimate dominate;
// warm caches, the incremental probe, speculation and the fleet ledger are
// bypassed, and the journal takes one record per plan. Requests follow a
// 60-request design cycle — every (model, GPU set) shape at each of four
// pool-size classes, with zone layout, type split and objective fixed by
// the position in the cycle — and the seed draws each pool's exact size
// within its class and where the GPUs land, so every run sees the same mix
// while repeats stay rare. The loop runs whole cycles, so a faster service
// cannot change the mix it is measured on.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/wire"
	"repro/sailor"
)

var geoModels = []struct {
	m     sailor.Model
	floor float64 // MinCost throughput floor (iter/s), feasible on any pool
}{
	{sailor.OPT350M(), 1.0 / 88},
	{sailor.GPT2XL(), 1.0 / 44},
	{sailor.OPT13B(), 1.0 / 320},
	{sailor.GPTNeo27B(), 1.0 / 680},
	{sailor.Llama7B(), 1.0 / 1200},
}

var geoGPUSets = [][]sailor.GPUType{
	{core.A100, core.V100},
	{core.A100, core.T4},
	{core.H100, core.V100},
}

var geoZones = []sailor.Zone{
	cluster.GCPZone("us-central1", 'a'),
	cluster.GCPZone("us-central1", 'b'),
	cluster.GCPZone("europe-west4", 'a'),
	cluster.GCPZone("europe-west4", 'b'),
}

type geoReq struct {
	model sailor.Model
	gpus  []sailor.GPUType
	job   string
	pool  *sailor.Pool
	obj   sailor.Objective
	cons  sailor.Constraints
}

func geoJob(mi, si int) string { return fmt.Sprintf("geo-m%d-g%d", mi, si) }

const geoCycle = 60 // 15 shapes x 4 size classes

// geoRequest draws request i of a seed's sequence.
func geoRequest(seed int64, i int) geoReq {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	k := i % geoCycle
	shape, class := k%15, k/15
	mi, si := shape%len(geoModels), shape/len(geoModels)
	total := 16 + 16*class + rng.Intn(16)
	// 2 or 3 zones, always spanning both regions.
	zones := []sailor.Zone{geoZones[k%2], geoZones[2+(k/2)%2]}
	if k%3 == 0 {
		zones = append(zones, geoZones[1-k%2])
	}
	weights := [][]int{{1, 1, 1}, {2, 1, 1}, {1, 3, 2}, {3, 1, 2}}[k%4]
	sum := 0
	for zi := range zones {
		sum += weights[zi]
	}
	counts := make([]int, len(zones))
	left := total
	for zi := range zones {
		counts[zi] = total * weights[zi] / sum
		left -= counts[zi]
	}
	for ; left > 0; left-- {
		counts[rng.Intn(len(zones))]++
	}
	// The shape's first type holds at least half of every zone, so the
	// MinCost floor stays feasible.
	firstShare := []float64{0.5, 0.75, 1}[(k/4)%3]
	set := geoGPUSets[si]
	pool := cluster.NewPool()
	for zi, z := range zones {
		a := int(float64(counts[zi])*firstShare + 0.5)
		pool.Add(z, set[0], a)
		pool.Add(z, set[1], counts[zi]-a)
	}
	r := geoReq{model: geoModels[mi].m, gpus: set, job: geoJob(mi, si), pool: pool, obj: sailor.MaxThroughput}
	if (class+shape)%5 == 0 {
		r.obj = sailor.MinCost
		r.cons = sailor.Constraints{MinThroughput: geoModels[mi].floor}
	}
	return r
}

type geoEnv struct {
	d *daemon
	c *client
}

func geoSetup(cfg *config, p *probes, dir string) (*geoEnv, error) {
	d, err := bootDaemon(dir, cfg.serviceConfig(), p)
	if err != nil {
		return nil, err
	}
	c, err := dialClient(d.addr(), 0, p)
	if err != nil {
		d.close()
		return nil, err
	}
	env := &geoEnv{d: d, c: c}
	for mi, gm := range geoModels {
		for si, set := range geoGPUSets {
			if err := c.OpenJob(geoJob(mi, si), gm.m, set, 0); err != nil {
				env.close()
				return nil, fmt.Errorf("open job: %w", err)
			}
		}
	}
	// Warm-up: one plan per shape on the same small pool, so lazy runtime
	// set-up is paid before timing and set-up costs the same for every seed.
	pool := cluster.NewPool()
	for _, z := range geoZones[:3] {
		pool.Add(z, core.A100, 4).Add(z, core.V100, 4).Add(z, core.T4, 4).Add(z, core.H100, 4)
	}
	for mi := range geoModels {
		for si := range geoGPUSets {
			ctx, cancel := deadlineCtx(60 * time.Second)
			_, err := c.Plan(ctx, geoJob(mi, si), pool, sailor.MaxThroughput, sailor.Constraints{})
			cancel()
			if err != nil {
				env.close()
				return nil, fmt.Errorf("warm-up plan: %w", err)
			}
		}
	}
	return env, nil
}

func (e *geoEnv) close() error {
	e.c.Close()
	return e.d.close()
}

type geoOp struct {
	req        geoReq
	block      int
	res        sailor.PlanResult
	err        error
	start, end int64
	traced     bool
}

func runColdGeo(cfg *config, p *probes, dir string) (*outcome, error) {
	o := &outcome{}
	var collect sample
	for mi, gm := range geoModels {
		for si, set := range geoGPUSets {
			t0 := time.Now()
			if _, err := profiler.Collect(gm.m, set, nil, profiler.Options{Seed: 1}); err != nil {
				return nil, fmt.Errorf("profile %s: %w", geoJob(mi, si), err)
			}
			collect = append(collect, ms(time.Since(t0)))
		}
	}
	o.setLayer("profiler.collect_ms", "ms", collect.mean(), len(collect))

	env, setups, err := timedSetups(cfg, dir, func(sub string) (*geoEnv, error) { return geoSetup(cfg, p, sub) }, (*geoEnv).close)
	if err != nil {
		return nil, err
	}
	o.setLayer("persist.rotate_ms", "ms", ms(env.d.rotate), 1)
	s0, _ := env.d.svc.Stats()
	ph := startPhase(p)
	t0 := p.now()
	limit := int64(cfg.seconds * 1e9)
	var ops []geoOp
	var blocks []block
	var m mark
	callID := int64(0)
	for i := 0; i%geoCycle != 0 || p.now()-t0 < limit; i++ {
		if i%geoCycle == 0 {
			if n := len(blocks); n > 0 {
				ph.finish(m, &blocks[n-1])
			}
			blocks = append(blocks, block{})
			m = ph.begin()
		}
		r := geoRequest(cfg.seed, i)
		p.tracing.Store(cfg.trace && i%2 == 1)
		op := geoOp{req: r, block: len(blocks) - 1, traced: p.tracing.Load()}
		ctx, cancel := deadlineCtx(60 * time.Second)
		callID++
		if op.traced {
			env.c.slot.put(callID)
		}
		op.start = p.now()
		op.res, op.err = env.c.Plan(ctx, r.job, r.pool, r.obj, r.cons)
		op.end = p.now()
		cancel()
		if op.traced {
			env.c.slot.release(callID)
			p.addOp(opEvent{Op: int64(i + 1), Name: "plan", Job: r.job, Start: op.start, End: op.end})
			p.addCall(callEvent{Call: callID, Op: int64(i + 1), Method: "plan", Conn: env.c.idx, Start: op.start, End: op.end, SearchNS: int64(op.res.SearchTime)})
		}
		ops = append(ops, op)
		ph.tick()
	}
	ph.finish(m, &blocks[len(blocks)-1])
	p.tracing.Store(false)
	ph.stop(p)
	s1, _ := env.d.svc.Stats()
	var sd svcDelta
	sd.add(s0, s1)
	sd.addCache(s1)

	if cfg.corrupt && len(ops) > 0 {
		ops[0].res.Plan.MicroBatchSize++
	}
	var rpc rpcPairs
	if cfg.trace && len(ops) > 0 {
		rpc = pairedSimulate(env.c, env.d.svc, ops[0].req.job, ops[0].res.Plan, 300)
	}
	if err := env.close(); err != nil {
		return nil, err
	}

	// Oracle and in-process references, outside the timed phase.
	refs := newRefSystems()
	orc := &oracle{}
	var lat, search, inproc, estUS, errPct, traced, untraced sample
	var gt []float64
	searchNS, callNS := map[int64]int64{}, map[int64]int64{}
	explored, hits, warm := 0, 0, 0
	for i, op := range ops {
		o.attempted++
		r := op.req
		// One client, retries off and 60 s deadlines: nothing may fail.
		if op.err != nil {
			orc.failf("plan %d (%s on %s) failed: %v", i, r.job, r.pool, op.err)
			o.failed++
			continue
		}
		ref, err := refs.plan(r.model, r.gpus, r.pool, r.obj, r.cons)
		if err != nil {
			return nil, fmt.Errorf("reference plan %d: %w", i, err)
		}
		if !orc.compare(fmt.Sprintf("plan %d (%s on %s)", i, r.job, r.pool), op.res, ref.canon, true) {
			o.failed++
			continue
		}
		d := ms(time.Duration(op.end - op.start))
		lat = append(lat, d)
		blocks[op.block].lat = append(blocks[op.block].lat, d)
		blocks[op.block].ops++
		if op.traced {
			traced = append(traced, d-ms(op.res.SearchTime))
			searchNS[int64(i+1)] = int64(op.res.SearchTime)
			callNS[int64(i+1)] = op.end - op.start
		} else {
			untraced = append(untraced, d-ms(op.res.SearchTime))
		}
		search = append(search, ms(op.res.SearchTime))
		inproc = append(inproc, ms(ref.took))
		explored += op.res.Explored
		hits += op.res.CacheHits
		if op.res.WarmStart {
			warm++
		}
		if r.obj == sailor.MaxThroughput {
			t, err := refs.gtIterTime(r.model, r.gpus, op.res.Plan)
			if err != nil {
				return nil, fmt.Errorf("measure plan %d: %w", i, err)
			}
			gt = append(gt, t)
			if len(estUS) < 200 {
				sys, _ := refs.get(r.model, r.gpus)
				t0 := time.Now()
				est, err := sys.Simulator().Estimate(op.res.Plan)
				estUS = append(estUS, us(time.Since(t0)))
				if err == nil {
					errPct = append(errPct, 100*abs(est.IterTime-t)/t)
				}
			}
		}
	}
	o.mismatches = orc.mismatches
	n := len(ops)
	o.commonE2E(setups, blocks, gt)
	o.e2e = append(o.e2e, metric{Name: "failed_ratio", Unit: "ratio", Value: ratio(float64(o.failed), float64(o.attempted)), Samples: o.attempted})
	if !cfg.trace {
		return o, nil
	}
	o.commonLayers(ph, sd, n)
	o.setLayer("planner.search_ms_p50", "ms", search.median(), len(search))
	o.setLayer("planner.search_ms_p99", "ms", search.pct(99), len(search))
	o.setLayer("planner.explored_per_op", "count", ratio(float64(explored), float64(len(lat))), len(lat))
	o.setLayer("planner.cache_hits_per_op", "count", ratio(float64(hits), float64(len(lat))), len(lat))
	o.setLayer("planner.warm_start_ratio", "ratio", ratio(float64(warm), float64(len(lat))), len(lat))
	o.setLayer("planner.inproc_plan_ms_p50", "ms", inproc.median(), len(inproc))
	o.setLayer("sim.estimate_us_p50", "us", estUS.median(), len(estUS))
	o.setLayer("sim.err_pct", "%", errPct.mean(), len(errPct))
	rpc.setLayers(o)
	var enc, dec sample
	for i := 0; i < len(ops) && i < 200; i++ {
		op := ops[i]
		req := wire.PlanRequest{V: wire.Version, Job: op.req.job, Pool: wire.FromPool(op.req.pool),
			Objective: op.req.obj.String(), Constraints: wire.FromConstraints(op.req.cons)}
		e, d := timeJSON(req, wire.PlanResponse{V: wire.Version, Result: wire.FromResult(op.res)}, &wire.PlanResponse{})
		enc, dec = append(enc, e), append(dec, d)
	}
	o.setLayer("wire.encode_us_p50", "us", enc.median(), len(enc))
	o.setLayer("wire.decode_us_p50", "us", dec.median(), len(dec))
	return o, o.traceLayers(p, "plan", traced, untraced, lat.median(), searchNS, callNS, spansPath(cfg))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// timeJSON times encoding/json on one op's wire messages: marshalling the
// request and unmarshalling the reply (µs each).
func timeJSON(req, resp, into any) (encUS, decUS float64) {
	t0 := time.Now()
	if _, err := json.Marshal(req); err != nil {
		panic(err)
	}
	encUS = us(time.Since(t0))
	b, err := json.Marshal(resp)
	if err != nil {
		panic(err)
	}
	t1 := time.Now()
	if err := json.Unmarshal(b, into); err != nil {
		panic(err)
	}
	return encUS, us(time.Since(t1))
}

// rpcPairs are the rpc layer's cost on the cheapest request the service
// has, from Simulate calls each made over the wire and in-process
// (Server.Service()): the difference (µs) and its share of the wire call.
type rpcPairs struct {
	overheadUS, sharePct sample
}

func pairedSimulate(c *client, svc *sailor.Service, job string, plan sailor.Plan, n int) rpcPairs {
	var out rpcPairs
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := c.Simulate(job, plan); err != nil {
			continue
		}
		wireD := time.Since(t0)
		t1 := time.Now()
		if _, err := svc.Simulate(job, plan); err != nil {
			continue
		}
		d := wireD - time.Since(t1)
		out.overheadUS = append(out.overheadUS, us(d))
		out.sharePct = append(out.sharePct, 100*ratio(float64(d), float64(wireD)))
	}
	return out
}

func (r rpcPairs) setLayers(o *outcome) {
	o.setLayer("rpc.overhead_us_p50", "us", r.overheadUS.median(), len(r.overheadUS))
	o.setLayer("share.simulate.rpc_pct", "%", r.sharePct.median(), len(r.sharePct))
}

// setupTimes are the wall time (s) of each set-up of a run and the host's
// steal over it.
type setupTimes struct {
	secs, steal sample
}

// metric is setup_s: the median over the calm set-ups.
func (t setupTimes) metric() metric {
	var calmSecs sample
	for _, i := range calm(t.steal) {
		calmSecs = append(calmSecs, t.secs[i])
	}
	return metric{Name: "setup_s", Unit: "s", Value: calmSecs.median(), Samples: len(calmSecs),
		Note: fmt.Sprintf("(median of the calm set-ups, of %d)", len(t.secs))}
}

// timedSetups sets the workload up at least cfg.setups times, and until
// the set-ups have taken cfg.setupTime (at most maxSetups), each in a
// fresh data dir. It keeps the last environment and closes the others.
func timedSetups[E any](cfg *config, dir string, setup func(sub string) (E, error), closeEnv func(E) error) (E, setupTimes, error) {
	var t setupTimes
	for i := 0; ; i++ {
		h0, t0 := readHostCPU(), time.Now()
		env, err := setup(fmt.Sprintf("%s/setup-%d", dir, i))
		if err != nil {
			return env, t, fmt.Errorf("set-up: %w", err)
		}
		t.secs = append(t.secs, time.Since(t0).Seconds())
		t.steal = append(t.steal, readHostCPU().stealSince(h0))
		if (len(t.secs) >= cfg.setups && t.secs.sum() >= cfg.setupTime.Seconds()) || len(t.secs) == maxSetups {
			return env, t, nil
		}
		if err := closeEnv(env); err != nil {
			return env, t, err
		}
	}
}
