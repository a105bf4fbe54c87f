package main

// serve-churn: open loop, Poisson arrivals with periodic bursts at one
// fixed offered rate, then (untraced runs) a short ladder of fixed rates
// for sustained_rps. Ten tenants each replay a seeded registered scenario
// as Replan calls; Simulate and Stats calls are interleaved; every request
// carries a deadline. This is the realistic serving mix with high input
// repetition: rpc/wire, speculation, the warm cache, the incremental probe
// and one journal record per replan do most of the work, cold search
// little. The whole arrival schedule is fixed from the seed before the run
// starts, and each request is timed from its due time. A tenant's replans
// form a chain (each replans from the plan the previous one returned), as
// a job controller's do; a late reply delays the tenant's next replan, and
// that wait counts in the next replan's latency.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/sailor"
)

const (
	churnTenants = 10
	churnRate    = 200.0 // offered req/s of the main phase
	// churnLimitMS is the p99 latency limit of the sustained_rps ladder.
	churnLimitMS   = 25.0
	churnRungS     = 2.0             // seconds per ladder rate
	churnPeriod    = 2 * time.Second // one burst per period; a period is a block
	churnBurst     = 200 * time.Millisecond
	churnMaxFlight = 512 // concurrent Simulate/Stats requests in flight
)

var churnLadder = []float64{200, 400, 600, 800}

var churnScenarios = []string{"preemption-storm", "diurnal-wave", "geo-shift", "zone-outage", "hetero-arrivals"}

var churnModels = []sailor.Model{sailor.OPT350M(), sailor.GPT2XL()}

const (
	kindReplan = iota
	kindSimulate
	kindStats
)

type arrival struct {
	due    int64 // ns after the phase start
	kind   int
	tenant int
	step   int // replans: the tenant's step index
}

// churnSchedule draws a phase's arrivals: Poisson at rate/1.1 with a
// burst at twice that rate for the first churnBurst of every churnPeriod
// (mean = rate), 65% replans, 30% simulates, 5% stats, tenants uniform.
// steps carries each tenant's next step index across phases.
func churnSchedule(rng *rand.Rand, rate, seconds float64, steps []int) []arrival {
	period, burst := churnPeriod.Seconds(), churnBurst.Seconds()
	base := rate / (1 + burst/period)
	var out []arrival
	// Each period is a burst segment then a quiet one; the process restarts
	// at every segment edge (memorylessness keeps it Poisson within each).
	for seg := 0; ; seg++ {
		from, to, r := float64(seg/2)*period, float64(seg/2)*period+burst, 2*base
		if seg%2 == 1 {
			from, to, r = to, float64(seg/2+1)*period, base
		}
		for t := from + rng.ExpFloat64()/r; t < to; t += rng.ExpFloat64() / r {
			if t >= seconds {
				return out
			}
			a := arrival{due: int64(t * 1e9), tenant: rng.Intn(churnTenants)}
			switch u := rng.Float64(); {
			case u < 0.65:
				a.kind = kindReplan
				a.step = steps[a.tenant]
				steps[a.tenant]++
			case u < 0.95:
				a.kind = kindSimulate
			default:
				a.kind = kindStats
			}
			out = append(out, a)
		}
		if to >= seconds {
			return out
		}
	}
}

type tenant struct {
	job     string
	model   sailor.Model
	gpus    []sailor.GPUType
	sc      sailor.Scenario
	seed    int64
	cycles  [][]*sailor.Pool
	initial sailor.PlanResult
	warmed  int         // steps played in set-up (the first day)
	last    sailor.Plan // the chain's previous plan; only the tenant's goroutine touches it
}

// pool returns the tenant's step-th availability pool: the scenario's
// traces, one seeded day after another, each timestamp group a step.
func (t *tenant) pool(step int) *sailor.Pool {
	for d := 0; ; d++ {
		if d == len(t.cycles) {
			t.cycles = append(t.cycles, scenarioPools(t.sc, t.seed*7919+int64(d)))
		}
		if step < len(t.cycles[d]) {
			return t.cycles[d][step]
		}
		step -= len(t.cycles[d])
	}
}

// scenarioPools is one seeded trace of sc as the pool after each
// timestamp group (empty pools skipped).
func scenarioPools(sc sailor.Scenario, seed int64) []*sailor.Pool {
	tr := sc.Trace(seed)
	var out []*sailor.Pool
	for i, ev := range tr.Events {
		if i+1 < len(tr.Events) && tr.Events[i+1].At == ev.At {
			continue
		}
		if p := tr.PoolAt(ev.At); p.TotalGPUs() > 0 {
			out = append(out, p)
		}
	}
	return out
}

type churnEnv struct {
	d       *daemon
	clients [2]*client
	tenants []*tenant
}

func (e *churnEnv) close() error {
	for _, c := range e.clients {
		if c != nil {
			c.Close()
		}
	}
	return e.d.close()
}

func newTenants(seed int64) []*tenant {
	ts := make([]*tenant, churnTenants)
	for k := range ts {
		sc, ok := sailor.ScenarioByName(churnScenarios[k%len(churnScenarios)])
		if !ok {
			panic("scenario not registered: " + churnScenarios[k%len(churnScenarios)])
		}
		ts[k] = &tenant{job: fmt.Sprintf("tenant-%d", k), model: churnModels[(k/len(churnScenarios))%len(churnModels)],
			gpus: sc.GPUs, sc: sc, seed: seed*100 + int64(k)}
	}
	return ts
}

func churnSetup(cfg *config, p *probes, dir string) (*churnEnv, error) {
	d, err := bootDaemon(dir, cfg.serviceConfig(), p)
	if err != nil {
		return nil, err
	}
	env := &churnEnv{d: d, tenants: newTenants(cfg.seed)}
	for i := range env.clients {
		if env.clients[i], err = dialClient(d.addr(), i, p); err != nil {
			env.close()
			return nil, err
		}
	}
	for k, t := range env.tenants {
		c := env.clients[k%2]
		if err := c.OpenJob(t.job, t.model, t.gpus, 0); err != nil {
			env.close()
			return nil, fmt.Errorf("open %s: %w", t.job, err)
		}
		ctx, cancel := deadlineCtx(60 * time.Second)
		res, err := c.Plan(ctx, t.job, t.pool(0), sailor.MaxThroughput, sailor.Constraints{})
		cancel()
		if err != nil {
			env.close()
			return nil, fmt.Errorf("initial plan %s: %w", t.job, err)
		}
		t.initial, t.last = res, res.Plan
	}
	// Warm-up: every tenant replays its first day closed loop, so the timed
	// phase measures the long-running service, not its first cold day.
	errs := make([]error, len(env.tenants))
	var wg sync.WaitGroup
	for k, t := range env.tenants {
		wg.Add(1)
		go func(k int, t *tenant, c *client) {
			defer wg.Done()
			t.warmed = len(t.cycles[0])
			for step := 1; step < t.warmed; step++ {
				ctx, cancel := deadlineCtx(60 * time.Second)
				res, err := c.Replan(ctx, t.job, t.last, t.pool(step), sailor.MaxThroughput, sailor.Constraints{})
				cancel()
				if err != nil {
					errs[k] = fmt.Errorf("warm-up replan %s: %w", t.job, err)
					return
				}
				t.last = res.Plan
			}
		}(k, t, env.clients[k%2])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			env.close()
			return nil, err
		}
	}
	env.d.svc.Quiesce()
	return env, nil
}

type churnOp struct {
	arrival
	phase, block    int
	id              int64
	send, end, late int64 // absolute probe times; late is generator lateness
	res             sailor.PlanResult
	est             sailor.Estimate
	err             error
	traced          bool
}

func (op *churnOp) latMS() float64 { return float64(op.end-op.due) / 1e6 }

// runPhase replays one schedule open loop and returns its ops once every
// request has finished, with one block per churnPeriod of due time (ph,
// when set, measures each block's CPU and memory while its requests are
// dispatched). Tracing (traced runs) is on in every other period, so
// traced and untraced requests see the same bursts.
func (e *churnEnv) runPhase(p *probes, ph *phase, sched []arrival, seconds float64, phase int, trace bool, firstID int64) ([]churnOp, []block) {
	ops := make([]churnOp, len(sched))
	blocks := make([]block, int(math.Ceil(seconds/churnPeriod.Seconds())))
	cur := 0
	var m mark
	if ph != nil {
		m = ph.begin()
	}
	start := p.now() + int64(5*time.Millisecond)
	perTenant := make([]chan *churnOp, len(e.tenants))
	for k := range perTenant {
		perTenant[k] = make(chan *churnOp, len(sched)) // never blocks the dispatcher
	}
	var wg sync.WaitGroup
	for k, t := range e.tenants {
		wg.Add(1)
		go func(t *tenant, c *client, in chan *churnOp) {
			defer wg.Done()
			for op := range in {
				e.do(p, c, t, op)
			}
		}(t, e.clients[k%2], perTenant[k])
	}
	sem := make(chan struct{}, churnMaxFlight)
	for i := range sched {
		op := &ops[i]
		op.arrival, op.phase, op.id = sched[i], phase, firstID+int64(i)
		op.block = min(int(op.due/int64(churnPeriod)), len(blocks)-1)
		for ; cur < op.block; cur++ {
			if ph != nil {
				ph.finish(m, &blocks[cur])
				m = ph.begin()
			}
		}
		op.due += start
		// A calibration slice (about 2 ms) runs only in a gap it fits.
		if ph != nil && op.due-p.now() > int64(4*time.Millisecond) {
			ph.tick()
		}
		if wait := op.due - p.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		op.late = p.now() - op.due
		if trace {
			p.tracing.Store(op.block%2 == 1)
		}
		if op.kind == kindReplan {
			perTenant[op.tenant] <- op
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(op *churnOp) {
			defer wg.Done()
			defer func() { <-sem }()
			e.do(p, e.clients[int(op.id)%2], e.tenants[op.tenant], op)
		}(op)
	}
	for _, ch := range perTenant {
		close(ch)
	}
	wg.Wait()
	p.tracing.Store(false)
	if ph != nil {
		for ; cur < len(blocks); cur++ {
			ph.finish(m, &blocks[cur])
			m = ph.begin()
		}
	}
	// Throughput counts the requests due in a period, per period.
	for b := range blocks {
		blocks[b].wall = churnPeriod
	}
	return ops, blocks
}

// do sends one request and records it.
func (e *churnEnv) do(p *probes, c *client, t *tenant, op *churnOp) {
	traced := p.tracing.Load()
	if traced {
		c.slot.put(op.id)
	}
	op.send = p.now()
	method := ""
	switch op.kind {
	case kindReplan:
		method = "replan"
		ctx, cancel := deadlineCtx(2 * time.Second)
		op.res, op.err = c.Replan(ctx, t.job, t.last, t.pool(op.step), sailor.MaxThroughput, sailor.Constraints{})
		cancel()
		if op.err == nil && !op.res.Degraded {
			t.last = op.res.Plan
		}
	case kindSimulate:
		method = "simulate"
		op.est, op.err = c.Simulate(t.job, t.initial.Plan)
	default:
		method = "stats"
		_, op.err = c.Stats()
	}
	op.end = p.now()
	if traced {
		c.slot.release(op.id)
	}
	op.traced = traced && p.tracing.Load()
	if op.traced {
		p.addOp(opEvent{Op: op.id, Name: method, Job: t.job, Start: op.due, End: op.end})
		search := int64(0)
		if !op.res.SpeculativeHit {
			search = int64(op.res.SearchTime)
		}
		p.addCall(callEvent{Call: op.id, Op: op.id, Method: method, Conn: c.idx, Start: op.send, End: op.end, SearchNS: search})
	}
}

func runServeChurn(cfg *config, p *probes, dir string) (*outcome, error) {
	o := &outcome{}
	env, setups, err := timedSetups(cfg, dir, func(sub string) (*churnEnv, error) { return churnSetup(cfg, p, sub) }, (*churnEnv).close)
	if err != nil {
		return nil, err
	}
	o.setLayer("persist.rotate_ms", "ms", ms(env.d.rotate), 1)
	rng := rand.New(rand.NewSource(cfg.seed))
	steps := make([]int, churnTenants)
	for k, t := range env.tenants {
		steps[k] = t.warmed
	}
	sched := churnSchedule(rng, churnRate, cfg.seconds, steps)
	s0, _ := env.d.svc.Stats()
	ph := startPhase(p)
	ops, blocks := env.runPhase(p, ph, sched, cfg.seconds, 0, cfg.trace, 1)
	ph.stop(p)
	s1, _ := env.d.svc.Stats()
	var sd svcDelta
	sd.add(s0, s1)
	sd.addCache(s1)

	// The sustained-rate ladder (untraced runs only): each rate's p99 must
	// meet churnLimitMS with no growing backlog; failures miss the limit.
	var sustained float64
	if !cfg.trace {
		nextID := int64(len(ops) + 1)
		for ri, rate := range churnLadder {
			rs, _ := env.runPhase(p, nil, churnSchedule(rng, rate, churnRungS, steps), churnRungS, ri+1, false, nextID)
			nextID += int64(len(rs))
			ops = append(ops, rs...)
			if ladderMeets(rs) {
				sustained = rate
			}
		}
	}
	var rpc rpcPairs
	if cfg.trace {
		t := env.tenants[0]
		rpc = pairedSimulate(env.clients[0], env.d.svc, t.job, t.initial.Plan, 300)
	}
	if cfg.corrupt {
		for i := range ops {
			if ops[i].kind == kindReplan && ops[i].err == nil {
				ops[i].res.Plan.MicroBatchSize++
				break
			}
		}
	}
	if err := env.close(); err != nil {
		return nil, err
	}

	// Oracle: every served replan against a cold in-process plan of its
	// pool; every simulate against the in-process simulator; the initial
	// plans strictly (they are cold).
	refs := newRefSystems()
	orc := &oracle{}
	refPlans := map[string][]byte{}
	var inproc sample
	for k, t := range env.tenants {
		ref, err := refs.plan(t.model, t.gpus, t.pool(0), sailor.MaxThroughput, sailor.Constraints{})
		if err != nil {
			return nil, err
		}
		orc.compare(fmt.Sprintf("tenant %d initial plan", k), t.initial, ref.canon, true)
	}
	refEst := map[int][]byte{}
	for k, t := range env.tenants {
		sys, err := refs.get(t.model, t.gpus)
		if err != nil {
			return nil, err
		}
		est, err := sys.Simulate(t.initial.Plan)
		if err != nil {
			return nil, err
		}
		refEst[k] = mustJSON(wire.FromEstimate(est))
	}
	var lat, simLat, traced, untraced, search, late, estUS, errPct sample
	var gt []float64
	searchNS, callNS := map[int64]int64{}, map[int64]int64{}
	nMain, degraded, explored, hits, warm, nReplan := 0, 0, 0, 0, 0, 0
	for i := range ops {
		op := &ops[i]
		t := env.tenants[op.tenant]
		main := op.phase == 0
		if main {
			o.attempted++
			nMain++
			late = append(late, float64(op.late)/1e6)
		}
		if op.err != nil {
			if main {
				o.failed++
			}
			continue
		}
		switch op.kind {
		case kindReplan:
			if op.res.Degraded {
				degraded++
				continue
			}
			pk := fmt.Sprintf("%d|%s", op.tenant, t.pool(op.step))
			want, ok := refPlans[pk]
			if !ok {
				ref, err := refs.plan(t.model, t.gpus, t.pool(op.step), sailor.MaxThroughput, sailor.Constraints{})
				if err != nil {
					return nil, fmt.Errorf("reference plan: %w", err)
				}
				want = canonical(ref.res, false)
				refPlans[pk] = want
				inproc = append(inproc, ms(ref.took))
			}
			if !orc.compare(fmt.Sprintf("tenant %d step %d replan", op.tenant, op.step), op.res, want, false) {
				if main {
					o.failed++
				}
				continue
			}
			if !main {
				continue
			}
			nReplan++
			lat = append(lat, op.latMS())
			blocks[op.block].lat = append(blocks[op.block].lat, op.latMS())
			blocks[op.block].ops++
			s := int64(0)
			if !op.res.SpeculativeHit {
				s = int64(op.res.SearchTime)
				search = append(search, ms(op.res.SearchTime))
			}
			if op.traced {
				traced = append(traced, op.latMS()-float64(s)/1e6)
				searchNS[op.id] = s
				callNS[op.id] = op.end - op.send
			} else {
				untraced = append(untraced, op.latMS()-float64(s)/1e6)
			}
			explored += op.res.Explored
			hits += op.res.CacheHits
			if op.res.WarmStart {
				warm++
			}
			g, err := refs.gtIterTime(t.model, t.gpus, op.res.Plan)
			if err != nil {
				return nil, err
			}
			gt = append(gt, g)
			if len(estUS) < 200 {
				sys, _ := refs.get(t.model, t.gpus)
				t0 := time.Now()
				est, err := sys.Simulator().Estimate(op.res.Plan)
				estUS = append(estUS, us(time.Since(t0)))
				if err == nil {
					errPct = append(errPct, 100*abs(est.IterTime-g)/g)
				}
			}
		case kindSimulate:
			if got := mustJSON(wire.FromEstimate(op.est)); string(got) != string(refEst[op.tenant]) {
				orc.failf("tenant %d simulate: wire estimate %s differs from in-process %s", op.tenant, got, refEst[op.tenant])
				if main {
					o.failed++
				}
				continue
			}
			if main {
				simLat = append(simLat, op.latMS())
				blocks[op.block].ops++
			}
		case kindStats:
			if main {
				blocks[op.block].ops++
			}
		}
	}
	o.mismatches = orc.mismatches
	o.commonE2E(setups, blocks, gt)
	o.e2e = append(o.e2e,
		metric{Name: "simulate_ms_p50", Unit: "ms", Value: simLat.median(), Samples: len(simLat)},
		metric{Name: "failed_ratio", Unit: "ratio", Value: ratio(float64(o.failed), float64(o.attempted)), Samples: o.attempted},
		metric{Name: "degraded_ratio", Unit: "ratio", Value: ratio(float64(degraded), float64(nReplan+degraded)), Samples: nReplan + degraded},
	)
	if !cfg.trace {
		o.e2e = append(o.e2e, metric{Name: "sustained_rps", Unit: "1/s", Value: sustained,
			Note: fmt.Sprintf("(ladder %v req/s, %gs each, p99 limit %g ms)", churnLadder, churnRungS, churnLimitMS)})
		return o, nil
	}
	o.commonLayers(ph, sd, nMain)
	o.setLayer("bench.gen_late_ms_p99", "ms", late.pct(99), len(late))
	o.setLayer("planner.search_ms_p50", "ms", search.median(), len(search))
	o.setLayer("planner.search_ms_p99", "ms", search.pct(99), len(search))
	o.setLayer("planner.explored_per_op", "count", ratio(float64(explored), float64(nReplan)), nReplan)
	o.setLayer("planner.cache_hits_per_op", "count", ratio(float64(hits), float64(nReplan)), nReplan)
	o.setLayer("planner.warm_start_ratio", "ratio", ratio(float64(warm), float64(nReplan)), nReplan)
	o.setLayer("planner.inproc_plan_ms_p50", "ms", inproc.median(), len(inproc))
	o.setLayer("sim.estimate_us_p50", "us", estUS.median(), len(estUS))
	o.setLayer("sim.err_pct", "%", errPct.mean(), len(errPct))
	rpc.setLayers(o)
	var enc, dec sample
	for i := 0; i < len(ops) && len(enc) < 200; i++ {
		op := &ops[i]
		if op.kind != kindReplan || op.err != nil {
			continue
		}
		t := env.tenants[op.tenant]
		req := wire.ReplanRequest{V: wire.Version, Job: t.job, Prev: wire.FromPlan(t.initial.Plan), Pool: wire.FromPool(t.pool(op.step)),
			Objective: sailor.MaxThroughput.String(), Constraints: wire.FromConstraints(sailor.Constraints{})}
		e, d := timeJSON(req, wire.PlanResponse{V: wire.Version, Result: wire.FromResult(op.res)}, &wire.PlanResponse{})
		enc, dec = append(enc, e), append(dec, d)
	}
	o.setLayer("wire.encode_us_p50", "us", enc.median(), len(enc))
	o.setLayer("wire.decode_us_p50", "us", dec.median(), len(dec))
	base := lat.median()
	if err := o.traceLayers(p, "replan", traced, untraced, base, searchNS, callNS, spansPath(cfg)); err != nil {
		return nil, err
	}
	return o, nil
}

// ladderMeets reports whether a ladder rate held: p99 of its replans (a
// failed or degraded one counts as missing the limit) within churnLimitMS,
// and no growing backlog — the last third of the rate's replans no slower
// at the median than twice the first third, or both under the limit.
func ladderMeets(ops []churnOp) bool {
	var lat sample
	var byDue []churnOp
	for _, op := range ops {
		if op.kind != kindReplan {
			continue
		}
		v := op.latMS()
		if op.err != nil || op.res.Degraded {
			v = math.Inf(1)
		}
		lat = append(lat, v)
		byDue = append(byDue, op)
	}
	if len(lat) == 0 || lat.pct(99) > churnLimitMS {
		return false
	}
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	third := len(byDue) / 3
	var first, last sample
	for i, op := range byDue {
		switch {
		case i < third:
			first = append(first, op.latMS())
		case i >= len(byDue)-third:
			last = append(last, op.latMS())
		}
	}
	return last.median() <= 2*first.median() || last.median() <= churnLimitMS/2
}
