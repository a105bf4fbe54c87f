package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/sailor"
)

// config is one benchmark run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	ablate    string        // "" or a ServiceConfig knob to flip (see ablations)
	setups    int           // fewest set-ups timed per run
	setupTime time.Duration // least total time spent on them
	corrupt   bool          // alter one served plan before the oracle (self-test)
	spans     string        // span file of a traced run
	workDir   string        // scratch space inside the checkout
}

// A run sets its workload up at least setupRuns times, and until the
// set-ups have taken setupTime, so that fast set-ups repeat more; setup_s
// is the median of their times.
const (
	setupRuns = 9
	setupTime = 3 * time.Second
	maxSetups = 100
)

// ablations are the ServiceConfig knobs --ablate can flip; each names the
// workload whose mechanism it switches off.
var ablations = map[string]string{
	"without-speculation":  "serve-churn",
	"without-incremental":  "serve-churn",
	"sequential-rebalance": "fleet-storm",
}

// serviceConfig is sailor-serve's default configuration (Workers and
// MaxConcurrent default to NumCPU inside the service) with the run's
// ablation applied.
func (c *config) serviceConfig() sailor.ServiceConfig {
	cfg := sailor.ServiceConfig{}
	switch c.ablate {
	case "without-speculation":
		cfg.WithoutSpeculation = true
	case "without-incremental":
		cfg.WithoutIncremental = true
	case "sequential-rebalance":
		cfg.SequentialRebalance = true
	}
	return cfg
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	mismatches        []string
	e2e               []metric // gated metrics first, then workload-specific ones
	layers            map[string]metric
	spans             []span
	blockLine         string // per-block throughput and CPU, for judging noise
}

func fmtList(s sample) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3g", v)
	}
	return out
}

func (o *outcome) setLayer(name, unit string, v float64, n int) {
	if o.layers == nil {
		o.layers = map[string]metric{}
	}
	o.layers[name] = metric{Name: name, Unit: unit, Value: v, Samples: n}
}

// gatedE2E are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds. The latency and throughput figures are printed
// but not bounded: a period of the host's steal that covers a whole run
// moves them by more than any bound allows (see README.md, Noise).
var gatedE2E = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"mem_peak_mb", "MB"},
	{"plan_gt_iters_per_s", "iter/s"},
}

// perLayer are the per-layer metrics of a traced run, in report order. A
// layer a workload does not load reads 0. A workload may report more (the
// open loop's generator lateness); they are printed, not put in the result.
var perLayer = []struct{ name, unit string }{
	{"rpc.req_bytes_per_op", "B"},
	{"rpc.reply_bytes_per_op", "B"},
	{"rpc.overhead_us_p50", "us"},
	{"wire.encode_us_p50", "us"},
	{"wire.decode_us_p50", "us"},
	{"sailor.spec_hit_ratio", "ratio"},
	{"sailor.spec_precomputed_per_hit", "count"},
	{"sailor.shed_ratio", "ratio"},
	{"sailor.degraded_ratio", "ratio"},
	{"sailor.system_cache_hit_ratio", "ratio"},
	{"sailor.other_us_p50", "us"},
	{"planner.search_ms_p50", "ms"},
	{"planner.search_ms_p99", "ms"},
	{"planner.explored_per_op", "count"},
	{"planner.cache_hits_per_op", "count"},
	{"planner.warm_start_ratio", "ratio"},
	{"planner.inproc_plan_ms_p50", "ms"},
	{"sim.estimate_us_p50", "us"},
	{"sim.err_pct", "%"},
	{"profiler.collect_ms", "ms"},
	{"persist.append_us_p50", "us"},
	{"persist.append_us_p99", "us"},
	{"persist.records_per_op", "count"},
	{"persist.journal_bytes_per_op", "B"},
	{"persist.fsync_us_p50", "us"},
	{"persist.fsyncs_per_op", "count"},
	{"persist.rotate_ms", "ms"},
	{"persist.records_replayed", "count"},
	{"fleet.ledger_ops_per_step.install", "count"},
	{"fleet.ledger_ops_per_step.release", "count"},
	{"fleet.ledger_ops_per_step.apply", "count"},
	{"fleet.leases_broken_per_event", "count"},
	{"fleet.replans_per_step", "count"},
	{"fleet.post_recovery_step_ms_p50", "ms"},
	{"fleet.inproc_step_ms_p50", "ms"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_cpu_fraction", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"share.op.wait_pct", "%"},
	{"share.op.client_pct", "%"},
	{"share.op.server_pct", "%"},
	{"share.op.search_pct", "%"},
	{"share.op.journal_pct", "%"},
	{"share.op.fsync_pct", "%"},
	{"share.simulate.rpc_pct", "%"},
}

// counters is a snapshot of the probes' running counts.
type counters struct {
	req, reply, records, jbytes, fsyncs int64
	ledger                              [8]int64
}

func (p *probes) counters() counters {
	c := counters{
		req: p.reqBytes.Load(), reply: p.replyBytes.Load(), records: p.records.Load(),
		jbytes: p.journalBytes.Load(), fsyncs: p.fsyncs.Load(),
	}
	for i := range c.ledger {
		c.ledger[i] = p.ledgerOps[i].Load()
	}
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{req: c.req - o.req, reply: c.reply - o.reply, records: c.records - o.records,
		jbytes: c.jbytes - o.jbytes, fsyncs: c.fsyncs - o.fsyncs}
	for i := range d.ledger {
		d.ledger[i] = c.ledger[i] - o.ledger[i]
	}
	return d
}

// svcDelta is the change in a Service's counters over the timed phase,
// summed over daemon incarnations.
type svcDelta struct {
	requests, plans, replans, overloaded, degraded uint64
	specHits, specMisses, specPre                  uint64
	sysHits, sysMisses                             uint64
}

func (d *svcDelta) add(a, b sailor.ServiceStats) {
	d.requests += b.Requests - a.Requests
	d.plans += b.Plans - a.Plans
	d.replans += b.Replans - a.Replans
	d.overloaded += b.Overloaded - a.Overloaded
	d.degraded += b.Degraded - a.Degraded
	d.specHits += b.SpecHits - a.SpecHits
	d.specMisses += b.SpecMisses - a.SpecMisses
	d.specPre += b.SpecPrecomputed - a.SpecPrecomputed
}

// addCache adds an incarnation's lifetime shared-System cache counts (its
// set-up opens are where the cache does its work).
func (d *svcDelta) addCache(s sailor.ServiceStats) {
	d.sysHits += s.SystemCacheHits
	d.sysMisses += s.SystemCacheMisses
}

// phase brackets the timed part of a run.
type phase struct {
	u0, u1 usage
	c0, c1 counters
	mem    *memSampler
	cal    *calib
	aside  asideCost // the benchmark's own bookkeeping inside the phase
}

// asideCost is what bookkeeping run through phase.setAside has cost.
type asideCost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

// startPhase collects set-up's garbage first, so memory peaks are the
// timed phase's own.
func startPhase(p *probes) *phase {
	cal := newCalib()
	runtime.GC()
	return &phase{u0: readUsage(), c0: p.counters(), mem: startMemSampler(), cal: cal}
}

// tick runs a calibration slice when one is due (see calib.go), between
// ops, and keeps its cost out of the blocks like other bookkeeping.
func (ph *phase) tick() {
	a0, b0 := allocCounts()
	wall, cpu := ph.cal.tick()
	if wall == 0 {
		return
	}
	a1, b1 := allocCounts()
	ph.aside.wall += wall
	ph.aside.cpu += cpu
	ph.aside.mallocs += a1 - a0
	ph.aside.bytes += b1 - b0
}

func (ph *phase) stop(p *probes) {
	ph.u1 = readUsage()
	ph.c1 = p.counters()
	ph.mem.stop()
}

// mark is where a block began.
type mark struct {
	at     time.Time
	cpu    time.Duration
	aside  asideCost
	host   hostCPU
	calCPU time.Duration
	calN   int
}

func (ph *phase) begin() mark {
	ph.mem.cut()
	return mark{at: time.Now(), cpu: cpuNow(), aside: ph.aside, host: readHostCPU(), calCPU: ph.cal.cpu, calN: ph.cal.n}
}

// finish closes b, begun at m: its wall time and CPU less the bookkeeping
// set aside inside it, its memory peak, and the host's steal over it.
func (ph *phase) finish(m mark, b *block) {
	b.wall = time.Since(m.at) - (ph.aside.wall - m.aside.wall)
	b.cpu = cpuNow() - m.cpu - (ph.aside.cpu - m.aside.cpu)
	b.mem = ph.mem.cut()
	b.steal = readHostCPU().stealSince(m.host)
	b.speed = speed(ph.cal.cpu-m.calCPU, ph.cal.n-m.calN)
}

// setAside runs f, the benchmark's own bookkeeping inside a timed phase
// (reading state for the oracle), and keeps its wall time, CPU and
// allocations out of the blocks and per-op figures around it.
func (ph *phase) setAside(f func()) {
	a0, b0 := allocCounts()
	t0, c0 := time.Now(), cpuNow()
	f()
	ph.aside.wall += time.Since(t0)
	ph.aside.cpu += cpuNow() - c0
	a1, b1 := allocCounts()
	ph.aside.mallocs += a1 - a0
	ph.aside.bytes += b1 - b0
}

// commonLayers fills the per-layer metrics every workload derives the same
// way; nops is the number of timed operations.
func (o *outcome) commonLayers(ph *phase, sd svcDelta, nops int) {
	c := ph.c1.minus(ph.c0)
	n := float64(nops)
	o.setLayer("rpc.req_bytes_per_op", "B", ratio(float64(c.req), n), nops)
	o.setLayer("rpc.reply_bytes_per_op", "B", ratio(float64(c.reply), n), nops)
	o.setLayer("persist.records_per_op", "count", ratio(float64(c.records), n), nops)
	o.setLayer("persist.journal_bytes_per_op", "B", ratio(float64(c.jbytes), n), nops)
	o.setLayer("persist.fsyncs_per_op", "count", ratio(float64(c.fsyncs), n), nops)
	o.setLayer("sailor.spec_hit_ratio", "ratio", ratio(float64(sd.specHits), float64(sd.specHits+sd.specMisses)), int(sd.specHits+sd.specMisses))
	o.setLayer("sailor.spec_precomputed_per_hit", "count", ratio(float64(sd.specPre), float64(sd.specHits)), int(sd.specHits))
	o.setLayer("sailor.shed_ratio", "ratio", ratio(float64(sd.overloaded), float64(sd.requests)), int(sd.requests))
	o.setLayer("sailor.degraded_ratio", "ratio", ratio(float64(sd.degraded), float64(sd.plans+sd.replans)), int(sd.plans+sd.replans))
	o.setLayer("sailor.system_cache_hit_ratio", "ratio", ratio(float64(sd.sysHits), float64(sd.sysHits+sd.sysMisses)), int(sd.sysHits+sd.sysMisses))
	o.setLayer("go.allocs_per_op", "count", ratio(float64(ph.u1.mallocs-ph.u0.mallocs-ph.aside.mallocs), n), nops)
	o.setLayer("go.bytes_per_op", "B", ratio(float64(ph.u1.bytes-ph.u0.bytes-ph.aside.bytes), n), nops)
	o.setLayer("go.gc_cpu_fraction", "ratio", ratio(ph.u1.gcCPU-ph.u0.gcCPU, ph.u1.allCPU-ph.u0.allCPU), 0)
	for k, name := range map[fleet.OpKind]string{fleet.OpInstall: "install", fleet.OpRelease: "release", fleet.OpApply: "apply"} {
		o.setLayer("fleet.ledger_ops_per_step."+name, "count", ratio(float64(c.ledger[k]), n), nops)
	}
}

// block is one equal part of a timed phase: a burst period (serve-churn),
// a design cycle (cold-geo) or a crash interval (fleet-storm). Latency and
// throughput are taken over the calm blocks only, so a transient
// disturbance on a shared machine drops a block instead of moving the
// result; CPU is scaled by the block's calibration speed instead.
type block struct {
	lat       sample // latencies (ms) of the block's correct timed ops
	ops       int    // requests the block served (the per-op denominator)
	wall, cpu time.Duration
	mem       float64 // peak MiB the Go runtime held from the OS
	steal     float64 // share of the host's CPU time its hypervisor stole
	speed     float64 // calibration slice CPU over its reference (1 = reference speed)
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealMax is the share of the host's CPU time its hypervisor may steal
// during a block or set-up before it counts as disturbed. On a shared VM,
// steal comes in bursts and in periods of minutes; a few percent of it
// slows every op of a block by a sixth or more, since both service
// workers wait on a descheduled vCPU.
const stealMax = 0.025

// calm returns the indices of the intervals whose steal stays within
// stealMax or, when fewer than a quarter of them do, of the quarter with
// the least steal. Which intervals count depends only on the host's steal
// counters, never on the figures measured in them.
func calm(steal []float64) []int {
	var kept []int
	for i, s := range steal {
		if s <= stealMax {
			kept = append(kept, i)
		}
	}
	if least := (len(steal) + 3) / 4; len(kept) < least {
		order := make([]int, len(steal))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return steal[order[x]] < steal[order[y]] })
		kept = order[:least]
		sort.Ints(kept)
	}
	return kept
}

// undisturbed returns the indices of the calm blocks among those with ops,
// and how many had ops.
func undisturbed(blocks []block) (kept []int, valid int) {
	var idx []int
	var steal []float64
	for i, b := range blocks {
		if len(b.lat) > 0 && b.ops > 0 && b.wall > 0 {
			idx = append(idx, i)
			steal = append(steal, b.steal)
		}
	}
	for _, k := range calm(steal) {
		kept = append(kept, idx[k])
	}
	return kept, len(idx)
}

// blockLine lists each block's throughput, CPU per op, median latency,
// peak memory and steal, marking with * the blocks left out as disturbed.
func blockLine(blocks []block, kept []int) string {
	in := map[int]bool{}
	for _, i := range kept {
		in[i] = true
	}
	line := "blocks (ops/s cpu-ms/op p50-ms mem-MB steal-% speed):"
	for i, b := range blocks {
		if len(b.lat) == 0 || b.ops == 0 || b.wall <= 0 {
			continue
		}
		mark := "*"
		if in[i] {
			mark = ""
		}
		line += fmt.Sprintf(" [%.3g %.3g %.3g %.3g %.2g %.3g%s]", float64(b.ops)/b.wall.Seconds(), ms(b.cpu)/float64(b.ops), b.lat.median(), b.mem, 100*b.steal, b.speed, mark)
	}
	return line
}

// commonE2E fills the end-to-end metrics derived the same way everywhere:
// set-up time (the median of the calm set-ups); the op's latency and
// throughput over the calm blocks; CPU per op over every block that ran a
// calibration slice; peak memory (the median of per-block peaks); and
// plan quality. A latency percentile is the
// median of per-block percentiles when every block has the 100 samples a
// p90 needs (10 beyond it); otherwise (cold-geo's 60-request cycles) it is
// taken over the calm blocks' ops pooled.
func (o *outcome) commonE2E(setups setupTimes, blocks []block, gt []float64) {
	kept, total := undisturbed(blocks)
	o.blockLine = blockLine(blocks, kept)
	var p50, p90, mem, all sample
	var wall time.Duration
	ops, perBlock := 0, true
	for _, i := range kept {
		b := blocks[i]
		perBlock = perBlock && len(b.lat) >= 100
		p50 = append(p50, b.lat.median())
		p90 = append(p90, b.lat.pct(90))
		wall += b.wall
		all = append(all, b.lat...)
		ops += b.ops
	}
	// Steal does not change what the heap holds: memory takes every block.
	// CPU per op takes every block too, each at the calibration's
	// reference speed (see calib.go): a fixed mix of the trace, whatever
	// the host did during it.
	var cpuRef, cpuRaw float64
	cpuOps := 0
	for _, b := range blocks {
		if b.ops == 0 {
			continue
		}
		mem = append(mem, b.mem)
		if b.speed > 0 {
			cpuRef += ms(b.cpu) / b.speed
			cpuRaw += ms(b.cpu)
			cpuOps += b.ops
		}
	}
	note := fmt.Sprintf("(over %d calm of %d blocks)", len(kept), total)
	latNote := fmt.Sprintf("(the %d calm of %d blocks' ops pooled)", len(kept), total)
	if perBlock {
		latNote = fmt.Sprintf("(median over %d calm of %d blocks)", len(kept), total)
	} else {
		p50, p90 = sample{all.median()}, sample{all.pct(90)}
	}
	o.e2e = append(o.e2e,
		setups.metric(),
		metric{Name: "op_ms_p50", Unit: "ms", Value: p50.median(), Samples: len(all), Note: latNote},
		metric{Name: "op_ms_p90", Unit: "ms", Value: p90.median(), Samples: len(all), Note: latNote},
		metric{Name: "ops_per_s", Unit: "1/s", Value: ratio(float64(ops), wall.Seconds()), Samples: ops, Note: note},
		metric{Name: "cpu_ms_per_op", Unit: "ms", Value: ratio(cpuRef, float64(cpuOps)), Samples: cpuOps,
			Note: fmt.Sprintf("(every block, at the calibration's reference CPU speed; %.4g ms as measured)", ratio(cpuRaw, float64(cpuOps)))},
		metric{Name: "mem_peak_mb", Unit: "MB", Value: mem.median(), Note: fmt.Sprintf("(median over %d blocks of the peak memory the Go runtime held from the OS)", len(mem))},
	)
	inv := make([]float64, 0, len(gt))
	for _, t := range gt {
		if t > 0 {
			inv = append(inv, 1/t)
		}
	}
	o.e2e = append(o.e2e, metric{Name: "plan_gt_iters_per_s", Unit: "iter/s", Value: geomean(inv), Samples: len(inv), Note: "(geomean over served MaxThroughput plans)"})
	if tp := tailPct(len(all)); tp != 90 {
		o.e2e = append(o.e2e, metric{Name: fmt.Sprintf("op_ms_p%g", tp), Unit: "ms", Value: all.pct(tp), Samples: len(all),
			Note: "(the highest percentile with >=10 samples beyond)"})
	}
}

// traceLayers derives the span-based per-layer metrics of a traced run:
// the trace-overhead pair (traced vs untraced ops of the same run), journal
// append and fsync latencies, the rest-of-request time, and layer shares.
//
// traced and untraced hold each op's latency minus its on-path search time
// (ms): tracing costs nothing inside the search, so comparing the rest
// keeps the pair from drowning in the spread of search times. The
// difference is reported as a share of base, the run's op_ms_p50.
func (o *outcome) traceLayers(p *probes, kind string, traced, untraced sample, base float64, searchNS, callNS map[int64]int64, spansPath string) error {
	spans := buildSpans(&p.log)
	o.spans = spans
	var app, fs sample
	for _, s := range spans {
		switch s.Name {
		case "persist.append":
			app = append(app, float64(s.dur())/1e3)
		case "journal.fsync":
			fs = append(fs, float64(s.dur())/1e3)
		}
	}
	o.setLayer("persist.append_us_p50", "us", app.median(), len(app))
	o.setLayer("persist.append_us_p99", "us", app.pct(99), len(app))
	o.setLayer("persist.fsync_us_p50", "us", fs.median(), len(fs))
	appNS := opAppendNS(spans)
	var other sample
	for op, c := range callNS {
		if _, ok := searchNS[op]; !ok {
			continue
		}
		v := c - searchNS[op] - appNS[op]
		if v < 0 {
			v = 0
		}
		other = append(other, float64(v)/1e3)
	}
	o.setLayer("sailor.other_us_p50", "us", other.median(), len(other))
	if len(traced) > 0 && len(untraced) > 0 {
		o.setLayer("bench.trace_overhead_pct", "%", 100*ratio(traced.median()-untraced.median(), base), len(traced)+len(untraced))
	}
	sh := layerShares(spans, kind)
	for _, l := range []string{"wait", "client", "server", "search", "journal", "fsync"} {
		o.setLayer("share.op."+l+"_pct", "%", sh[l], 0)
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// runOne runs a workload once.
func runOne(cfg *config) (*outcome, error) {
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := newProbes()
	switch cfg.workload {
	case "serve-churn":
		return runServeChurn(cfg, p, dir)
	case "cold-geo":
		return runColdGeo(cfg, p, dir)
	case "fleet-storm":
		return runFleetStorm(cfg, p, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want serve-churn, cold-geo or fleet-storm)", cfg.workload)
}

// report prints every metric by name, then the result line.
func report(cfg *config, o *outcome) bool {
	correct := len(o.mismatches) == 0
	for i, m := range o.mismatches {
		if i == 20 {
			break
		}
		fmt.Println("oracle:", m)
	}
	if n := len(o.mismatches); n > 0 {
		fmt.Printf("oracle: %d mismatches\n", n)
	}
	fmt.Printf("workload %s seed %d: attempted %d, failed %d\n", cfg.workload, cfg.seed, o.attempted, o.failed)
	if cfg.ablate != "" {
		fmt.Printf("ablation: %s (its on/off pair is measured on %s)\n", cfg.ablate, ablations[cfg.ablate])
	}
	out := map[string]any{}
	if cfg.trace {
		fmt.Println("per-layer metrics (traced run):")
		for _, l := range perLayer {
			m, ok := o.layers[l.name]
			if !ok {
				m = metric{Name: l.name, Unit: l.unit}
			}
			fmt.Println("  " + m.String())
			out[l.name] = map[string]any{"value": m.Value, "unit": l.unit}
		}
		for _, name := range sortedKeys(o.layers) {
			if _, ok := out[name]; !ok {
				fmt.Println("  " + o.layers[name].String() + " (workload-specific)")
			}
		}
	} else {
		fmt.Println(o.blockLine)
		fmt.Println("end-to-end metrics:")
		byName := map[string]metric{}
		for _, m := range o.e2e {
			fmt.Println("  " + m.String())
			byName[m.Name] = m
		}
		for _, g := range gatedE2E {
			out[g.name] = map[string]any{"value": byName[g.name].Value, "unit": g.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": out})
	fmt.Println(string(line))
	return correct
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire DTOs always marshal
	}
	return b
}

// deadlineCtx is a request context with the workload's deadline.
func deadlineCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func spansPath(cfg *config) string {
	if cfg.spans != "" {
		return cfg.spans
	}
	return filepath.Join(filepath.Dir(cfg.workDir), "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}
