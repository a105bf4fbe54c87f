package sailor

// Service is the multi-tenant front door of the planner: the paper's
// long-lived control plane (§5.5) that plans and replans many jobs as
// availability shifts, reshaped as a request/response API that can cross a
// wire. Tenants open named jobs, plan/replan/simulate against them, and
// close them; behind the front door the service shares profiled Systems
// between jobs with the same shape, keeps one WarmCache per job for replan
// continuity, and bounds how many planner searches run at once across all
// tenants.
//
// Determinism contract: a Plan or Replan answered by a Service (in-process
// or through sailor-serve) is byte-identical on the wire codec — plan,
// estimate, Explored, CacheHits, WarmStart — to what System.Plan or
// System.Replan returns for the same request history, at any worker count.
// Only the wall-clock SearchTime field differs between runs.

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/planner"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrNoFleet is returned by the fleet-mode calls (FleetEvent, Rebalance,
// FleetStats) of a service that has no capacity ledger configured.
var ErrNoFleet = errors.New("sailor: fleet mode not enabled (set ServiceConfig.Fleet or call SetFleet)")

// ErrOverloaded is the typed error of a request shed because the planner
// wait queue was full (ServiceConfig.MaxQueued). It is rpc.ErrOverloaded,
// so the condition survives the wire round-trip and the client retry
// policy classifies it as retryable-with-backoff.
var ErrOverloaded = rpc.ErrOverloaded

// WireVersion is the serving API's schema version: every request and
// response message carries it, and mismatched generations refuse each
// other loudly (see internal/wire).
const WireVersion = wire.Version

// ServiceStats is a point-in-time snapshot of a Service's counters.
type ServiceStats = wire.ServiceStats

// FleetStats is a point-in-time snapshot of the fleet capacity ledger.
type FleetStats = wire.FleetStats

// LeaseInfo is one row of the fleet's per-job lease table.
type LeaseInfo = wire.LeaseInfo

// RebalanceStep is one job's outcome in a Rebalance pass.
type RebalanceStep = wire.RebalanceStep

// Ledger is the shared cluster-state capacity ledger of fleet mode: total
// fleet capacity, per-job leases, and deterministic preemption under
// availability events. Build one with NewLedger and hand it to
// ServiceConfig.Fleet (or call Service.SetFleet).
type Ledger = fleet.Ledger

// Lease is one job's hold on fleet capacity.
type Lease = fleet.Lease

// ErrLeaseConflict is the typed error of a lease grant that lost the
// admission race against the fleet's free capacity.
var ErrLeaseConflict = fleet.ErrConflict

// NewLedger returns a fleet ledger over a total-capacity pool (which may be
// empty when capacity arrives through availability events).
func NewLedger(capacity *Pool) *Ledger { return fleet.NewLedger(capacity) }

// ServiceConfig tunes a Service. The zero value is a working default.
type ServiceConfig struct {
	// Workers is the planner search parallelism of every job's searches
	// (0 = runtime.NumCPU()). Plans are identical at any setting.
	Workers int
	// MaxConcurrent bounds how many planner searches (plans + replans) run
	// at once across all tenants; excess requests queue (0 = NumCPU).
	MaxConcurrent int
	// MaxQueued bounds how many requests may wait for a planner slot once
	// all MaxConcurrent are busy; requests beyond the bound are shed
	// immediately with ErrOverloaded instead of queueing without limit
	// (0 = 8×MaxConcurrent, negative = unbounded).
	MaxQueued int
	// SystemCacheSize caps the LRU of profiled Systems shared between jobs
	// with the same (model, GPU set, seed) shape (0 = 16).
	SystemCacheSize int
	// Seed fixes the profiling/ground-truth seed of every System the
	// service builds (0 = 1, the sailor.New default).
	Seed uint64
	// Fleet, when set, runs the service in fleet mode: all jobs plan
	// through this shared cluster-state ledger instead of caller-supplied
	// pools. Plan and Replan search the ledger's free-capacity view and
	// acquire a lease for the plan they return; availability events applied
	// via FleetEvent preempt leases in deterministic admission order; and
	// Rebalance replans every leaseless job, warm, in priority order.
	Fleet *fleet.Ledger
	// WithoutSpeculation disables the speculative plan prefetch layer of
	// non-fleet Replan (see speculation.go): no forecasting, no prefetch
	// cache, every replan runs its search. Fleet mode never speculates.
	// Ablation/bisection knob — plans and estimates are identical either
	// way; only latency and the spec_* counters change.
	WithoutSpeculation bool
	// WithoutIncremental disables the planner's delta-scoped incremental
	// replanning probe in every search the service runs, foreground and
	// speculative alike. Ablation knob — plans are identical either way
	// (the probe only ever serves provably exact winners).
	WithoutIncremental bool
	// SequentialRebalance makes Rebalance search every job inline at its
	// turn, in one goroutine, strictly in admission order: the pass runs
	// with an empty solo set. The default (false) first searches jobs whose
	// reachable fleet cells are disjoint concurrently, then commits in the
	// same admission order, which produces byte-identical steps, plans, and
	// ledger trajectories (asserted by TestRebalancePartitionedDeterminism);
	// the knob exists for ablation and bisection.
	SequentialRebalance bool
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = goruntime.NumCPU()
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 8 * c.MaxConcurrent
	}
	if c.SystemCacheSize <= 0 {
		c.SystemCacheSize = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// API is the request/response surface the in-process Service and the wire
// Client share, so CLIs and embedders drive either interchangeably.
type API interface {
	// OpenJob registers a named job: the model to plan for, the GPU types
	// its pools may contain, and the job's fleet priority (higher keeps
	// capacity longer under contention; ignored outside fleet mode).
	OpenJob(job string, m Model, gpus []GPUType, priority int) error
	// Plan searches cold for a plan of pool under the objective and
	// constraints. In fleet mode the shared ledger's free-capacity view
	// replaces pool, and the returned plan holds a lease on the fleet.
	Plan(ctx context.Context, job string, pool *Pool, obj Objective, cons Constraints) (PlanResult, error)
	// Replan warm-starts from the job's previously deployed plan and its
	// persistent warm cache. Fleet mode behaves as in Plan.
	Replan(ctx context.Context, job string, prev Plan, pool *Pool, obj Objective, cons Constraints) (PlanResult, error)
	// Simulate evaluates a plan with the job's analytical simulator.
	Simulate(job string, plan Plan) (Estimate, error)
	// CloseJob releases a job — and, in fleet mode, its lease; its shared
	// profiled System stays cached.
	CloseJob(job string) error
	// Stats snapshots the service counters.
	Stats() (ServiceStats, error)

	// Fleet mode. All but SetFleet return ErrNoFleet without a ledger.

	// SetFleet installs (or replaces) the fleet capacity ledger, enabling
	// fleet mode; jobCapGPUs bounds any single lease (0 = unlimited).
	// Replacing an active ledger drops every lease — an operator reset,
	// not a routine call.
	SetFleet(capacity *Pool, jobCapGPUs int) error
	// FleetEvent applies one availability event to the fleet and returns
	// the leases it broke, in admission order; the broken jobs replan on
	// the next Rebalance.
	FleetEvent(ev TraceEvent) ([]LeaseInfo, error)
	// Rebalance replans every open job that holds no lease — preempted and
	// not-yet-admitted jobs alike — in deterministic priority order
	// (priority descending, then job name ascending), warm where the job
	// deployed before, and leases the resulting plans.
	Rebalance(ctx context.Context) ([]RebalanceStep, error)
	// FleetStats snapshots the ledger: capacity, free view, lease table.
	FleetStats() (FleetStats, error)
}

// Service implements API in-process. It is safe for concurrent use by any
// number of tenants.
type Service struct {
	cfg   ServiceConfig
	start time.Time
	sem   chan struct{}

	mu       sync.Mutex
	jobs     map[string]*serviceJob
	systems  *systemLRU
	fleet    *fleet.Ledger
	rec      Recorder            // mutation recorder (nil = not durable)
	recovery *wire.RecoveryStats // set by Restore; surfaced in Stats

	requests  atomic.Uint64
	plans     atomic.Uint64
	replans   atomic.Uint64
	simulates atomic.Uint64
	errors    atomic.Uint64
	inflight  atomic.Int64
	sysHits   atomic.Uint64
	sysMisses atomic.Uint64

	// queued counts requests currently waiting for a planner slot;
	// overloaded and degraded are the resilience telemetry of Stats.
	queued     atomic.Int64
	overloaded atomic.Uint64
	degraded   atomic.Uint64

	// specWG tracks in-flight speculative prefetch workers (see
	// speculation.go; Quiesce waits on it).
	specWG sync.WaitGroup

	specHits        atomic.Uint64
	specMisses      atomic.Uint64
	specPrecomputed atomic.Uint64
}

var _ API = (*Service)(nil)

// serviceJob is one tenant's named job: a (possibly shared) profiled
// System plus the job's private warm-start cache, so replan continuity
// never leaks between tenants that share a System. In fleet mode the job
// also remembers its priority and the last deployed plan/objective, which
// seed the warm replans Rebalance runs after the job's lease breaks.
type serviceJob struct {
	// sys is the job's profiled System. It is nil for a job restored from a
	// durable snapshot until the first request touches it (jobSystem):
	// recovery re-registers jobs instantly and profiling re-warms lazily.
	sys  *System
	warm *planner.WarmCache

	// model is the job's declared training config — the profile key that
	// rebuilds sys lazily after a restore.
	model Model

	// gpus is the job's declared GPU-type set: the cells of the fleet its
	// searches may draw from (fleet views are filtered to these types) and
	// the key of the rebalance conflict partitioning.
	gpus     []GPUType
	priority int
	// lastPlan/lastObj/lastCons are the job's most recent successful
	// request, guarded by Service.mu.
	lastPlan Plan
	lastObj  Objective
	lastCons Constraints

	// spec is the job's speculation cache (self-locked; the zero value is
	// ready, so restored jobs need no extra wiring) and forecast the pool
	// forecaster feeding it, nil until the job's first replan and guarded
	// by Service.mu.
	spec     specCache
	forecast *trace.Forecaster
}

// NewService returns an empty multi-tenant planning service.
func NewService(cfg ServiceConfig) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:     cfg,
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		jobs:    map[string]*serviceJob{},
		systems: newSystemLRU(cfg.SystemCacheSize),
		fleet:   cfg.Fleet,
	}
}

// ledger returns the current fleet ledger (nil outside fleet mode).
func (s *Service) ledger() *fleet.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet
}

// systemKey identifies a profiled System shape: model, GPU set (order
// insensitive — profiles are per-type), and seed.
func (s *Service) systemKey(m Model, gpus []GPUType) string {
	names := make([]string, len(gpus))
	for i, g := range gpus {
		names[i] = string(g)
	}
	sort.Strings(names)
	return fmt.Sprintf("%+v|%s|seed%d|w%d", m, strings.Join(names, ","), s.cfg.Seed, s.cfg.Workers)
}

// OpenJob registers a named job. Jobs with the same (model, GPU set, seed)
// shape share one profiled System — the profiling campaign runs once per
// shape, not once per tenant — while each job gets its own WarmCache.
// Priority orders the job in fleet mode (higher keeps capacity longer under
// contention and replans earlier); it is recorded but unused otherwise.
func (s *Service) OpenJob(job string, m Model, gpus []GPUType, priority int) error {
	if job == "" {
		return fmt.Errorf("sailor: empty job name")
	}
	if len(gpus) == 0 {
		return fmt.Errorf("sailor: job %q lists no GPU types", job)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[job]; ok {
		return fmt.Errorf("sailor: job %q already open", job)
	}
	sys, err := s.systemLocked(m, gpus)
	if err != nil {
		return fmt.Errorf("sailor: open job %q: %w", job, err)
	}
	s.jobs[job] = &serviceJob{sys: sys, warm: planner.NewWarmCache(), model: m,
		gpus: append([]GPUType(nil), gpus...), priority: priority, lastObj: MaxThroughput}
	if s.rec != nil {
		s.rec.RecordOpenJob(job, m, gpus, priority)
	}
	return nil
}

// systemLocked returns the shared profiled System of shape (m, gpus),
// building and caching it on miss. Callers hold s.mu.
func (s *Service) systemLocked(m Model, gpus []GPUType) (*System, error) {
	key := s.systemKey(m, gpus)
	sys, ok := s.systems.get(key)
	if ok {
		s.sysHits.Add(1)
		return sys, nil
	}
	s.sysMisses.Add(1)
	sys, err := New(m, gpus, WithSeed(s.cfg.Seed), WithWorkers(s.cfg.Workers))
	if err != nil {
		return nil, err
	}
	s.systems.put(key, sys)
	return sys, nil
}

// jobSystem returns j's profiled System, building it on first use: a job
// restored from a durable snapshot re-registers without a System, and the
// profiling campaign re-warms lazily at the job's first request.
func (s *Service) jobSystem(j *serviceJob) (*System, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.sys != nil {
		return j.sys, nil
	}
	sys, err := s.systemLocked(j.model, j.gpus)
	if err != nil {
		return nil, fmt.Errorf("sailor: rebuild profiled system: %w", err)
	}
	j.sys = sys
	return sys, nil
}

// CloseJob releases a named job and, in fleet mode, its lease. The job's
// shared System stays in the LRU for future tenants; its warm cache is
// dropped.
func (s *Service) CloseJob(job string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[job]; !ok {
		return fmt.Errorf("sailor: job %q not open", job)
	}
	delete(s.jobs, job)
	if s.fleet != nil {
		// In durable mode the release journals first (through the ledger
		// observer), so replay sees the lease drop before the close.
		s.fleet.Release(job)
	}
	if s.rec != nil {
		s.rec.RecordCloseJob(job)
	}
	return nil
}

func (s *Service) job(name string) (*serviceJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return nil, fmt.Errorf("sailor: job %q not open (OpenJob first)", name)
	}
	return j, nil
}

// begin books a request of one class; the returned func ends it.
func (s *Service) begin(class *atomic.Uint64) func(err error) {
	s.requests.Add(1)
	class.Add(1)
	s.inflight.Add(1)
	return func(err error) {
		if err != nil {
			s.errors.Add(1)
		}
		s.inflight.Add(-1)
	}
}

// acquire takes a planner-concurrency slot, honoring ctx while queued.
// When every slot is busy the request joins a bounded wait queue
// (ServiceConfig.MaxQueued); joining past the bound sheds the request
// immediately with ErrOverloaded — back-pressure a remote client's retry
// policy can see and back off from, instead of an unbounded pile-up.
func (s *Service) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if max := s.cfg.MaxQueued; max >= 0 {
		if q := s.queued.Add(1); q > int64(max) {
			s.queued.Add(-1)
			s.overloaded.Add(1)
			return fmt.Errorf("sailor: planner queue full (%d waiting, max %d): %w", q-1, max, ErrOverloaded)
		}
		defer s.queued.Add(-1)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sailor: queued request cancelled: %w", ctx.Err())
	}
}

// degrade is the graceful-degradation path of Plan and Replan: when a
// search was cut off by the request deadline and the job has a warm
// incumbent (its last successful plan), answer with the incumbent
// re-estimated and marked Degraded instead of surfacing the deadline
// error. The ledger is never touched — in fleet mode the incumbent's
// lease (if any) is exactly what the job already holds. Cancellation and
// overload shedding do not degrade: a cancelled caller is gone, and a
// shed request must surface ErrOverloaded so the client backs off.
func (s *Service) degrade(ctx context.Context, j *serviceJob, searchErr error) (PlanResult, bool) {
	if !errors.Is(searchErr, context.DeadlineExceeded) && !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return PlanResult{}, false
	}
	if errors.Is(searchErr, ErrOverloaded) {
		return PlanResult{}, false
	}
	s.mu.Lock()
	prev := j.lastPlan
	s.mu.Unlock()
	if len(prev.Stages) == 0 {
		return PlanResult{}, false
	}
	sys, err := s.jobSystem(j)
	if err != nil {
		return PlanResult{}, false
	}
	est, err := sys.simulator.Estimate(prev)
	if err != nil {
		return PlanResult{}, false
	}
	s.degraded.Add(1)
	return PlanResult{Plan: prev, Estimate: est, Degraded: true}, true
}

// Plan implements API: a cold planner search, identical to System.Plan on
// the same inputs. In fleet mode the search runs over the shared ledger's
// free view (pool is ignored — the ledger is authoritative) and the
// returned plan holds a lease.
func (s *Service) Plan(ctx context.Context, job string, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	return s.serve(ctx, &s.plans, job, Plan{}, false, pool, obj, cons)
}

// Replan implements API: a warm replan against the job's private cache,
// identical to System.Replan given the same request history. Fleet mode
// behaves as in Plan. When the speculation layer precomputed this exact
// request (see speculation.go) the cached result returns without a search
// and without waiting for a planner slot.
func (s *Service) Replan(ctx context.Context, job string, prev Plan, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	return s.serve(ctx, &s.replans, job, prev, true, pool, obj, cons)
}

// serve is the one request path of Plan and Replan: look the job up, take a
// planner slot, search (leased in fleet mode), degrade a deadline-cut search
// to the job's incumbent, and remember the result. The two calls differ only
// in prev and in warm — whether the search uses the job's warm cache, and
// (outside fleet mode) the speculation cache.
func (s *Service) serve(ctx context.Context, class *atomic.Uint64, job string, prev Plan, warm bool, pool *Pool, obj Objective, cons Constraints) (res PlanResult, err error) {
	done := s.begin(class)
	defer func() { done(err) }()
	j, err := s.job(job)
	if err != nil {
		return PlanResult{}, err
	}
	led := s.ledger()
	spec := warm && led == nil && !s.cfg.WithoutSpeculation
	if spec {
		if hit, ok := s.consultSpec(j, pool, prev, obj, cons); ok {
			s.recordPlan(job, j, hit.Plan, obj, cons)
			s.observeReplan(job, j, pool, hit.Plan, obj, cons)
			return hit, nil
		}
	}
	if err = s.acquire(ctx); err == nil {
		if led != nil {
			res, err = s.planFleet(ctx, job, j, led, prev, warm, obj, cons)
		} else {
			res, err = s.search(ctx, j, prev, pool, obj, cons, s.warmFor(j, warm), false)
		}
		// Release before the prefetch round below, so speculation starts
		// with at least this request's own slot idle.
		<-s.sem
	}
	if err != nil {
		if deg, ok := s.degrade(ctx, j, err); ok {
			return deg, nil
		}
		return res, err
	}
	if led == nil {
		// planFleet's commit already recorded a fleet plan with its lease.
		s.recordPlan(job, j, res.Plan, obj, cons)
		if spec {
			s.observeReplan(job, j, pool, res.Plan, obj, cons)
		}
	}
	return res, nil
}

// search runs one planner search for job j over pool: the job's System with
// the service's options, warm as the warm cache (nil = none), and, when
// guard is set, a capacity guard over pool. Every search the service runs —
// foreground, fleet, or prefetch — goes through it, so WithoutIncremental
// disables the delta-scoped probe uniformly. An empty prev makes it exactly
// a cold PlanContext.
func (s *Service) search(ctx context.Context, j *serviceJob, prev Plan, pool *Pool, obj Objective, cons Constraints, warm *planner.WarmCache, guard bool) (PlanResult, error) {
	sys, err := s.jobSystem(j)
	if err != nil {
		return PlanResult{}, err
	}
	opts := sys.plannerOpts(obj, cons, sys.workerCount())
	opts.DisableIncremental = opts.DisableIncremental || s.cfg.WithoutIncremental
	opts.Warm = warm
	if guard {
		opts.Guard = planner.NewCapacityGuard(pool)
	}
	return planner.New(sys.Model, sys.simulator, opts).ReplanContext(ctx, prev, pool)
}

// recordPlan remembers a job's last successful request — the seed of the
// warm replans Rebalance issues on its behalf. The journal record is only
// emitted while the job is still this open incarnation: a tenant closing
// the job mid-request must not leave a plan record for a closed job.
func (s *Service) recordPlan(name string, j *serviceJob, plan Plan, obj Objective, cons Constraints) {
	s.mu.Lock()
	j.lastPlan, j.lastObj, j.lastCons = plan, obj, cons
	if s.rec != nil && s.jobs[name] == j {
		s.rec.RecordJobPlan(name, plan, obj, cons)
	}
	s.mu.Unlock()
}

// planFleet runs one leased search for a fleet job: search the ledger's
// view for the job (free capacity plus its own lease), then install the
// resulting plan as the job's lease. A grant can lose the race against a
// concurrent tenant between the view snapshot and the install; the loop
// retries against a fresh view a few times before giving up with
// ErrLeaseConflict.
func (s *Service) planFleet(ctx context.Context, name string, j *serviceJob, led *fleet.Ledger, prev Plan, warm bool, obj Objective, cons Constraints) (PlanResult, error) {
	const attempts = 3
	var lastErr error
	for a := 0; a < attempts; a++ {
		res, err := s.searchFleet(ctx, name, j, led, prev, warm, obj, cons)
		if err != nil {
			return PlanResult{}, err
		}
		switch err := s.commitFleet(name, j, led, res, obj, cons); {
		case err == nil:
			return res, nil
		case errors.Is(err, fleet.ErrConflict):
			lastErr = err // the ledger moved under us; search a fresh view
		default:
			return PlanResult{}, err
		}
	}
	return PlanResult{}, fmt.Errorf("sailor: job %q lost the fleet admission race %d times: %w", name, attempts, lastErr)
}

// searchFleet runs the planner search of one fleet grant attempt: the view
// is the ledger's free capacity (plus the job's own lease) restricted to
// the job's declared GPU types, then capped. Filtering before capping means
// the per-job cap is spent on cells the job can use, and makes the view a
// pure function of the job's own-type cells — the independence property the
// partitioned rebalance relies on.
func (s *Service) searchFleet(ctx context.Context, name string, j *serviceJob, led *fleet.Ledger, prev Plan, warm bool, obj Objective, cons Constraints) (PlanResult, error) {
	view := led.ViewForTypes(name, j.gpus)
	if view.TotalGPUs() == 0 {
		return PlanResult{}, fmt.Errorf("sailor: fleet has no free capacity for job %q", name)
	}
	return s.search(ctx, j, prev, view, obj, cons, s.warmFor(j, warm), true)
}

// commitFleet installs a searched plan as job's lease and records it as the
// job's last successful request. It returns fleet.ErrConflict when the
// ledger moved between the search and the grant (callers retry or fall back
// to a fresh search).
func (s *Service) commitFleet(name string, j *serviceJob, led *fleet.Ledger, res PlanResult, obj Objective, cons Constraints) error {
	granted, err := led.Install(name, j.priority, res.Plan)
	if err != nil {
		return err
	}
	// CloseJob may have raced the search: it releases the lease under
	// s.mu, so re-check the job is still this open incarnation after
	// the install and give the capacity back if it is not. The release
	// is conditional on the grant version, so if the name was already
	// reopened and re-leased, the new incarnation's lease survives.
	s.mu.Lock()
	open := s.jobs[name] == j
	if open {
		j.lastPlan, j.lastObj, j.lastCons = res.Plan, obj, cons
		if s.rec != nil {
			s.rec.RecordJobPlan(name, res.Plan, obj, cons)
		}
	}
	s.mu.Unlock()
	if !open {
		led.ReleaseIf(name, granted)
		return fmt.Errorf("sailor: job %q closed while planning", name)
	}
	return nil
}

// SetFleet implements API: install (or replace) the fleet capacity ledger.
// Replacing an active ledger drops every lease; open jobs keep their warm
// caches and last plans, so the next Rebalance re-admits them warm.
func (s *Service) SetFleet(capacity *Pool, jobCapGPUs int) error {
	led := fleet.NewLedger(capacity)
	led.SetJobCap(jobCapGPUs)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installFleetLocked(led)
	return nil
}

// installFleetLocked makes led the service's ledger and, in durable mode,
// journals its full post-install state before attaching the op observer —
// so the initial cap is not double-journaled and every later mutation is.
// Callers hold s.mu.
func (s *Service) installFleetLocked(led *fleet.Ledger) {
	s.fleet = led
	if s.rec != nil {
		s.rec.RecordSetFleet(led.Snapshot())
		led.SetObserver(s.rec.RecordLedgerOp)
	}
}

// SetFleetLedger installs (or replaces) a caller-built capacity ledger —
// SetFleet for embedders that need to keep the handle, e.g. to move the
// per-job cap mid-replay with Ledger.SetJobCap (demand autoscaling) or to
// drive the ledger directly in a test harness. The same replacement
// semantics as SetFleet apply: every lease is dropped, open jobs keep
// their warm caches and last plans.
func (s *Service) SetFleetLedger(led *Ledger) error {
	if led == nil {
		return fmt.Errorf("sailor: nil fleet ledger")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installFleetLocked(led)
	return nil
}

// FleetEvent implements API: apply one availability event to the fleet and
// report the leases it broke, in admission order.
func (s *Service) FleetEvent(ev TraceEvent) ([]LeaseInfo, error) {
	led := s.ledger()
	if led == nil {
		return nil, ErrNoFleet
	}
	broken := led.Apply(ev)
	out := make([]LeaseInfo, len(broken))
	for i, le := range broken {
		out[i] = wire.FromLease(le)
	}
	return out, nil
}

// rebalCand is one leaseless job queued for a Rebalance pass, snapshotted
// under s.mu so the pass works off a consistent candidate set.
type rebalCand struct {
	name string
	j    *serviceJob
	prev Plan
	obj  Objective
	cons Constraints
	pri  int
}

// Rebalance implements API: replan every open job that holds no lease, in
// deterministic priority order (priority descending, then job name
// ascending). A job that deployed before replans warm from its last plan;
// a never-admitted job plans cold. Jobs that find no feasible plan — or no
// free capacity at all — are reported with action "wait" and retried on
// the next call. Cancellation, and a planner queue too full to take the
// search (ErrOverloaded), return the steps completed so far with the error.
//
// The pass has two phases. Phase one searches the solo candidates
// concurrently (still bounded by MaxConcurrent): jobs whose reachable fleet
// cells are disjoint from every other candidate's — no GPU type with fleet
// capacity is shared — so no commit of this pass can change their views,
// and each search equals the one the job would run at its own turn. Phase
// two walks every candidate in admission order and commits: precomputed
// plans install directly, everything else searches inline at its turn. The
// no-free-capacity pre-check is re-evaluated at each turn, so the steps,
// plans, telemetry, and ledger version trajectory do not depend on the solo
// set. ServiceConfig.SequentialRebalance leaves it empty: every candidate
// searches inline, in one goroutine (TestRebalancePartitionedDeterminism
// asserts both settings agree byte for byte).
func (s *Service) Rebalance(ctx context.Context) ([]RebalanceStep, error) {
	led := s.ledger()
	if led == nil {
		return nil, ErrNoFleet
	}
	s.mu.Lock()
	sequential := s.cfg.SequentialRebalance
	cands := make([]rebalCand, 0, len(s.jobs))
	for name, j := range s.jobs {
		if led.Held(name) {
			continue
		}
		cands = append(cands, rebalCand{name, j, j.lastPlan, j.lastObj, j.lastCons, j.priority})
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, k int) bool {
		if cands[i].pri != cands[k].pri {
			return cands[i].pri > cands[k].pri
		}
		return cands[i].name < cands[k].name
	})
	var solo []bool
	if !sequential && len(cands) > 1 && led.FreeView().TotalGPUs() > 0 {
		solo = soloCandidates(led, cands)
	}
	type searched struct {
		res PlanResult
		err error
	}
	pre := make([]*searched, len(cands))
	var wg sync.WaitGroup
	for i, ok := range solo {
		if !ok {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if s.acquire(ctx) != nil {
				return // shed or cancelled: the job searches inline at its turn
			}
			c := cands[i]
			res, err := s.searchFleet(ctx, c.name, c.j, led, c.prev, true, c.obj, c.cons)
			<-s.sem
			pre[i] = &searched{res, err}
		}(i)
	}
	wg.Wait()
	var steps []RebalanceStep
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		step := RebalanceStep{Job: c.name, Priority: c.pri, Action: "admit"}
		if len(c.prev.Stages) > 0 {
			step.Action = "replan"
		}
		// Checked at each turn: earlier commits of this very pass may have
		// consumed the global free capacity.
		if led.FreeView().TotalGPUs() == 0 {
			step.Action, step.Error = "wait", "no free fleet capacity"
			steps = append(steps, step)
			continue
		}
		var res PlanResult
		var err error
		if p := pre[i]; p != nil {
			if res, err = p.res, p.err; err == nil {
				err = s.commitFleet(c.name, c.j, led, res, c.obj, c.cons)
			}
		}
		// Search inline when nothing was precomputed, or when an external
		// tenant moved the ledger under the precomputed grant. Rebalance
		// searches always run against the job's warm cache: an admission
		// populates it, so the preemption-driven replan that follows a
		// capacity loss reuses the DP regions already solved.
		if pre[i] == nil || errors.Is(err, fleet.ErrConflict) {
			if err = s.acquire(ctx); err != nil {
				return steps, err
			}
			res, err = s.planFleet(ctx, c.name, c.j, led, c.prev, true, c.obj, c.cons)
			<-s.sem
		}
		if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
			return steps, ctxErr
		}
		if err != nil {
			step.Action, step.Error = "wait", err.Error()
		} else {
			r := wire.FromResult(res)
			step.Result = &r
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// soloCandidates partitions the rebalance candidates by the fleet cells
// their views can touch. A job's reachable cells are the fleet-capacity
// cells of its declared GPU types, so two candidates conflict exactly when
// they share a GPU type the fleet has capacity for. The returned mask marks
// the singleton partitions — candidates conflicting with no other — whose
// searches may run concurrently; nil when no candidate is solo (every
// candidate then searches at its turn).
func soloCandidates(led *fleet.Ledger, cands []rebalCand) []bool {
	capacity := led.Capacity()
	users := map[GPUType]int{}
	reach := make([][]GPUType, len(cands))
	for i, c := range cands {
		seen := map[GPUType]bool{}
		for _, g := range c.j.gpus {
			if !seen[g] && capacity.TotalOf(g) > 0 {
				seen[g] = true
				reach[i] = append(reach[i], g)
				users[g]++
			}
		}
	}
	solo := make([]bool, len(cands))
	any := false
	for i := range cands {
		solo[i] = true
		for _, g := range reach[i] {
			if users[g] > 1 {
				solo[i] = false
				break
			}
		}
		if solo[i] {
			any = true
		}
	}
	if !any {
		return nil
	}
	return solo
}

// FleetStats implements API with a consistent ledger snapshot.
func (s *Service) FleetStats() (FleetStats, error) {
	led := s.ledger()
	if led == nil {
		return FleetStats{}, ErrNoFleet
	}
	return wire.FromFleetSnapshot(led.Snapshot()), nil
}

// Simulate implements API: the analytical simulator's estimate of a plan.
// Simulation is cheap and does not occupy a planner-concurrency slot.
func (s *Service) Simulate(job string, plan Plan) (est Estimate, err error) {
	done := s.begin(&s.simulates)
	defer func() { done(err) }()
	j, err := s.job(job)
	if err != nil {
		return Estimate{}, err
	}
	sys, err := s.jobSystem(j)
	if err != nil {
		return Estimate{}, err
	}
	return sys.simulator.Estimate(plan)
}

// Stats implements API with a consistent snapshot of the counters.
func (s *Service) Stats() (ServiceStats, error) {
	s.mu.Lock()
	jobs := len(s.jobs)
	cached := s.systems.len()
	recovery := s.recovery
	rec := s.rec
	s.mu.Unlock()
	// The recorder's sticky append error is read outside s.mu: the
	// persist.Store takes its own lock and must never nest inside ours.
	journalErr := ""
	if hr, ok := rec.(interface{ Err() error }); ok {
		if err := hr.Err(); err != nil {
			journalErr = err.Error()
		}
	}
	uptime := time.Since(s.start).Seconds()
	reqs := s.requests.Load()
	qps := 0.0
	if uptime > 0 {
		qps = float64(reqs) / uptime
	}
	return ServiceStats{
		UptimeSeconds:     uptime,
		Requests:          reqs,
		QPS:               qps,
		Plans:             s.plans.Load(),
		Replans:           s.replans.Load(),
		Simulates:         s.simulates.Load(),
		Errors:            s.errors.Load(),
		InFlight:          s.inflight.Load(),
		JobsOpen:          jobs,
		SystemsCached:     cached,
		SystemCacheHits:   s.sysHits.Load(),
		SystemCacheMisses: s.sysMisses.Load(),
		Recovery:          recovery,
		Overloaded:        s.overloaded.Load(),
		Degraded:          s.degraded.Load(),
		JournalError:      journalErr,
		SpecHits:          s.specHits.Load(),
		SpecMisses:        s.specMisses.Load(),
		SpecPrecomputed:   s.specPrecomputed.Load(),
	}, nil
}

// systemLRU is a small least-recently-used cache of profiled Systems.
// Callers hold s.mu; the LRU itself is not locked.
type systemLRU struct {
	cap   int
	order []string // most recently used first
	items map[string]*System
}

func newSystemLRU(cap int) *systemLRU {
	return &systemLRU{cap: cap, items: map[string]*System{}}
}

func (l *systemLRU) len() int { return len(l.items) }

func (l *systemLRU) touch(key string) {
	for i, k := range l.order {
		if k == key {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = key
			return
		}
	}
	l.order = append([]string{key}, l.order...)
}

func (l *systemLRU) get(key string) (*System, bool) {
	sys, ok := l.items[key]
	if ok {
		l.touch(key)
	}
	return sys, ok
}

func (l *systemLRU) put(key string, sys *System) {
	l.items[key] = sys
	l.touch(key)
	for len(l.items) > l.cap {
		last := l.order[len(l.order)-1]
		l.order = l.order[:len(l.order)-1]
		delete(l.items, last)
	}
}
