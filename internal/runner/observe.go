package runner

import (
	"context"
	"sort"
	"sync"
	"time"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/metrics"
	"dxbsp/internal/sim"
	"dxbsp/internal/stats"
)

// Observer is the runner's metrics collector. It implements sim.Probe, so
// installing it on Runner.Metrics threads it through the cache and the
// fault injector into every simulation the run executes, and it
// additionally receives runner-level observations (point latencies,
// experiment stats, cache and checkpoint traffic).
//
// The determinism contract: everything Snapshot(false) exports is a pure
// function of the set of distinct successfully-completed simulations.
// Three mechanisms make that hold for any worker count and under chaos:
//
//   - Per-run collectors commit their totals only from sim's RunDone
//     hook, which never fires for a cancelled or faulted run — a chaos
//     abort mid-simulation contributes nothing.
//   - Contributions are stored in a map keyed by SimKey (the cache's
//     content fingerprint), so re-executions of the same simulation —
//     cache disabled, or a post-fault retry — overwrite with identical
//     values instead of double-counting.
//   - Snapshot reduces contributions in sorted-key order, so the float
//     additions happen in one canonical order no matter which workers
//     finished first.
//
// The totals come from the engine's own sim.Counters, which the
// closed-form kernel and the event engine compute bit-identically, so
// observing a run does not move it off the kernel and the export does
// not depend on which engine answered.
//
// Wall-clock observations (latency, utilization, cache hit/miss under
// racing dedup, retries) are registered Volatile and appear only in
// Snapshot(true).
type Observer struct {
	mu       sync.Mutex
	contribs map[string]*contribution
	unkeyed  uint64 // successful runs with no SimKey (custom bank map)

	// surr holds the routed-to-surrogate points, keyed like contribs so
	// re-executions dedupe; the value is the pinned max-rel-err bound for
	// the point's regime. surrUnkeyed tallies unfingerprintable routes.
	surr        map[string]float64
	surrUnkeyed uint64

	volMu       sync.Mutex
	pointSecs   []float64
	experiments int
	points      int
	retries     int
	failedPts   int
	busy        time.Duration
	poolSecs    float64 // Σ wall·workers, the pool's capacity
	cache       CacheStats
	journal     JournalStats
	hasJournal  bool
}

// posBuckets is the resolution of the relative-bank-position profile:
// per-bank data from machines of any size folds into this many buckets so
// heterogeneous sweeps aggregate into one heatmap row.
const posBuckets = 32

// contribution is the committed outcome of one distinct simulation.
type contribution struct {
	res sim.Result

	bankWait    float64 // Σ (service start − arrival) over bank requests
	sectWait    float64 // Σ (forward start − arrival) over section passes
	windowStall float64 // Σ blocked time across processors
	combined    int     // requests satisfied by another request's service
	queuedBank  int     // bank services that started from the queue

	posLoad  [posBuckets]float64 // services per relative bank position
	posBusy  [posBuckets]float64 // busy cycles per relative bank position
	posQueue [posBuckets]float64 // max arrival-observed depth per position
}

// NewObserver returns an empty Observer.
func NewObserver() *Observer {
	return &Observer{contribs: make(map[string]*contribution)}
}

// RunStart implements sim.Probe: it hands the engine a per-run collector
// that commits the run's Counters into the observer at RunDone.
func (o *Observer) RunStart(cfg sim.Config, pt core.Pattern) sim.RunProbe {
	return &runCollector{o: o, cfg: cfg, pt: pt}
}

// runCollector is one simulation run's commit handle. The engine that ran
// the simulation computes its Counters; the collector only folds them
// into a contribution and files it under the run's content key.
type runCollector struct {
	o   *Observer
	cfg sim.Config
	pt  core.Pattern
}

// RunDone commits the run. It only fires for completed simulations, and
// it is the collector's only access to shared state.
func (rc *runCollector) RunDone(res sim.Result, sc *sim.Counters) {
	c := fold(res, sc)
	key, ok := SimKey(rc.cfg, rc.pt)
	o := rc.o
	o.mu.Lock()
	switch {
	case !ok:
		// No content fingerprint (custom bank map without a CacheKeyer):
		// the run cannot be deduplicated, so counting it would make the
		// totals depend on how many times the scheduler re-executed it.
		// It is tallied separately and excluded from deterministic series.
		o.unkeyed++
	case o.contribs[key] != nil:
		// A re-execution of a known simulation (cache disabled, or a
		// post-fault retry) commits identical values: overwrite in place
		// rather than allocating a fresh contribution.
		*o.contribs[key] = c
	default:
		fresh := c // declared here so only a first commit allocates
		o.contribs[key] = &fresh
	}
	o.mu.Unlock()
}

// fold reduces one run's engine Counters to a contribution. Banks fold
// in index order into the run totals and the relative-position buckets,
// so the float sums are a function of the per-bank values alone.
func fold(res sim.Result, sc *sim.Counters) contribution {
	c := contribution{
		res:         res,
		sectWait:    sc.SectionWait,
		windowStall: sc.WindowStall,
		combined:    sc.Combined,
		queuedBank:  sc.QueuedStarts,
	}
	banks := len(sc.Services)
	for b, n := range sc.Services {
		p := b * posBuckets / banks
		c.posLoad[p] += float64(n)
		c.posBusy[p] += sc.Busy[b]
		if d := float64(sc.MaxDepth[b]); d > c.posQueue[p] {
			c.posQueue[p] = d
		}
		c.bankWait += sc.Wait[b]
	}
	return c
}

// ObserveSurrogate records one simulation request answered by the
// closed-form surrogate instead of the event simulator, with the pinned
// error bound for its regime. Keyed by the same content fingerprint as
// simulations, so routed totals stay a pure function of the distinct
// routed set for any worker count.
func (o *Observer) ObserveSurrogate(cfg sim.Config, pt core.Pattern, bound float64) {
	key, ok := SimKey(cfg, pt)
	o.mu.Lock()
	switch {
	case !ok:
		o.surrUnkeyed++
	default:
		if o.surr == nil {
			o.surr = make(map[string]float64)
		}
		o.surr[key] = bound
	}
	o.mu.Unlock()
}

// ObservePoint records one point execution's wall time.
func (o *Observer) ObservePoint(d time.Duration) {
	o.volMu.Lock()
	o.pointSecs = append(o.pointSecs, d.Seconds())
	o.volMu.Unlock()
}

// ObserveExperiment accumulates one experiment's execution stats.
func (o *Observer) ObserveExperiment(st Stats) {
	o.volMu.Lock()
	o.experiments++
	o.points += st.Points
	o.retries += st.Retries
	o.failedPts += st.Failed
	o.busy += st.Busy
	o.poolSecs += st.Wall.Seconds() * float64(st.Workers)
	o.volMu.Unlock()
}

// ObserveCache records the cache's counter snapshot (latest wins).
func (o *Observer) ObserveCache(cs CacheStats) {
	o.volMu.Lock()
	o.cache = cs
	o.volMu.Unlock()
}

// ObserveJournal records the checkpoint journal's counter snapshot.
func (o *Observer) ObserveJournal(js JournalStats) {
	o.volMu.Lock()
	o.journal, o.hasJournal = js, true
	o.volMu.Unlock()
}

// simCyclesBounds buckets per-run cycle counts across the scales the
// experiment suite produces (quick J90 points to production C90 sweeps).
var simCyclesBounds = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}

// pointSecsBounds buckets point wall times from sub-millisecond cache
// hits to multi-second production points.
var pointSecsBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60}

// Registry materializes the observer's state into a fresh
// metrics.Registry. Deterministic series are reduced from the
// contribution map in sorted-key order; volatile series carry the
// wall-clock aggregates. Calling it twice on unchanged state produces
// registries with byte-identical exports.
func (o *Observer) Registry() *metrics.Registry {
	reg := metrics.NewRegistry()

	o.mu.Lock()
	keys := make([]string, 0, len(o.contribs))
	for k := range o.contribs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	runs := reg.Counter("dxbsp_sim_runs", "distinct successful simulations")
	requests := reg.Counter("dxbsp_sim_requests", "memory requests simulated")
	services := reg.Counter("dxbsp_sim_bank_services", "bank service occupations")
	rowHits := reg.Counter("dxbsp_sim_row_hits", "bank services satisfied from the row buffer")
	rowConfC := reg.Counter("dxbsp_sim_row_conflicts", "DRAM services that missed every open row")
	throttleC := reg.Counter("dxbsp_sim_throttle_stalls", "bank services deferred by bandwidth regulation")
	throttleCyC := reg.Counter("dxbsp_sim_throttle_stall_cycles", "time bank services waited on regulation windows")
	replayC := reg.Counter("dxbsp_sim_warp_replays", "GPU shared-memory bank-conflict warp replays")
	combinedC := reg.Counter("dxbsp_sim_combined_requests", "requests satisfied by combining")
	queuedC := reg.Counter("dxbsp_sim_queued_bank_starts", "bank services that waited in the queue")
	busyC := reg.Counter("dxbsp_sim_bank_busy_cycles", "total bank busy time")
	bankWaitC := reg.Counter("dxbsp_sim_wait_bank_cycles", "time requests spent queued at banks")
	sectWaitC := reg.Counter("dxbsp_sim_wait_section_cycles", "time requests spent queued at network sections")
	windowC := reg.Counter("dxbsp_sim_stall_window_cycles", "processor time blocked on the outstanding-request window")
	cyclesH := reg.Histogram("dxbsp_sim_cycles", "per-run completion time distribution", simCyclesBounds)
	bankHWM := reg.Gauge("dxbsp_sim_bank_queue_depth_hwm", "deepest bank queue observed in any run")
	sectHWM := reg.Gauge("dxbsp_sim_section_queue_depth_hwm", "deepest section queue observed in any run")

	for _, k := range keys {
		c := o.contribs[k]
		runs.Inc()
		requests.Add(float64(c.res.Requests))
		services.Add(float64(c.res.BankServices))
		rowHits.Add(float64(c.res.RowHits))
		rowConfC.Add(float64(c.res.RowConflicts))
		throttleC.Add(float64(c.res.ThrottleStalls))
		throttleCyC.Add(c.res.ThrottleStallCycles)
		replayC.Add(float64(c.res.WarpReplays))
		combinedC.Add(float64(c.combined))
		queuedC.Add(float64(c.queuedBank))
		busyC.Add(c.res.BankBusy)
		bankWaitC.Add(c.bankWait)
		sectWaitC.Add(c.sectWait)
		windowC.Add(c.windowStall)
		cyclesH.Observe(c.res.Cycles)
		bankHWM.SetMax(float64(c.res.MaxBankQueue))
		sectHWM.SetMax(float64(c.res.MaxSectionQueue))
	}
	// Surrogate series exist only when routing happened: a run that never
	// touched the surrogate exports the exact same series set as before
	// the router existed.
	if len(o.surr) > 0 || o.surrUnkeyed > 0 {
		surrPts := reg.Counter("dxbsp_surrogate_points", "simulation requests answered by the closed-form surrogate")
		surrPts.Add(float64(len(o.surr)) + float64(o.surrUnkeyed))
		bound := 0.0
		for _, b := range o.surr {
			if b > bound {
				bound = b
			}
		}
		reg.Gauge("dxbsp_surrogate_maxrelerr", "worst pinned error bound among routed regimes").Set(bound)
	}
	unkeyed := o.unkeyed
	o.mu.Unlock()

	o.volMu.Lock()
	defer o.volMu.Unlock()
	reg.Counter("dxbsp_sim_unkeyed_runs", "successful runs with no content fingerprint (excluded from sim series)",
		metrics.Volatile()).Add(float64(unkeyed))
	reg.Counter("dxbsp_runner_experiments", "experiments executed", metrics.Volatile()).Add(float64(o.experiments))
	reg.Counter("dxbsp_runner_points", "sweep points executed", metrics.Volatile()).Add(float64(o.points))
	reg.Counter("dxbsp_runner_retries", "point re-executions after transient failures", metrics.Volatile()).Add(float64(o.retries))
	reg.Counter("dxbsp_runner_failed_points", "points that exhausted their retry budget", metrics.Volatile()).Add(float64(o.failedPts))
	lat := reg.Histogram("dxbsp_runner_point_seconds", "point wall time", pointSecsBounds, metrics.Volatile())
	for _, s := range o.pointSecs {
		lat.Observe(s)
	}
	util := 0.0
	if o.poolSecs > 0 {
		util = o.busy.Seconds() / o.poolSecs
		if util > 1 {
			util = 1
		}
	}
	reg.Gauge("dxbsp_runner_pool_utilization", "fraction of pool capacity spent executing points",
		metrics.Volatile()).Set(util)
	reg.Counter("dxbsp_cache_hits", "simulations served from the memo cache", metrics.Volatile()).Add(float64(o.cache.Hits))
	reg.Counter("dxbsp_cache_misses", "simulations executed on cache miss", metrics.Volatile()).Add(float64(o.cache.Misses))
	reg.Counter("dxbsp_cache_bypassed", "unkeyable simulations run uncached", metrics.Volatile()).Add(float64(o.cache.Bypassed))
	if o.hasJournal {
		reg.Counter("dxbsp_checkpoint_restored", "simulations restored from the checkpoint journal",
			metrics.Volatile()).Add(float64(o.journal.Restored))
		reg.Counter("dxbsp_checkpoint_appended", "simulations appended to the checkpoint journal",
			metrics.Volatile()).Add(float64(o.journal.Appended))
		reg.Gauge("dxbsp_checkpoint_entries", "results held by the checkpoint journal",
			metrics.Volatile()).Set(float64(o.journal.Loaded))
		reg.Counter("dxbsp_journal_skipped_records", "corrupt or torn journal records dropped during load",
			metrics.Volatile()).Add(float64(o.journal.Skipped))
	}
	return reg
}

// Snapshot is shorthand for Registry().Snapshot(includeVolatile).
func (o *Observer) Snapshot(includeVolatile bool) []metrics.Sample {
	return o.Registry().Snapshot(includeVolatile)
}

// BankProfile returns the relative-bank-position heatmap rows, reduced
// over all contributions in sorted-key order: requests served, busy
// cycles, and the maximum arrival-observed queue depth, each indexed by
// position bucket. Deterministic for any worker count.
func (o *Observer) BankProfile() (labels []string, rows [][]float64) {
	var load, busy, queue [posBuckets]float64
	o.mu.Lock()
	keys := make([]string, 0, len(o.contribs))
	for k := range o.contribs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := o.contribs[k]
		for i := 0; i < posBuckets; i++ {
			load[i] += c.posLoad[i]
			busy[i] += c.posBusy[i]
			if c.posQueue[i] > queue[i] {
				queue[i] = c.posQueue[i]
			}
		}
	}
	o.mu.Unlock()
	return []string{"load (requests)", "busy (cycles)", "queue depth max"},
		[][]float64{load[:], busy[:], queue[:]}
}

// CycleSummary summarizes per-run completion times over the distinct
// simulations, in cycles. Deterministic for any worker count.
func (o *Observer) CycleSummary() stats.Summary {
	o.mu.Lock()
	cycles := make([]float64, 0, len(o.contribs))
	for _, c := range o.contribs {
		cycles = append(cycles, c.res.Cycles)
	}
	o.mu.Unlock()
	sort.Float64s(cycles)
	return stats.Summarize(cycles)
}

// PointLatencySummary summarizes observed point wall times in seconds.
// Wall-clock data: volatile, for human reporting only.
func (o *Observer) PointLatencySummary() stats.Summary {
	o.volMu.Lock()
	secs := append([]float64(nil), o.pointSecs...)
	o.volMu.Unlock()
	sort.Float64s(secs)
	return stats.Summarize(secs)
}

// Runs returns the number of distinct simulations observed.
func (o *Observer) Runs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.contribs)
}

// probeRunner attaches a sim.Probe to every simulation request passing
// through it, then delegates to the rest of the chain (cache → injector →
// simulator). It sits at the top so the probe rides the Config through
// layers that forward it untouched; the cache's key function fingerprints
// behavioral fields explicitly, so the probe never affects cache identity.
type probeRunner struct {
	next  experiments.SimRunner // nil means sim.RunContext directly
	probe sim.Probe
}

func (p *probeRunner) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	cfg.Probe = p.probe
	if p.next != nil {
		return p.next.RunSim(ctx, cfg, pt)
	}
	return sim.RunContext(ctx, cfg, pt)
}
