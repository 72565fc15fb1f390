package sim

import "dxbsp/internal/core"

// Probe is the simulator's observability hook. A Probe attached to
// Config.Probe is asked for one RunProbe per simulation run; when the
// run completes, the engine that ran it commits the run's Result and
// its aggregate Counters to that RunProbe.
//
// Both engines compute the Counters themselves — the closed-form kernel
// from values its service loop already holds, the event engine at its
// existing event sites — so an aggregate probe does not change which
// engine answers a run: a kernel-eligible config stays on the kernel
// with a probe attached. Only a probe that also implements EventProbe,
// asking for every individual bank, section and window event, sends
// the run to the event engine, the one engine with events to report.
//
// The contract, enforced by TestProbeDoesNotPerturbResults,
// FuzzCountersKernelVsEvent and the alloc regression tests:
//
//   - Attaching a probe NEVER changes simulation results. Hooks receive
//     copies of engine state and have no channel back into the engine.
//   - A nil Config.Probe costs one flag test per accumulation site; the
//     probes-off loops stay allocation-free in steady state, and so do
//     warm probed runs inside sim.
//   - RunDone fires exactly once per successfully completed run, after
//     the Result is fully assembled. A cancelled run never reaches
//     RunDone, so collectors that commit state there observe only
//     completed simulations (this is what keeps aggregated metrics
//     deterministic under retries and chaos).
//   - The kernel and the event engine commit bit-identical Counters for
//     every kernel-eligible config.
//
// Hooks run on the simulating goroutine; a RunProbe needs no internal
// locking against the engine, only against its own readers.
type Probe interface {
	// RunStart is called once per run after config normalization and
	// validation, before the first request is served.
	RunStart(cfg Config, pt core.Pattern) RunProbe
}

// RunProbe receives the outcome of one simulation run.
type RunProbe interface {
	// RunDone reports the completed run's Result and aggregate Counters.
	// It is the commit point: it fires only when the run finished (never
	// on cancellation), exactly once. c and its slices belong to the
	// engine and are valid only during the call.
	RunDone(res Result, c *Counters)
}

// Counters are one run's aggregate observations, computed by the engine
// that ran it. The per-bank slices are indexed by bank and have
// Machine.Banks entries each.
//
// Every per-bank float sum is taken in that bank's service order. A
// bank serves its arrivals first come, first served, and both engines
// serve them in the same order, so the sums are bit-identical across
// engines for any G, D and NetDelay (a sum in the event engine's global
// dispatch order would not be reproducible by the kernel, which never
// interleaves banks).
type Counters struct {
	// Services counts the requests each bank served (a combined service
	// counts every request it satisfied).
	Services []int32
	// Busy is each bank's total service time.
	Busy []float64
	// Wait is each bank's total queueing delay, Σ (service start −
	// arrival). Under Combining, starts are paired with arrivals in
	// arrival order, so combined runs report an estimate.
	Wait []float64
	// MaxDepth is the deepest waiting line each bank showed an arrival
	// (excluding the request in service).
	MaxDepth []int32

	// QueuedStarts counts bank services that started from the queue
	// rather than on arrival.
	QueuedStarts int
	// Combined counts requests satisfied by another request's service
	// (nonzero only under Config.Combining).
	Combined int
	// SectionWait is the total queueing delay at network sections (zero
	// unless the section bottleneck is active).
	SectionWait float64
	// WindowStall is the total time processors spent blocked on their
	// outstanding-request window, summed in the order the blocks ended
	// (zero in the open loop).
	WindowStall float64
}

// EventProbe is a Probe that also wants every event of a run, for
// tracing. The event engine calls RunEvents instead of RunStart, and a
// config carrying an EventProbe always runs on the event engine
// (BatchFallbackReason reports "probe"): the kernel computes whole
// service chains without dispatching individual events.
type EventProbe interface {
	Probe
	// RunEvents is RunStart for a run whose events are reported.
	RunEvents(cfg Config, pt core.Pattern) RunEvents
}

// RunEvents receives the per-event observations of one simulation run,
// then its commit.
type RunEvents interface {
	RunProbe

	// BankArrive reports a request reaching bank at time now. depth is
	// the waiting-line length just before this arrival (excluding the
	// request in service, if any).
	BankArrive(bank int, now float64, depth int)

	// BankStart reports bank beginning a service at now that will hold
	// the bank for service cycles. stall is how long the discipline held
	// the request beyond its dispatch before letting it start — a
	// bank-group bus wait under DRAM, a regulation-window wait under
	// Regulated, 0 elsewhere. rowHit is true when the access was
	// satisfied from the bank's row buffer; queued is true when the
	// request waited in the bank's line rather than starting on arrival;
	// combined is the number of additional queued requests satisfied by
	// this same service (nonzero only under Config.Combining).
	BankStart(bank int, now float64, service, stall float64, rowHit, queued bool, combined int)

	// SectionArrive reports a request reaching network section sec at
	// now; depth as for BankArrive. Only fires when the section
	// bottleneck is active (Config.UseSections and Machine.Sections > 1).
	SectionArrive(sec int, now float64, depth int)

	// SectionStart reports section sec beginning to forward a request at
	// now; queued as for BankStart.
	SectionStart(sec int, now float64, queued bool)

	// WindowStall reports that processor proc, blocked on its
	// outstanding-request window since from, was unblocked at to.
	// Only fires when Config.Window > 0.
	WindowStall(proc int, from, to float64)
}
