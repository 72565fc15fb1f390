package sim

import (
	"context"
	"fmt"
	"sync"

	"dxbsp/internal/core"
)

// Config describes one simulation run.
type Config struct {
	Machine core.Machine
	BankMap core.BankMap // defaults to interleave over Machine.Banks

	// Window is the maximum number of outstanding requests per processor.
	// 0 means unlimited (open-loop vector pipeline, the default: latency
	// is hidden by vectorization, as on the Cray).
	Window int

	// Combining makes banks satisfy all queued requests for the same
	// address with a single d-cycle service. The machines modeled by the
	// paper do not combine (the paper explicitly excludes Ranade-style
	// combining); this switch exists for the ablation bench.
	Combining bool

	// NetDelay is the one-way transit time between a processor and a bank.
	// It defaults to Machine.L/2 and affects only latency, not bandwidth.
	NetDelay float64

	// UseSections enables the network-section bottleneck when
	// Machine.Sections > 1.
	UseSections bool

	// Bank selects and parameterizes the bank service discipline; the
	// zero value is the paper's FIFO bank. See BankConfig.
	Bank BankConfig

	// Probe, when non-nil, receives the run's Result and aggregate
	// Counters when it completes (see Probe). It is results-neutral by
	// contract — attaching a probe never changes Result or the engine
	// that computes it, unless it is an EventProbe — and it is
	// deliberately excluded from the runner's cache identity, which
	// fingerprints the behavioral knobs field by field.
	Probe Probe
}

// ConfigError reports an invalid simulation configuration. It names the
// offending Config field so callers can distinguish misconfiguration from
// runtime failures (use errors.As).
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid Config.%s: %s", e.Field, e.Reason)
}

// Normalize returns a copy of c with the documented defaults applied in one
// place: a BankMap over Machine.Banks (interleaved, or GPU word-interleaved
// under the GPUShared discipline), NetDelay = Machine.L/2, and the
// per-discipline Bank defaults (see BankConfig).
// Run normalizes internally; callers that fingerprint or compare configs
// (the runner's memo cache) call Normalize so that a default-valued config
// and an explicitly-defaulted one are identical.
func (c Config) Normalize() Config {
	if c.BankMap == nil {
		if c.Bank.Discipline == GPUShared {
			c.BankMap = core.GPUSharedMap{Banks: c.Machine.Banks}
		} else {
			c.BankMap = core.InterleaveMap{Banks: c.Machine.Banks}
		}
	}
	if c.NetDelay == 0 {
		c.NetDelay = c.Machine.L / 2
	}
	c.Bank = c.Bank.normalize(c.Machine)
	return c
}

// Validate rejects configurations Run cannot execute faithfully. It checks
// the (normalized) simulator knobs; the machine itself is checked by
// core.Machine.Validate. Invalid knobs return a *ConfigError rather than
// being silently clamped.
func (c Config) Validate() error {
	switch {
	case c.Window < 0:
		return &ConfigError{Field: "Window", Reason: fmt.Sprintf("must be >= 0 (0 = open loop), got %d", c.Window)}
	case c.NetDelay < 0:
		return &ConfigError{Field: "NetDelay", Reason: fmt.Sprintf("must be >= 0, got %g", c.NetDelay)}
	}
	if err := c.validateBank(); err != nil {
		return err
	}
	if c.BankMap != nil && c.BankMap.NumBanks() != c.Machine.Banks {
		return &ConfigError{Field: "BankMap", Reason: fmt.Sprintf("covers %d banks, machine has %d",
			c.BankMap.NumBanks(), c.Machine.Banks)}
	}
	return nil
}

// Result reports the outcome of simulating one superstep.
type Result struct {
	// Cycles is the completion time of the bulk operation: the cycle at
	// which the last response arrives back at its processor.
	Cycles float64
	// Requests is the number of requests simulated.
	Requests int
	// BankServices is the number of bank service occupations; equal to
	// Requests unless combining merged some.
	BankServices int
	// MaxBankServed is the largest number of requests handled by one bank.
	MaxBankServed int
	// MaxBankQueue is the high-water mark of any bank's queue length.
	MaxBankQueue int
	// MaxSectionQueue is the high-water mark of any section queue.
	MaxSectionQueue int
	// BankBusy is the total busy time summed over banks.
	BankBusy float64
	// RowHits counts bank services satisfied from the row buffer (always 0
	// unless row buffers are on: FIFO with Bank.CacheLines > 0, or DRAM).
	RowHits int
	// RowConflicts counts DRAM services that missed every open row and
	// paid Bank.MissDelay (always 0 outside the DRAM discipline).
	RowConflicts int
	// ThrottleStalls counts bank services the Regulated discipline
	// deferred to the next regulation window; ThrottleStallCycles is the
	// total time those services waited (always 0 outside Regulated).
	ThrottleStalls      int
	ThrottleStallCycles float64
	// WarpReplays counts GPUShared services that had to replay — wait in
	// a bank's line behind a conflicting lane of the same or an earlier
	// warp — rather than start on arrival (always 0 outside GPUShared).
	WarpReplays int
}

// CyclesPerElement returns processor-cycles per element, the unit the
// paper's graphs use.
func (r Result) CyclesPerElement(p int) float64 {
	if r.Requests == 0 {
		return 0
	}
	return r.Cycles * float64(p) / float64(r.Requests)
}

type request struct {
	proc int
	seq  int // global issue sequence for deterministic ties
	addr uint64
	bank int
}

type eventKind uint8

const (
	evInject      eventKind = iota // processor attempts next injection
	evSectionDone                  // section finished forwarding a request
	evBankArrive                   // request arrives at its bank
	evBankDone                     // bank finished a service
	evComplete                     // response arrives back at processor
)

// event is one scheduled state transition. It is a flat 40-byte value —
// the request fields are inlined rather than nested, and the processor,
// bank and section indices are int32 (they are bounded by the machine
// shape), so the scheduler moves and compares narrow values with no
// indirection. Which fields are meaningful depends on kind; see dispatch.
type event struct {
	time float64
	seq  int    // tie-break: FIFO by issue order (unique per (kind, seq))
	addr uint64 // request address (routing events)
	proc int32  // issuing processor (evInject, evComplete, routing events)
	bank int32  // destination bank (routing events)
	idx  int32  // section or bank index for *Done events
	kind eventKind
}

// req reconstructs the in-flight request carried by a routing event.
func (ev *event) req() request {
	return request{proc: int(ev.proc), seq: ev.seq, addr: ev.addr, bank: int(ev.bank)}
}

type procState struct {
	addrs       []uint64
	next        int
	outstanding int
	blocked     bool
	blockedAt   float64 // when the window block began (valid while blocked)
	nextIssueAt float64
	completed   int
}

// engine holds all mutable simulation state. It is built once and re-armed
// by reset: the calendar-queue buckets, the per-server rings and the
// processor/bank bookkeeping slices are all retained across runs, so a
// reused engine performs zero steady-state allocations per run
// (TestEngineReuseZeroAllocs pins this; TestEventLoopSteadyStateAllocs
// pins that the event loop itself never allocates per event).
type engine struct {
	cfg Config
	bm  core.BankMap
	// bmKind/bmArg are the bank map resolved to an inline dispatch tag
	// (resolveMap) at reset: the two interleave families compute the bank
	// with one mask or modulo instead of an interface call per request —
	// which the GPU warp loop issues WarpSize at a time.
	bmKind   mapKind
	bmArg    uint64
	events   wheel
	procs    []procState
	sections []server
	banks    []server
	seq      int

	// useHeap forces the retained 4-ary heap scheduler instead of the
	// calendar queue. Test-only: the heap-vs-wheel differential
	// (TestWheelVsHeapDifferential) runs both over identical configs and
	// asserts byte-identical Results. One predictable branch per event.
	useHeap bool
	heapq   eventQueue

	// openLoop marks the Window == 0 fast path: no processor can ever
	// block, so per-request evComplete events are collapsed into direct
	// lastDone bookkeeping in respond.
	openLoop        bool
	banksPerSection int
	combineScratch  []request // reused by startBank's combining pass

	// rp is the per-run probe, nil for the (default) unobserved run; ev
	// is the same run's per-event hooks, set only for an EventProbe.
	// Every hook and accumulation site is nil-checked, so probes-off
	// costs one predictable branch per site and the steady state stays
	// allocation-free.
	rp RunProbe
	ev RunEvents

	// cnt accumulates the Counters committed to rp. Its per-bank slices
	// and the arrival FIFOs that pair each service start with its
	// arrival are retained across resets and armed only for probed runs.
	cnt     Counters
	bankArr []timeFIFO
	sectArr []timeFIFO

	res       Result
	bankServe []int32
	// rowsOn gates the row-buffer paths (FIFO+CacheLines and DRAM);
	// bankRows storage is retained across resets even when a run has row
	// buffers off, so alternating configurations on a reused engine do
	// not reallocate. rowShift and rowLines are resolved from the Bank
	// sub-config at reset so rowAccess does no per-event config decoding.
	rowsOn   bool
	rowShift uint
	rowLines int
	bankRows [][]uint64 // per-bank LRU row buffer
	lastDone float64

	// disc is the service discipline tag, resolved once per reset; the
	// hot path switches on it and never makes an interface call per
	// event (DESIGN.md §12). The per-discipline state below is retained
	// across resets like every other arena.
	disc Discipline

	// DRAM bank-group gating: group g admits no service start before
	// groupReady[g].
	groupGapOn    bool
	banksPerGroup int
	groupReady    []float64

	// Regulated: per-bank window accounting. regEpoch[b] is the index of
	// the regulation window bank b last charged, regUsed[b] the services
	// started in it.
	regWindow float64
	regBudget int32
	regEpoch  []int64
	regUsed   []int32

	// GPUShared: lanes per warp.
	warpSize int
}

// sectionOf maps a bank to its network section.
func (e *engine) sectionOf(bank int) int { return bank / e.banksPerSection }

// pending returns the number of scheduled events.
func (e *engine) pending() int {
	if e.useHeap {
		return e.heapq.len()
	}
	return e.events.len()
}

// sched inserts ev into the active scheduler.
func (e *engine) sched(ev event) {
	if e.useHeap {
		e.heapq.push(ev)
		return
	}
	e.events.push(ev)
}

// next removes and returns the (time, kind, seq)-minimum event.
func (e *engine) next() event {
	if e.useHeap {
		return e.heapq.pop()
	}
	return e.events.pop()
}

// cancelCheckEvents is how many simulated events pass between context
// polls in RunContext. Power of two; small enough that even quick-scale
// simulations (tens of thousands of events) observe cancellation
// mid-flight, large enough that the poll is free on the hot path.
const cancelCheckEvents = 1024

// Run simulates one superstep of pattern pt under cfg and returns the
// result. It panics on an invalid machine; other misconfiguration returns
// an error. Run is RunContext without cancellation.
func Run(cfg Config, pt core.Pattern) (Result, error) {
	return RunContext(context.Background(), cfg, pt)
}

// enginePool recycles engines across RunContext calls so back-to-back
// runs — a sweep's workers all funnel through here — reuse the retained
// wheel buckets, rings and bookkeeping slices instead of rebuilding them
// per run. Engines are parked released (no borrowed references; see
// engine.release), so the pool never pins a caller's pattern or probe.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// AcquireEngine borrows an event Engine from the package pool — warm in
// the steady state, so the borrow costs no allocation. Callers that
// issue many runs from one goroutine (a worker loop, a benchmark) can
// hold the engine across all of them instead of paying a pool
// round-trip per run, and tests use it to pin the event engine as the
// kernel's oracle. Every AcquireEngine must be paired with
// ReleaseEngine; an engine is single-run at a time (see Engine).
func AcquireEngine() *Engine {
	return enginePool.Get().(*Engine)
}

// ReleaseEngine returns an acquired engine to the package pool. It first
// drops every reference the engine borrowed from its last run's inputs
// (pattern slices, probe, bank map), so a parked engine pins only its own
// retained arenas, never the caller's data. The engine must not be used
// after release.
func ReleaseEngine(e *Engine) {
	e.eng.release()
	enginePool.Put(e)
}

// RunContext is Run with cooperative cancellation. It answers every
// BatchEligible config on the closed-form kernel and every other config —
// GPU shared memory, bank groups, multi-row DRAM, row caches, combining,
// sections, EventProbes — on the event engine, each drawn from a package
// pool. Both give byte-identical Results (the golden grid and
// FuzzBatchVsScalar pin it), so the dispatch is invisible to callers.
//
// Both paths poll ctx while they run (the event loop every
// cancelCheckEvents events, the kernel every kernelPollRequests
// requests), so timeouts, retries and chaos cancellation interrupt a
// simulation mid-flight; the kernel also fails a run whose ctx is
// already done. Polling reads no simulation state, so an uncancelled
// RunContext is byte-identical to Run. Pooled engines re-arm all their
// retained state at reset, so reuse is invisible and a warm run
// allocates nothing (TestProbesOffAllocBudget, TestRunKernelZeroAllocs).
func RunContext(ctx context.Context, cfg Config, pt core.Pattern) (Result, error) {
	if BatchEligible(cfg) {
		k := kernelPool.Get().(*kernel)
		res, err := k.run(ctx, cfg, pt)
		k.release()
		kernelPool.Put(k)
		return res, err
	}
	e := AcquireEngine()
	res, err := e.Run(ctx, cfg, pt)
	ReleaseEngine(e)
	return res, err
}

// simulate drains the event queue and assembles the result.
func (e *engine) simulate(ctx context.Context) (Result, error) {
	processed := 0
	for e.pending() > 0 {
		processed++
		if processed%cancelCheckEvents == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: cancelled after %d events: %w", processed, err)
			}
		}
		e.dispatch(e.next())
	}

	e.res.Cycles = e.lastDone
	for i, c := range e.bankServe {
		if int(c) > e.res.MaxBankServed {
			e.res.MaxBankServed = int(c)
		}
		if e.banks[i].maxQ > e.res.MaxBankQueue {
			e.res.MaxBankQueue = e.banks[i].maxQ
		}
	}
	for i := range e.sections {
		if e.sections[i].maxQ > e.res.MaxSectionQueue {
			e.res.MaxSectionQueue = e.sections[i].maxQ
		}
	}
	if e.rp != nil {
		// An arrival sees depth qlen and then joins the line, so the
		// deepest line an arrival saw is one less than the high-water
		// mark (an idle bank's arrivals all see 0).
		for i := range e.banks {
			e.cnt.MaxDepth[i] = int32(max(e.banks[i].maxQ-1, 0))
		}
		e.cnt.Services = e.bankServe
		e.rp.RunDone(e.res, &e.cnt)
	}
	return e.res, nil
}

func (e *engine) nextSeq() int {
	e.seq++
	return e.seq
}

func (e *engine) dispatch(ev event) {
	switch ev.kind {
	case evInject:
		e.inject(int(ev.proc), ev.time)
	case evSectionDone:
		e.sectionDone(int(ev.idx), ev.req(), ev.time)
	case evBankArrive:
		e.bankArrive(ev.req(), ev.time)
	case evBankDone:
		e.bankDone(int(ev.idx), ev.time)
	case evComplete:
		e.complete(int(ev.proc), ev.time)
	}
}

func (e *engine) inject(p int, now float64) {
	if e.disc == GPUShared {
		e.injectWarp(p, now)
		return
	}
	ps := &e.procs[p]
	if ps.next >= len(ps.addrs) {
		return
	}
	if e.cfg.Window > 0 && ps.outstanding >= e.cfg.Window {
		ps.blocked = true
		ps.blockedAt = now
		return
	}
	addr := ps.addrs[ps.next]
	req := request{proc: p, seq: e.nextSeq(), addr: addr, bank: bankOf(e.bmKind, e.bmArg, e.bm, addr)}
	ps.next++
	ps.outstanding++
	ps.nextIssueAt = now + e.cfg.Machine.G

	// Route into the network: either straight to the bank, or through the
	// bank's section first.
	if len(e.sections) > 1 {
		sec := e.sectionOf(req.bank)
		e.arriveSection(sec, req, now+e.cfg.NetDelay)
	} else {
		e.sched(event{time: now + e.cfg.NetDelay, seq: req.seq, kind: evBankArrive,
			proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
	}

	if ps.next < len(ps.addrs) {
		e.sched(event{time: ps.nextIssueAt, seq: e.nextSeq(), kind: evInject, proc: int32(p)})
	}
}

// injectWarp is the GPUShared issue rule: processor p injects the next
// WarpSize requests of its stream as one warp-synchronous memory access.
// All lanes enter the network at now; the next warp is scheduled from
// complete once every lane's response has returned (outstanding == 0),
// no earlier than one issue gap after this one. Sections and windows are
// rejected by Validate, so lanes route straight to their banks.
func (e *engine) injectWarp(p int, now float64) {
	ps := &e.procs[p]
	w := len(ps.addrs) - ps.next
	if w <= 0 {
		return
	}
	if w > e.warpSize {
		w = e.warpSize
	}
	ps.nextIssueAt = now + e.cfg.Machine.G
	for i := 0; i < w; i++ {
		addr := ps.addrs[ps.next]
		req := request{proc: p, seq: e.nextSeq(), addr: addr, bank: bankOf(e.bmKind, e.bmArg, e.bm, addr)}
		ps.next++
		ps.outstanding++
		e.sched(event{time: now + e.cfg.NetDelay, seq: req.seq, kind: evBankArrive,
			proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
	}
}

func (e *engine) arriveSection(sec int, req request, now float64) {
	s := &e.sections[sec]
	if e.rp != nil {
		e.sectArr[sec].push(now)
		if e.ev != nil {
			e.ev.SectionArrive(sec, now, s.qlen())
		}
	}
	if s.busy {
		s.enqueue(req)
		return
	}
	e.startSection(sec, req, now, false)
}

func (e *engine) startSection(sec int, req request, now float64, queued bool) {
	s := &e.sections[sec]
	s.busy = true
	if e.rp != nil {
		if a, ok := e.sectArr[sec].pop(); ok && now > a {
			e.cnt.SectionWait += now - a
		}
		if e.ev != nil {
			e.ev.SectionStart(sec, now, queued)
		}
	}
	done := now + e.cfg.Machine.SectionGap
	e.sched(event{time: done, seq: req.seq, kind: evSectionDone, idx: int32(sec),
		proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
}

func (e *engine) sectionDone(sec int, req request, now float64) {
	// Forward to the bank, then start the next queued request.
	e.sched(event{time: now, seq: req.seq, kind: evBankArrive,
		proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
	s := &e.sections[sec]
	if next, ok := s.dequeue(); ok {
		e.startSection(sec, next, now, true)
	} else {
		s.busy = false
	}
}

func (e *engine) bankArrive(req request, now float64) {
	b := &e.banks[req.bank]
	if e.rp != nil {
		e.bankArr[req.bank].push(now)
		if e.ev != nil {
			e.ev.BankArrive(req.bank, now, b.qlen())
		}
	}
	if b.busy {
		b.enqueue(req)
		return
	}
	e.startBank(req.bank, req, now, false)
}

// startBank begins a bank service. The discipline decides the service
// time and the actual start instant; the switch on e.disc is the whole
// dispatch — resolved to a tag at reset, monomorphic in the loop — so
// adding a discipline costs FIFO nothing (DESIGN.md §12). start may
// trail now when the discipline defers the request (a bank-group bus
// slot under DRAM, an exhausted regulation window under Regulated); the
// bank is occupied for the deferral, exactly as real hardware holds the
// banked resource while it waits for its turn.
func (e *engine) startBank(bank int, req request, now float64, queued bool) {
	b := &e.banks[bank]
	b.busy = true
	start := now
	service := e.cfg.Machine.D
	rowHit := false
	switch e.disc {
	case FIFO:
		if e.rowsOn && e.rowAccess(bank, req.addr) {
			service = e.cfg.Bank.HitDelay
			rowHit = true
			e.res.RowHits++
		}
	case DRAM:
		if e.rowAccess(bank, req.addr) {
			service = e.cfg.Bank.HitDelay
			rowHit = true
			e.res.RowHits++
		} else {
			service = e.cfg.Bank.MissDelay
			e.res.RowConflicts++
		}
		if e.groupGapOn {
			g := bank / e.banksPerGroup
			if t := e.groupReady[g]; t > start {
				start = t
			}
			e.groupReady[g] = start + e.cfg.Bank.GroupGap
		}
	case Regulated:
		ep := int64(now / e.regWindow)
		if ep > e.regEpoch[bank] {
			e.regEpoch[bank] = ep
			e.regUsed[bank] = 0
		}
		if e.regUsed[bank] >= e.regBudget {
			// Budget exhausted: hold the bank until the next window opens.
			e.regEpoch[bank]++
			e.regUsed[bank] = 0
			start = float64(e.regEpoch[bank]) * e.regWindow
			e.res.ThrottleStalls++
			e.res.ThrottleStallCycles += start - now
		}
		e.regUsed[bank]++
	case GPUShared:
		if queued {
			e.res.WarpReplays++
		}
	}
	done := start + service
	e.res.BankServices++
	e.res.BankBusy += service
	e.bankServe[bank]++

	// The request(s) complete at done; responses transit back.
	e.respond(req, done)
	combined := 0
	if e.cfg.Combining {
		// Serve every queued request for the same address in this service.
		e.combineScratch = b.extractAddr(req.addr, e.combineScratch[:0])
		combined = len(e.combineScratch)
		for _, q := range e.combineScratch {
			e.bankServe[bank]++
			e.respond(q, done)
		}
	}
	if e.rp != nil {
		e.countStart(bank, start, service, queued, combined)
		if e.ev != nil {
			e.ev.BankStart(bank, start, service, start-now, rowHit, queued, combined)
		}
	}
	e.sched(event{time: done, seq: req.seq, kind: evBankDone, idx: int32(bank)})
}

// countStart adds one service start to the run's Counters. Each of the
// 1+combined requests it satisfies leaves the bank's arrival FIFO in
// arrival order; without combining that is exactly the request served,
// since the bank serves first come, first served.
func (e *engine) countStart(bank int, start, service float64, queued bool, combined int) {
	c := &e.cnt
	c.Busy[bank] += service
	if queued {
		c.QueuedStarts++
	}
	c.Combined += combined
	for i := 0; i <= combined; i++ {
		if a, ok := e.bankArr[bank].pop(); ok && start > a {
			c.Wait[bank] += start - a
		}
	}
}

// respond delivers the response for a request whose bank service finishes
// at done. In the open-loop default (Window == 0) no processor can ever
// block, so the response's only observable effect is advancing the
// completion clock — the per-request evComplete heap event is collapsed
// into a direct max, removing one push+pop per request from the dominant
// configuration. The resulting cycle counts are byte-identical: the
// closed-loop complete handler under Window == 0 only ever updates
// lastDone with the same now = done + NetDelay (outstanding/completed
// feed the Window check alone and blocked is never set). See DESIGN.md §9.
func (e *engine) respond(req request, done float64) {
	t := done + e.cfg.NetDelay
	if e.openLoop {
		if t > e.lastDone {
			e.lastDone = t
		}
		return
	}
	e.sched(event{time: t, seq: req.seq, kind: evComplete, proc: int32(req.proc)})
}

// rowAccess reports whether addr's row is in bank's row buffer and
// updates the LRU state (most recent row at the end).
func (e *engine) rowAccess(bank int, addr uint64) bool {
	row := addr >> e.rowShift
	rows := e.bankRows[bank]
	for i, r := range rows {
		if r == row {
			// Move to MRU position.
			copy(rows[i:], rows[i+1:])
			rows[len(rows)-1] = row
			return true
		}
	}
	if len(rows) < e.rowLines {
		e.bankRows[bank] = append(rows, row)
	} else {
		copy(rows, rows[1:])
		rows[len(rows)-1] = row
	}
	return false
}

func (e *engine) bankDone(bank int, now float64) {
	b := &e.banks[bank]
	if next, ok := b.dequeue(); ok {
		e.startBank(bank, next, now, true)
	} else {
		b.busy = false
	}
}

func (e *engine) complete(p int, now float64) {
	ps := &e.procs[p]
	ps.outstanding--
	ps.completed++
	if now > e.lastDone {
		e.lastDone = now
	}
	if e.disc == GPUShared {
		// Warp barrier: the next warp issues only once every lane of the
		// current one has returned, no earlier than the issue gap allows.
		if ps.outstanding == 0 && ps.next < len(ps.addrs) {
			t := now
			if ps.nextIssueAt > t {
				t = ps.nextIssueAt
			}
			e.sched(event{time: t, seq: e.nextSeq(), kind: evInject, proc: int32(p)})
		}
		return
	}
	if ps.blocked {
		ps.blocked = false
		if e.rp != nil {
			if now > ps.blockedAt {
				e.cnt.WindowStall += now - ps.blockedAt
			}
			if e.ev != nil {
				e.ev.WindowStall(p, ps.blockedAt, now)
			}
		}
		t := now
		if ps.nextIssueAt > t {
			t = ps.nextIssueAt
		}
		e.sched(event{time: t, seq: e.nextSeq(), kind: evInject, proc: int32(p)})
	}
}
