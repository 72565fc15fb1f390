package sim

import (
	"context"
	"fmt"

	"dxbsp/internal/core"
)

// Engine is a reusable instance of the event engine. It runs every
// configuration event by event; Run and RunContext instead send
// BatchEligible configs to the closed-form kernel, with byte-identical
// results, so Engine is the oracle the kernel's tests compare against.
// Its lifecycle is the point of the type: Reset re-arms the same instance
// for another run while retaining every internal allocation — the
// calendar-queue buckets, the per-bank and per-section rings, the
// processor and bank bookkeeping slices — so a sweep that runs thousands
// of same-shaped simulations through one Engine allocates only on the
// first (TestEngineReuseZeroAllocs pins the second run at zero).
//
// An Engine is single-run at a time and not safe for concurrent use;
// pools (the runner keeps one per worker via sync.Pool) must hand an
// Engine to one goroutine at a time.
type Engine struct {
	eng engine
	def defaultMap
}

// defaultMap caches the boxed default BankMap (interleave, or the GPU
// word-interleaved map under the GPUShared discipline) so repeated runs
// of a BankMap-less config do not re-box it into the interface every
// reset (one allocation per run otherwise). Engine-owned and stateless,
// so it survives release and pins nothing.
type defaultMap struct {
	m     core.BankMap
	banks int
	gpu   bool
}

func (d *defaultMap) of(cfg Config) core.BankMap {
	gpu := cfg.Bank.Discipline == GPUShared
	if d.m == nil || d.banks != cfg.Machine.Banks || d.gpu != gpu {
		if gpu {
			d.m = core.GPUSharedMap{Banks: cfg.Machine.Banks}
		} else {
			d.m = core.InterleaveMap{Banks: cfg.Machine.Banks}
		}
		d.banks = cfg.Machine.Banks
		d.gpu = gpu
	}
	return d.m
}

// prepare is the admission check every engine runs before a simulation:
// it validates the machine, fills the default bank map from dm,
// normalizes and validates cfg, and checks pt against the machine.
func prepare(cfg Config, pt core.Pattern, dm *defaultMap) (Config, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return cfg, err
	}
	if cfg.BankMap == nil {
		cfg.BankMap = dm.of(cfg)
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if pt.Procs() > cfg.Machine.Procs {
		return cfg, fmt.Errorf("sim: pattern has %d processor streams but machine has %d processors",
			pt.Procs(), cfg.Machine.Procs)
	}
	return cfg, nil
}

// NewEngine returns an empty Engine. The first Run (or Reset) sizes its
// storage to the configuration; later runs reuse it whenever the shape
// still fits.
func NewEngine() *Engine { return &Engine{} }

// Reset validates cfg and pt and re-arms the engine for one run of pt
// under cfg, reusing retained storage. It performs the same checks as
// Run and returns the same errors. Callers normally use Run, which is
// Reset plus the event loop; Reset exists separately so a pool can
// pre-warm an engine's allocations ahead of the timed region.
func (E *Engine) Reset(cfg Config, pt core.Pattern) error {
	cfg, err := prepare(cfg, pt, &E.def)
	if err != nil {
		return err
	}
	E.eng.reset(cfg, pt)
	return nil
}

// Run resets the engine and simulates one superstep of pt under cfg,
// with the same cancellation contract as RunContext. Results are
// byte-identical to Run/RunContext for the same inputs regardless of
// what the engine simulated before.
func (E *Engine) Run(ctx context.Context, cfg Config, pt core.Pattern) (Result, error) {
	if err := E.Reset(cfg, pt); err != nil {
		return Result{}, err
	}
	return E.eng.simulate(ctx)
}

// release drops every reference the engine borrowed from its last run's
// inputs — the per-processor address slices, the probe, the bank map —
// so a pooled engine pins only its own arenas while parked, never the
// caller's pattern. The arenas themselves (wheel buckets, rings,
// bookkeeping slices) are deliberately kept; they are the point of
// pooling.
func (e *engine) release() {
	for i := range e.procs {
		e.procs[i].addrs = nil
	}
	e.rp = nil
	e.ev = nil
	e.bm = nil
	e.cfg = Config{}
}

// reset re-arms e for one run of pt under the normalized, validated cfg.
// Every slice is reused when its capacity still fits the new shape and
// reinitialized over its full new length (not just the previously active
// region), so state from an earlier — possibly larger, possibly
// cancelled — run can never leak into this one.
func (e *engine) reset(cfg Config, pt core.Pattern) {
	e.cfg = cfg
	e.bm = cfg.BankMap
	e.bmKind, e.bmArg = resolveMap(cfg.BankMap)
	e.seq = 0
	e.lastDone = 0
	e.res = Result{}
	e.rp, e.ev = nil, nil
	if ep, ok := cfg.Probe.(EventProbe); ok {
		e.ev = ep.RunEvents(cfg, pt)
		e.rp = e.ev
	} else if cfg.Probe != nil {
		e.rp = cfg.Probe.RunStart(cfg, pt)
	}

	// Resolve the discipline dispatch once; the event loop switches on
	// the tag and never takes an interface call per event. GPUShared is
	// the one discipline that needs per-request completions even in the
	// open loop (the warp barrier is driven from complete), so it opts
	// out of the collapsed fast path.
	b := cfg.Bank
	e.disc = b.Discipline
	e.openLoop = cfg.Window == 0 && b.Discipline != GPUShared
	e.warpSize = b.WarpSize

	// Row buffers (FIFO's HS93 ablation and the DRAM discipline). Row
	// storage is retained even across runs that have row buffers off
	// (rowsOn gates its use), so alternating configurations do not churn.
	e.rowsOn = b.CacheLines > 0
	e.rowLines = b.CacheLines
	e.rowShift = rowShiftOf(b.RowWords)
	if e.rowsOn {
		if cap(e.bankRows) >= cfg.Machine.Banks {
			e.bankRows = e.bankRows[:cfg.Machine.Banks]
			for i := range e.bankRows {
				e.bankRows[i] = e.bankRows[i][:0]
			}
		} else {
			e.bankRows = make([][]uint64, cfg.Machine.Banks)
		}
	}

	// DRAM bank-group gating.
	e.groupGapOn = b.Discipline == DRAM && b.Groups > 0 && b.GroupGap > 0
	if e.groupGapOn {
		e.banksPerGroup = (cfg.Machine.Banks + b.Groups - 1) / b.Groups
		if cap(e.groupReady) >= b.Groups {
			e.groupReady = e.groupReady[:b.Groups]
			for i := range e.groupReady {
				e.groupReady[i] = 0
			}
		} else {
			e.groupReady = make([]float64, b.Groups)
		}
	}

	// Regulated window accounting.
	if b.Discipline == Regulated {
		e.regWindow = b.RegWindow
		e.regBudget = int32(b.RegBudget)
		nb := cfg.Machine.Banks
		if cap(e.regEpoch) >= nb && cap(e.regUsed) >= nb {
			e.regEpoch = e.regEpoch[:nb]
			e.regUsed = e.regUsed[:nb]
			for i := range e.regEpoch {
				e.regEpoch[i] = 0
				e.regUsed[i] = 0
			}
		} else {
			e.regEpoch = make([]int64, nb)
			e.regUsed = make([]int32, nb)
		}
	}

	if cap(e.procs) >= pt.Procs() {
		e.procs = e.procs[:pt.Procs()]
		for i := range e.procs {
			e.procs[i] = procState{}
		}
	} else {
		e.procs = make([]procState, pt.Procs())
	}

	nSections := 1
	if cfg.UseSections && cfg.Machine.Sections > 1 {
		nSections = cfg.Machine.Sections
	}
	e.banksPerSection = (cfg.Machine.Banks + nSections - 1) / nSections

	// Server rings. On reuse each server keeps whatever ring it grew to
	// (server.grow relinearizes into head=0, so a cleared ring is valid
	// storage for the next run); on first build one slab supplies every
	// server's initial ring, so a run performs O(1) queue allocations
	// rather than one per bank that ever queues.
	if cap(e.banks) >= cfg.Machine.Banks && cap(e.sections) >= nSections {
		e.banks = e.banks[:cfg.Machine.Banks]
		e.sections = e.sections[:nSections]
		for i := range e.banks {
			s := &e.banks[i]
			s.busy, s.maxQ, s.head, s.n = false, 0, 0, 0
		}
		for i := range e.sections {
			s := &e.sections[i]
			s.busy, s.maxQ, s.head, s.n = false, 0, 0, 0
		}
	} else {
		e.banks = make([]server, cfg.Machine.Banks)
		e.sections = make([]server, nSections)
		const initialRing = 8 // power of two, as the ring requires
		slab := make([]request, (cfg.Machine.Banks+nSections)*initialRing)
		for i := range e.banks {
			e.banks[i].buf = slab[:initialRing:initialRing]
			slab = slab[initialRing:]
		}
		for i := range e.sections {
			e.sections[i].buf = slab[:initialRing:initialRing]
			slab = slab[initialRing:]
		}
	}

	if cap(e.bankServe) >= cfg.Machine.Banks {
		e.bankServe = e.bankServe[:cfg.Machine.Banks]
		for i := range e.bankServe {
			e.bankServe[i] = 0
		}
	} else {
		e.bankServe = make([]int32, cfg.Machine.Banks)
	}
	if e.rp != nil {
		e.armCounters(cfg.Machine.Banks, nSections)
	}

	if e.useHeap {
		// Size the heap off the pattern and machine so steady state never
		// grows it: the live event population is bounded by one pending
		// injection per processor, one *Done per busy bank and section,
		// plus the requests in network transit (which scale with
		// NetDelay/G, not with N). Small runs cap the hint at one event
		// per request.
		hint := pt.Procs() + cfg.Machine.Banks + nSections
		if n := pt.N() + pt.Procs(); n < hint {
			hint = n
		}
		e.heapq.init(hint)
	} else {
		e.events.reset(cfg, cfg.Machine.Procs)
	}

	total := 0
	for i, addrs := range pt.PerProc {
		e.procs[i].addrs = addrs
		total += len(addrs)
		if len(addrs) > 0 {
			e.sched(event{time: 0, seq: e.nextSeq(), kind: evInject, proc: int32(i)})
		}
	}
	e.res.Requests = total
}

// armCounters re-arms the Counters accumulator and the arrival FIFOs of
// a probed run over banks banks and nSections sections, reusing every
// retained slice and FIFO ring. MaxDepth is written whole at commit.
func (e *engine) armCounters(banks, nSections int) {
	c := &e.cnt
	c.Busy = growSlice(c.Busy, banks)
	c.Wait = growSlice(c.Wait, banks)
	c.MaxDepth = growSlice(c.MaxDepth, banks)
	clear(c.Busy)
	clear(c.Wait)
	c.QueuedStarts, c.Combined, c.SectionWait, c.WindowStall = 0, 0, 0, 0
	e.bankArr = growRetained(e.bankArr, banks)
	e.sectArr = growRetained(e.sectArr, nSections)
	for i := range e.bankArr {
		e.bankArr[i].head, e.bankArr[i].n = 0, 0
	}
	for i := range e.sectArr {
		e.sectArr[i].head, e.sectArr[i].n = 0, 0
	}
}
