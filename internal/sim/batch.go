package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"dxbsp/internal/core"
)

// kernel is the closed-form simulator for one BatchEligible config. The
// paper's bank is one FIFO chain per bank, f_i = max(a_i, f_{i-1}) + d,
// so instead of scheduling events the kernel walks the pattern once —
// round-major, then processor-major — and computes each request's
// service from its bank's chain. It replays exactly the floating-point
// operations of the event engine in exactly its order (see the
// correctness argument on runPlain and DESIGN.md §14, §16), so its
// Result and Counters are byte-identical to Engine.Run — pinned by the
// golden 128-config diff, FuzzBatchVsScalar and
// FuzzCountersKernelVsEvent.
//
// The eligible regime covers the open- and closed-loop (Window > 0)
// FIFO bank, the Regulated bank, and row-buffer DRAM without bank
// groups. A closed-loop run follows the open-loop injection grid until a
// processor first finds its window full; from there runReplay finishes
// the run event-exactly without an event queue.
//
// RunContext runs every eligible config on a pooled kernel. Like Engine,
// a kernel is single-run at a time and retains every arena across reset,
// so warm runs allocate nothing (TestBatchEngineReuseZeroAllocs and
// TestRunKernelZeroAllocs pin it).
type kernel struct {
	def defaultMap // boxed default BankMap, as in Engine

	g, nd, d float64 // issue gap, one-way net delay, FIFO service time
	injT     float64 // current round's injection time (accumulated += g)
	lastDone float64 // completion clock (max response arrival)
	busyAcc  float64 // total bank busy time (+= service per service)
	maxQ     int32   // high-water queue depth over all banks

	// Bank-map dispatch, resolved at reset: a tag plus argument for the
	// two interleave families, with the boxed interface retained only
	// for custom maps (mapGeneric).
	mk    mapKind
	mkArg uint64
	bm    core.BankMap

	// Service class and loop shape. rowShift is the DRAM row shift;
	// hitD/missD the DRAM service times; regW/regB the Regulated window
	// and budget.
	cls      serviceClass
	win      int32 // Window (0 = open loop)
	rowShift uint8
	hitD     float64
	missD    float64
	regW     float64
	regB     int32

	// seqCtr replays the event engine's nextSeq stream exactly: blocked
	// injection attempts consume none, every schedule consumes one. The
	// open-loop FIFO loop needs no seqs and leaves it alone.
	seqCtr int32

	// Per-bank service state. lastFin[b] is the finish time of bank b's
	// latest request; frontStart[b]/qn[b] model a constant-service FIFO
	// queue without storing it (see runPlain); serve[b] counts services.
	lastFin    []float64
	frontStart []float64
	qn         []int32
	serve      []int32

	// Per-bank state for the variable-service classes (DRAM, Regulated):
	// the open row tag, the regulation window accounting, the seq of the
	// bank's latest request (ordering key for deferred accumulation), and
	// a ring of waiter dequeue times replacing the constant-d frontStart
	// arithmetic (a waiter leaves the queue exactly when its predecessor
	// finishes, which is the value of lastFin at its enqueue).
	rowTag   []uint64
	rowHas   []bool
	regEpoch []int64
	regUsed  []int32
	lastSeq  []int32
	ringBuf  [][]float64 // power-of-two rings, grown on demand, retained
	ringHead []int32
	ringN    []int32

	// Per-processor state for closed-loop runs: requests in flight and
	// the seq of the processor's pending inject event.
	outst  []int32
	injSeq []int32

	// comp is a closed-loop run's pending-completion min-heap (ordered by
	// time): a completion strictly before the next injection grid point
	// has been processed by the event engine before that inject, so it
	// drains outst at round start. busyEvs collects float accumulations
	// whose event-engine order differs from arrival order (DRAM BankBusy,
	// Regulated ThrottleStallCycles); finalize sorts them by event key
	// and sums them.
	comp    []compEv
	busyEvs []busyEv

	// Replay scratch, sized to the pattern's processor count. The replay
	// keeps no global event queue — each processor exposes at most one
	// actionable candidate (its pending injection attempt, or, when
	// blocked, the head of its private completion heap rComp[q]) and the
	// main loop picks the event-order minimum with a linear scan (see
	// runReplay).
	rNext  []int32
	rNIA   []float64
	rCandT []float64 // candidate time, +Inf when the proc has none
	rCandA []int64   // candidate aux key: kind<<32 | seq
	rComp  [][]compEv

	// Probe accounting. probed gates every counter update, so an
	// unobserved run executes the same loops at the cost of one
	// predictable branch per queued arrival. The per-bank counter slices
	// are armed only for a probed run; a FIFO run's per-bank busy time is
	// rebuilt at commit from serve (see commit). cnt is the commit view
	// handed to RunDone.
	rp      RunProbe
	probed  bool
	cBusy   []float64
	cWait   []float64
	cDepth  []int32
	cQueued int32
	cStall  float64
	cnt     Counters

	res Result
}

// serviceClass is the kernel's per-arrival service dispatch tag.
type serviceClass uint8

const (
	clsFIFO serviceClass = iota // constant-d FIFO service
	clsDRAM                     // single open row per bank, no bank groups
	clsReg                      // bandwidth-regulated bank
)

// compEv is one pending closed-loop completion: the response for request
// seq (issued by proc) arrives back at its processor at time t.
type compEv struct {
	t         float64
	seq, proc int32
}

// busyEv is one deferred float accumulation: value v added to a Result
// accumulator during the event with time t and packed (kind, seq) key.
// Keys are unique per run, so the (t, key) order is total.
type busyEv struct {
	t   float64
	key uint64
	v   float64
}

// sumInEventOrder sorts evs into the event engine's (time, kind, seq)
// order and sums them left to right, so the partial-sum rounding is the
// event engine's bit for bit.
func sumInEventOrder(evs []busyEv) float64 {
	slices.SortFunc(evs, func(x, y busyEv) int {
		if c := cmp.Compare(x.t, y.t); c != 0 {
			return c
		}
		return cmp.Compare(x.key, y.key)
	})
	var s float64
	for _, e := range evs {
		s += e.v
	}
	return s
}

// mapKind tags the bank-map families the hot loops inline instead of
// making an interface call per request. resolveMap classifies a map once
// per reset; bankOf dispatches on the tag.
type mapKind uint8

const (
	mapGeneric mapKind = iota // anything else: interface call
	mapMod                    // InterleaveMap: addr % banks
	mapMask                   // InterleaveMap, power-of-two banks: addr & mask
	mapGPUMod                 // GPUSharedMap: (addr / 4) % banks
	mapGPUMask                // GPUSharedMap, power-of-two banks: (addr >> 2) & mask
)

// resolveMap classifies bm into an inline-dispatch tag and argument.
// Unknown implementations fall back to the interface call (mapGeneric).
func resolveMap(bm core.BankMap) (mapKind, uint64) {
	switch m := bm.(type) {
	case core.InterleaveMap:
		b := uint64(m.Banks)
		if b&(b-1) == 0 {
			return mapMask, b - 1
		}
		return mapMod, b
	case core.GPUSharedMap:
		b := uint64(m.Banks)
		if b&(b-1) == 0 {
			return mapGPUMask, b - 1
		}
		return mapGPUMod, b
	}
	return mapGeneric, 0
}

// bankOf computes the bank for addr under a resolved map. The integer
// identities are exact ((addr/4)%2^k == (addr>>2)&(2^k-1)), so the tag
// paths return precisely what the interface call would.
func bankOf(kind mapKind, arg uint64, bm core.BankMap, addr uint64) int {
	switch kind {
	case mapMask:
		return int(addr & arg)
	case mapMod:
		return int(addr % arg)
	case mapGPUMask:
		return int((addr >> 2) & arg)
	case mapGPUMod:
		return int((addr / 4) % arg)
	}
	return bm.Bank(addr)
}

// BatchEligible reports whether cfg runs on the closed-form kernel:
// open- or closed-loop FIFO, Regulated, or ungrouped single-row DRAM,
// with no combining, no section bottleneck and no EventProbe (the kernel
// computes an aggregate Probe's Counters itself). RunContext uses it to
// pick the kernel over the event engine; both give identical results.
// Equivalent to BatchFallbackReason(cfg) == "".
func BatchEligible(cfg Config) bool {
	return BatchFallbackReason(cfg) == ""
}

// BatchFallbackReason returns "" when cfg is kernel-eligible, or a short
// stable label naming the structural reason it is not. It is
// deterministic on raw and normalized configs alike (RunContext
// classifies raw configs), so the one default it must anticipate is
// DRAM's CacheLines, where unset means one open row.
func BatchFallbackReason(cfg Config) string {
	if cfg.Combining {
		return "combining"
	}
	if _, ok := cfg.Probe.(EventProbe); ok {
		return "probe"
	}
	if cfg.UseSections && cfg.Machine.Sections > 1 {
		return "sections"
	}
	switch cfg.Bank.Discipline {
	case FIFO:
		if cfg.Bank.CacheLines > 0 {
			return "row-cache"
		}
	case DRAM:
		if cfg.Bank.Groups > 0 {
			return "dram-groups"
		}
		if cfg.Bank.CacheLines > 1 {
			return "dram-multirow"
		}
	case Regulated:
		// Fully eligible: the window accounting is per-bank state.
	default:
		return "gpu-shared"
	}
	return ""
}

// kernelPool recycles kernels exactly as enginePool recycles event
// engines: parked released, so a pooled kernel pins only its own arenas.
var kernelPool = sync.Pool{New: func() any { return new(kernel) }}

// release drops the kernel's borrowed references (bank map, probe).
func (k *kernel) release() {
	k.bm = nil
	k.rp = nil
}

// RunBatch simulates pt under every config in cfgs and returns one
// Result per config, in order; each is exactly what RunContext returns
// for that config alone. Validation is all-or-nothing: an invalid config
// fails the whole batch before any simulation runs, with the error
// naming its index.
func RunBatch(ctx context.Context, cfgs []Config, pt core.Pattern) ([]Result, error) {
	var dm defaultMap
	for i, cfg := range cfgs {
		if _, err := prepare(cfg, pt, &dm); err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
	}
	res := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := RunContext(ctx, cfg, pt)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		res[i] = r
	}
	return res, nil
}

// run simulates one superstep of pt under the kernel-eligible cfg. Its
// admission errors are prepare's, so a bad config reads exactly as it
// does on the event engine.
func (k *kernel) run(ctx context.Context, cfg Config, pt core.Pattern) (Result, error) {
	cfg, err := k.reset(cfg, pt)
	if err != nil {
		return Result{}, err
	}
	// The kernel polls ctx only every kernelPollRequests requests, so a
	// run that is already cancelled must fail here rather than finish
	// quietly, as the event engine would fail at its first poll.
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("sim: cancelled before the first request: %w", err)
	}
	if k.probed {
		k.rp = cfg.Probe.RunStart(cfg, pt)
	}
	maxLen := 0
	for _, addrs := range pt.PerProc {
		maxLen = max(maxLen, len(addrs))
	}
	if k.cls == clsFIFO && k.win == 0 {
		err = k.runPlain(ctx, pt, maxLen)
	} else {
		err = k.runMixed(ctx, pt, maxLen)
	}
	if err != nil {
		return Result{}, err
	}
	k.finalize(pt)
	if k.probed {
		k.commit()
	}
	return k.res, nil
}

// reset validates cfg and re-arms the kernel for one run of pt, reusing
// retained storage. It returns the normalized config.
func (k *kernel) reset(cfg Config, pt core.Pattern) (Config, error) {
	cfg, err := prepare(cfg, pt, &k.def)
	if err != nil {
		return cfg, err
	}
	np := pt.Procs()
	banks := cfg.Machine.Banks
	k.g, k.nd, k.d = cfg.Machine.G, cfg.NetDelay, cfg.Machine.D
	k.injT, k.lastDone, k.busyAcc, k.maxQ = 0, 0, 0, 0
	k.mk, k.mkArg = resolveMap(cfg.BankMap)
	k.bm = cfg.BankMap
	k.win = int32(cfg.Window)
	k.res = Result{}
	switch cfg.Bank.Discipline {
	case DRAM:
		k.cls = clsDRAM
		k.rowShift = uint8(rowShiftOf(cfg.Bank.RowWords))
		k.hitD = cfg.Bank.HitDelay
		k.missD = cfg.Bank.MissDelay
	case Regulated:
		k.cls = clsReg
		k.regW = cfg.Bank.RegWindow
		k.regB = int32(cfg.Bank.RegBudget)
	default:
		k.cls = clsFIFO
	}

	k.lastFin = growSlice(k.lastFin, banks)
	k.frontStart = growSlice(k.frontStart, banks)
	k.qn = growSlice(k.qn, banks)
	k.serve = growSlice(k.serve, banks)
	for i := range k.lastFin {
		k.lastFin[i] = -1 // any arrival time is >= 0, so -1 reads as idle
	}

	k.probed = cfg.Probe != nil
	k.cQueued, k.cStall = 0, 0
	if k.probed {
		k.cBusy = growSlice(k.cBusy, banks)
		k.cWait = growSlice(k.cWait, banks)
		k.cDepth = growSlice(k.cDepth, banks)
	}

	if k.cls != clsFIFO {
		k.rowTag = growSlice(k.rowTag, banks)
		k.rowHas = growSlice(k.rowHas, banks)
		k.regEpoch = growSlice(k.regEpoch, banks)
		k.regUsed = growSlice(k.regUsed, banks)
		k.lastSeq = growSlice(k.lastSeq, banks)
		k.ringBuf = growRetained(k.ringBuf, banks)
		k.ringHead = growSlice(k.ringHead, banks)
		k.ringN = growSlice(k.ringN, banks)
		k.busyEvs = k.busyEvs[:0]
	}

	if k.win > 0 {
		k.outst = growSlice(k.outst, np)
		k.injSeq = growSlice(k.injSeq, np)
		k.comp = k.comp[:0]
		k.rNext = growSlice(k.rNext, np)
		k.rNIA = growSlice(k.rNIA, np)
		k.rCandT = growSlice(k.rCandT, np)
		k.rCandA = growSlice(k.rCandA, np)
		k.rComp = growRetained(k.rComp, np)
	}

	// The event engine's reset schedules one inject per processor with a
	// non-empty stream, assigning seqs in processor order.
	k.seqCtr = 0
	for q, addrs := range pt.PerProc {
		if len(addrs) > 0 {
			k.seqCtr++
			if k.win > 0 {
				k.injSeq[q] = k.seqCtr
			}
		}
	}
	return cfg, nil
}

// growSlice returns s resized to length n and zeroed, reusing capacity.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// growRetained resizes a slice whose elements own retained storage
// (inner slices, rings), carrying the elements over when it grows so
// warm runs never re-allocate their buffers.
func growRetained[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n)
	copy(ns, s[:cap(s)])
	return ns
}

// kernelPollRequests is how many requests pass between context polls in
// the kernel's loops — the kernel's analogue of cancelCheckEvents.
const kernelPollRequests = 4096

// runPlain is the open-loop FIFO loop: no class dispatch, no stall
// detection and no seq bookkeeping, with the run's scalars held in
// locals.
//
// Correctness. In the open-loop FIFO regime the event loop is fully
// determined:
//
//   - Processor p injects its r-th request at t_r, with t_0 = 0 and
//     t_{r+1} = t_r + G (inject accumulates nextIssueAt = now + G), so
//     injT replays the identical float sum. Within a round, injects fire
//     in processor order (their seqs were assigned in that order the
//     round before), so request seqs ascend (round, proc)-lexically.
//   - Every request arrives at its bank at a = t_r + NetDelay. Arrivals
//     at one bank are ordered by (time, seq); both orders agree with
//     (round, proc), so walking round-major then proc-major visits each
//     bank's arrivals in exactly the event engine's service order.
//   - A bank is busy at arrival a iff the previous request's finish
//     f >= a: bank-done at time == a has event kind evBankDone >
//     evBankArrive, so the done fires after the arrival and the arrival
//     queues. A queued request starts when its predecessor finishes, so
//     finishes chain f_i = f_{i-1} + d — the same float op the event
//     engine performs — and an idle bank serves on arrival, f = a + d.
//   - Queue depth: the event engine's ring counts waiters excluding the
//     one in service. Rather than store the queue, we keep the oldest
//     waiter's start time (frontStart) and the waiter count (qn): a
//     waiter has left the queue by time a iff its start s < a (a start
//     at s == a comes from a done at s, kind evBankDone, which fires
//     after the arrival), and successive waiters' starts differ by
//     exactly += d, so popping replays the exact floats the event engine
//     computed.
//   - Responses only advance the completion clock (open loop collapses
//     evComplete): lastDone = max over requests of f + NetDelay, and
//     BankBusy accumulates += d per service — order-independent here
//     because d is constant.
func (k *kernel) runPlain(ctx context.Context, pt core.Pattern, maxLen int) error {
	lastFin, frontStart, qn, serve := k.lastFin, k.frontStart, k.qn, k.serve
	mk, mkArg, bm := k.mk, k.mkArg, k.bm
	g, nd, d := k.g, k.nd, k.d
	probed := k.probed
	injT, lastDone, busy, maxQ := k.injT, k.lastDone, k.busyAcc, k.maxQ
	processed := 0
	sincePoll := 0
	for r := 0; r < maxLen; r++ {
		if sincePoll >= kernelPollRequests {
			sincePoll = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: kernel cancelled after %d requests: %w", processed, err)
			}
		}
		a := injT + nd
		for _, addrs := range pt.PerProc {
			if r >= len(addrs) {
				continue
			}
			bank := bankOf(mk, mkArg, bm, addrs[r])
			var done float64
			if f := lastFin[bank]; f >= a {
				// Busy: drain waiters already started before a, then queue.
				fs, n := frontStart[bank], qn[bank]
				for n > 0 && fs < a {
					fs += d
					n--
				}
				n++
				if n == 1 {
					fs = f
				}
				frontStart[bank] = fs
				qn[bank] = n
				maxQ = max(maxQ, n)
				if probed {
					k.countQueued(bank, f-a, n-1)
				}
				done = f + d
			} else {
				qn[bank] = 0
				done = a + d
			}
			lastFin[bank] = done
			serve[bank]++
			busy += d
			if t := done + nd; t > lastDone {
				lastDone = t
			}
			processed++
			sincePoll++
		}
		injT += g
	}
	k.injT, k.lastDone, k.busyAcc, k.maxQ = injT, lastDone, busy, maxQ
	return nil
}

// runMixed is the loop for the other eligible shapes — DRAM and
// Regulated service, and closed-loop runs of any class. A closed-loop
// run tracks the in-flight window and, at its first stall, hands the
// rest of the run to runReplay.
//
// The extra shapes keep runPlain's skeleton (DESIGN.md §16):
//
//   - Closed loop (Window > 0): while no processor is window-blocked,
//     the event engine performs exactly the open-loop float ops —
//     injections stay on the grid and completions only drain the window.
//     A completion strictly earlier than an injection attempt has been
//     processed before it (kind evInject < evComplete breaks the time
//     tie the other way), so outst is drained from the pending-completion
//     heap at each round start with strict <. The first attempt that
//     would block is exactly where the event engine leaves the grid, so
//     runReplay takes over there.
//   - DRAM/Regulated service times vary per request, so the constant-d
//     frontStart/qn drain is replaced by a per-bank ring of waiter
//     dequeue times (a waiter dequeues exactly when its predecessor
//     finishes — the value of lastFin at its enqueue), and float
//     accumulators whose event-engine order is the global service-start
//     order rather than arrival order (DRAM BankBusy, Regulated
//     ThrottleStallCycles) are deferred: recorded with their (time, kind,
//     seq) event key, sorted, and summed at finalize so the partial-sum
//     rounding is bit-identical.
func (k *kernel) runMixed(ctx context.Context, pt core.Pattern, maxLen int) error {
	win := k.win
	processed := 0
	sincePoll := 0
	for r := 0; r < maxLen; r++ {
		if sincePoll >= kernelPollRequests {
			sincePoll = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: kernel cancelled after %d requests: %w", processed, err)
			}
		}
		// A completion strictly before this round's injection grid point
		// precedes every one of the round's inject events in the event
		// order, so it has already released its window slot.
		if win > 0 && len(k.comp) > 0 {
			k.drainComp(k.injT)
		}
		for p, addrs := range pt.PerProc {
			if r >= len(addrs) {
				continue
			}
			if win > 0 && k.outst[p] >= win {
				// Window stall: exactly where the event engine leaves the
				// injection grid. The blocked attempt consumes no seq.
				return k.runReplay(ctx, pt, r, p, processed)
			}
			addr := addrs[r]
			reqSeq := k.seqCtr + 1
			ctr := reqSeq
			if r+1 < len(addrs) {
				ctr++
				if win > 0 {
					k.injSeq[p] = ctr
				}
			}
			k.seqCtr = ctr
			a := k.injT + k.nd
			done := k.serveAt(bankOf(k.mk, k.mkArg, k.bm, addr), a, addr, reqSeq, false)
			t := done + k.nd
			if t > k.lastDone {
				k.lastDone = t
			}
			if win > 0 {
				k.outst[p]++
				k.pushComp(compEv{t: t, seq: reqSeq, proc: int32(p)})
			}
			processed++
			sincePoll++
		}
		k.injT += k.g
	}
	return nil
}

// serveAt services one arrival outside the open-loop FIFO loop: arrival
// time a, request sequence reqSeq, returning the service finish time. It
// replays the event engine's startBank for the run's class, including
// the queue bookkeeping.
//
// late marks an arrival the event engine processes after the bank-done
// events at its own timestamp have already fired: a replay re-inject at
// its completion's instant with NetDelay 0 (repEv kind 1). For such an
// arrival, a service finishing exactly at a has completed (the bank may
// be idle at f == a) and a waiter whose service starts exactly at a has
// left the queue — so the busy test and the dequeue drains tighten from
// strict to inclusive comparisons against a.
func (k *kernel) serveAt(bank int, a float64, addr uint64, reqSeq int32, late bool) float64 {
	if k.cls == clsFIFO {
		// Closed-loop FIFO: service is the constant d, so the open-loop
		// frontStart/qn arithmetic applies verbatim.
		d := k.d
		var done float64
		if f := k.lastFin[bank]; f > a || (f == a && !late) {
			fs, n := k.frontStart[bank], k.qn[bank]
			for n > 0 && (fs < a || (late && fs == a)) {
				fs += d
				n--
			}
			n++
			if n == 1 {
				fs = f
			}
			k.frontStart[bank] = fs
			k.qn[bank] = n
			k.maxQ = max(k.maxQ, n)
			if k.probed {
				k.countQueued(bank, f-a, n-1)
			}
			done = f + d
		} else {
			k.qn[bank] = 0
			done = a + d
		}
		k.lastFin[bank] = done
		k.serve[bank]++
		k.busyAcc += d
		return done
	}

	// Variable-service classes (DRAM, Regulated). The event engine's
	// start event for a queued request is its predecessor's bank-done
	// (kind evBankDone, the predecessor's seq); for an idle bank it is
	// the arrival itself (kind evBankArrive, own seq). That key orders
	// the deferred float accumulations.
	f := k.lastFin[bank]
	var start float64
	var key uint64
	if f > a || (f == a && !late) {
		// Busy: waiters dequeue exactly when their predecessors finish,
		// so the ring of recorded finishes replays the queue.
		buf := k.ringBuf[bank]
		h, n := int(k.ringHead[bank]), int(k.ringN[bank])
		if n > 0 {
			mask := len(buf) - 1
			for n > 0 && (buf[h] < a || (late && buf[h] == a)) {
				h = (h + 1) & mask
				n--
			}
		}
		if n == len(buf) {
			grown := make([]float64, max(8, 2*len(buf)))
			if n > 0 {
				mask := len(buf) - 1
				for i := 0; i < n; i++ {
					grown[i] = buf[(h+i)&mask]
				}
			}
			buf = grown
			h = 0
			k.ringBuf[bank] = buf
		}
		buf[(h+n)&(len(buf)-1)] = f
		n++
		k.ringHead[bank] = int32(h)
		k.ringN[bank] = int32(n)
		k.maxQ = max(k.maxQ, int32(n))
		if k.probed {
			k.countQueued(bank, 0, int32(n-1))
		}
		start = f
		key = 3<<32 | uint64(uint32(k.lastSeq[bank]))
	} else {
		k.ringHead[bank] = 0
		k.ringN[bank] = 0
		start = a
		key = 2<<32 | uint64(uint32(reqSeq))
		if late {
			// A late arrival is pushed while the completions at its
			// instant are processed, after every same-time arrival and
			// bank-done has popped, so its start sorts after all of
			// them; among themselves late starts follow their seqs,
			// which the unblocks assign in processing order.
			key = 5<<32 | uint64(uint32(reqSeq))
		}
	}

	var service float64
	if k.cls == clsDRAM {
		row := addr >> uint(k.rowShift)
		if k.rowHas[bank] && k.rowTag[bank] == row {
			service = k.hitD
			k.res.RowHits++
		} else {
			k.rowTag[bank] = row
			k.rowHas[bank] = true
			service = k.missD
			k.res.RowConflicts++
		}
		// DRAM services vary (hit vs miss), so BankBusy's partial sums
		// depend on the event engine's accumulation order; defer to
		// finalize.
		k.busyEvs = append(k.busyEvs, busyEv{t: start, key: key, v: service})
	} else {
		rw := k.regW
		ep := int64(start / rw)
		if ep > k.regEpoch[bank] {
			k.regEpoch[bank] = ep
			k.regUsed[bank] = 0
		}
		if k.regUsed[bank] >= k.regB {
			// Budget exhausted: hold the bank until the next window opens.
			k.regEpoch[bank]++
			k.regUsed[bank] = 0
			ns := float64(k.regEpoch[bank]) * rw
			k.res.ThrottleStalls++
			k.busyEvs = append(k.busyEvs, busyEv{t: start, key: key, v: ns - start})
			start = ns
		}
		k.regUsed[bank]++
		service = k.d
		k.busyAcc += service
	}
	if k.probed {
		// Regulation may defer the start past the predecessor's finish,
		// so the wait is taken from the final start: start − a, which
		// is zero for an undeferred start on an idle bank.
		k.cBusy[bank] += service
		k.cWait[bank] += start - a
	}
	done := start + service
	k.lastFin[bank] = done
	k.lastSeq[bank] = reqSeq
	k.serve[bank]++
	return done
}

// countQueued records, for a probed run, an arrival at bank that found
// it busy: it waits wait cycles (0 when the caller adds the wait
// itself) behind a line of depth requests.
func (k *kernel) countQueued(bank int, wait float64, depth int32) {
	k.cQueued++
	k.cWait[bank] += wait
	if depth > k.cDepth[bank] {
		k.cDepth[bank] = depth
	}
}

// drainComp pops the pending completions strictly earlier than t,
// releasing their processors' window slots. Completion responses update
// the completion clock at push time (max, order-independent), so the
// drain only touches outst.
func (k *kernel) drainComp(t float64) {
	h := k.comp
	for len(h) > 0 && h[0].t < t {
		k.outst[h[0].proc]--
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		// Sift down by time.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].t < h[c].t {
				c++
			}
			if h[i].t <= h[c].t {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	k.comp = h
}

// pushComp inserts a pending completion into the min-heap.
func (k *kernel) pushComp(e compEv) {
	h := append(k.comp, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.comp = h
}

// Replay candidate aux keys: the event kind packed above the request
// seq, so one int64 comparison resolves the (kind, seq) tie-break. Kind
// 0 is an injection attempt, 1 a late re-inject (see runReplay), 4 a
// completion — the event queue's evInject/evComplete tags. repAuxNone
// pairs with a +Inf candidate time to mark an idle processor; it
// compares greater than every live key.
const (
	repAuxLate = int64(1) << 32
	repAuxComp = int64(4) << 32
	repAuxNone = int64(math.MaxInt64)
)

// pcLess orders a processor's private replay completions by (time,
// seq) — the event queue's key restricted to one kind. Time alone is
// not enough: when two blocked processors hold same-time head
// completions, the smaller request seq unblocks first in the event
// engine, and the unblock order assigns the fresh re-inject seqs that
// order the re-arrivals at the banks.
func pcLess(a, x *compEv) bool {
	if a.t != x.t {
		return a.t < x.t
	}
	return a.seq < x.seq
}

// pushPC inserts a completion into one processor's replay min-heap.
func pushPC(h []compEv, e compEv) []compEv {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pcLess(&h[parent], &h[i]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// popPC removes the heap head; the caller has already read it.
func popPC(h []compEv) []compEv {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && pcLess(&h[c+1], &h[c]) {
			c++
		}
		if pcLess(&h[i], &h[c]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}

// runReplay finishes a closed-loop run after its first window stall:
// processor p's injection attempt in round r found the window full, so
// from here on injection times leave the grid and the round-major walk
// no longer matches the event order. served is the number of requests
// the walk already served (for the cancellation message).
//
// The replay is not the event engine, and it keeps no global event
// queue either. Only two event kinds still carry information —
// injection attempts (evInject) and completions (evComplete) — and of
// those, only injects and the completions that unblock a window-stalled
// processor have globally ordered effects. Each processor therefore
// exposes at most one candidate: its pending inject (kind 0, or 1 for a
// "late" re-inject, see below), or, when blocked, the head of its
// private (time, seq) completion heap (kind 4). The main loop picks the
// (time, kind, seq)-minimum candidate with a linear scan, which
// reproduces the event queue's pop order exactly: a non-unblocking
// completion only shrinks its own processor's in-flight window, which
// nothing reads until that processor's next injection attempt — so it
// is drained lazily, from the completions strictly earlier than the
// attempt (same-instant completions pop after the inject in the event
// queue, evInject < evComplete).
//
// Better still, an attempt's blocked/clear outcome is known the moment
// its candidate is created: a processor's private heap is already
// complete below its next inject time (only the processor's own injects
// add completions, and it has none pending), so the drain and the
// window check run at creation, and an attempt that will block never
// becomes a loop event — its candidate is directly the head completion
// that will clear it, with one seq burned for the inject event the
// event engine still pushes. The in-flight count is the private heap's
// length (every inject pushes one completion, every drain or unblock
// pops one), so the replay maintains no separate window counter.
//
// Bank arrivals need no events of their own: injects are processed in
// time order and NetDelay is constant, so applying each arrival at
// injection keeps every bank's service order identical to the event
// queue's, and bank-done times are the service chain the per-bank state
// already models. Window bookkeeping is exact: a blocked attempt
// consumes no seq, the completion that unblocks a processor consumes
// one fresh seq for the re-inject at max(completion time, nextIssueAt),
// and same-time completions unblock in seq order across processors —
// observable, because each re-inject's seq orders its bank arrival
// against simultaneous ones. A kind-1 ("late") re-inject is one
// scheduled at its own completion's instant with NetDelay 0: the event
// engine pushes it after the same-time bank-done events already popped
// (evBankDone < evComplete), so its arrival must see those dequeues
// applied — but it still fires before the remaining same-time
// completions (evInject < evComplete), hence kind 1 sorting between 0
// and 4. That order is exact because a late inject's seq is fresher
// than any same-time kind-0 inject's, so the seq tie-break already
// placed it last among them.
func (k *kernel) runReplay(ctx context.Context, pt core.Pattern, r, p, served int) error {
	np := len(pt.PerProc)
	next, nia := k.rNext, k.rNIA
	candT, candA := k.rCandT, k.rCandA
	G := k.g
	nd := k.nd
	win := int(k.win)
	t0 := k.injT
	probed := k.probed
	lastDone, stall := k.lastDone, k.cStall
	none := math.Inf(1)

	// Split the shared completion heap into the private per-proc (time,
	// seq) heaps first: candidate creation below drains them.
	for q := 0; q < np; q++ {
		k.rComp[q] = k.rComp[q][:0]
	}
	for _, c := range k.comp {
		k.rComp[c.proc] = pushPC(k.rComp[c.proc], c)
	}

	// Reconstruct per-processor state at the stall instant. Processors
	// before p already injected this round (their pending inject sits at
	// the next grid point); p's attempt just blocked (its pending inject
	// event is consumed), so its candidate is its earliest pending
	// completion; processors after p still hold this round's inject at
	// t0, with seqs assigned during round r-1.
	for q := 0; q < np; q++ {
		lq := len(pt.PerProc[q])
		var nq int
		if q < p {
			nq = r + 1
			nia[q] = t0 + G
		} else {
			nq = r
			nia[q] = t0
		}
		if nq > lq {
			nq = lq
		}
		next[q] = int32(nq)
		h := k.rComp[q]
		switch {
		case q == p:
			candT[q] = h[0].t
			candA[q] = repAuxComp | int64(h[0].seq)
		case nq < lq:
			ti := nia[q]
			for len(h) > 0 && h[0].t < ti {
				h = popPC(h)
			}
			k.rComp[q] = h
			if len(h) >= win {
				candT[q] = h[0].t
				candA[q] = repAuxComp | int64(h[0].seq)
			} else {
				candT[q] = ti
				candA[q] = int64(k.injSeq[q])
			}
		default:
			candT[q] = none
			candA[q] = repAuxNone
		}
	}

	seqc := k.seqCtr
	sincePoll := 0
	needScan := true
	best := -1
	bt, bt2 := none, none
	ba, ba2 := repAuxNone, repAuxNone
	for {
		if needScan {
			// Linear argmin over the per-processor candidates under the
			// (time, kind, seq) key, tracking the runner-up. An idle
			// processor's sentinel (+Inf, repAuxNone) loses every
			// comparison, including against another sentinel, so an
			// all-idle scan leaves best at -1.
			needScan = false
			best = -1
			bt, ba = none, repAuxNone
			bt2, ba2 = none, repAuxNone
			for q := 0; q < np; q++ {
				t, a := candT[q], candA[q]
				if t < bt || (t == bt && a < ba) {
					bt2, ba2 = bt, ba
					best, bt, ba = q, t, a
				} else if t < bt2 || (t == bt2 && a < ba2) {
					bt2, ba2 = t, a
				}
			}
			if best < 0 {
				break
			}
		}
		sincePoll++
		if sincePoll >= kernelPollRequests {
			sincePoll = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: kernel replay cancelled after %d requests: %w", served, err)
			}
		}
		q := best
		if ba < repAuxComp {
			// Injection. The window was checked and the heap drained when
			// this candidate was created, so the inject just serves.
			addrs := pt.PerProc[q]
			addr := addrs[next[q]]
			seqc++
			reqSeq := seqc
			next[q]++
			nia[q] = bt + G
			a := bt + nd
			done := k.serveAt(bankOf(k.mk, k.mkArg, k.bm, addr), a, addr, reqSeq, ba >= repAuxLate)
			served++
			ct := done + nd
			if ct > lastDone {
				lastDone = ct
			}
			h := pushPC(k.rComp[q], compEv{t: ct, seq: reqSeq, proc: int32(q)})
			if int(next[q]) < len(addrs) {
				// Resolve the next attempt now: the heap is complete below
				// its time, so drain, burn the attempt's seq, and expose
				// either the inject or, if the window is full, the head
				// completion that will clear it (stable until it pops — a
				// blocked processor injects nothing, and nothing else
				// pushes into its heap).
				ti := nia[q]
				for len(h) > 0 && h[0].t < ti {
					h = popPC(h)
				}
				seqc++
				if len(h) >= win {
					candT[q] = h[0].t
					candA[q] = repAuxComp | int64(h[0].seq)
				} else {
					candT[q] = ti
					candA[q] = int64(seqc)
				}
			} else {
				candT[q] = none
				candA[q] = repAuxNone
			}
			k.rComp[q] = h
		} else {
			// Head completion of a blocked processor: unblock and
			// schedule the re-inject with a fresh seq. It cannot block —
			// the window just opened and only q's own injects refill it —
			// so drain below its time and expose it directly.
			ct := bt
			if probed {
				// q has been blocked since its attempt at nia[q]; the
				// unblocks pop in the event engine's order, so the sum
				// replays its accumulation exactly.
				stall += ct - nia[q]
			}
			h := popPC(k.rComp[q])
			t2 := ct
			if nia[q] > t2 {
				t2 = nia[q]
			}
			for len(h) > 0 && h[0].t < t2 {
				h = popPC(h)
			}
			k.rComp[q] = h
			var aux int64
			if t2 == ct && nd == 0 {
				aux = repAuxLate
			}
			seqc++
			candT[q] = t2
			candA[q] = aux | int64(seqc)
		}
		// Only q's candidate changed. If it still beats the runner-up it
		// is still the minimum, and the next iteration skips the scan —
		// the common case in saturation, where an unblock, its re-inject
		// and the following blocked attempt land back to back.
		if t, a := candT[q], candA[q]; t < bt2 || (t == bt2 && a < ba2) {
			bt, ba = t, a
		} else {
			needScan = true
		}
	}
	k.seqCtr, k.lastDone, k.cStall = seqc, lastDone, stall
	return nil
}

// finalize assembles the Result. Deferred accumulations (DRAM BankBusy,
// Regulated ThrottleStallCycles) are summed in event order here.
func (k *kernel) finalize(pt core.Pattern) {
	res := &k.res
	n := pt.N()
	res.Cycles = k.lastDone
	res.Requests = n
	res.BankServices = n
	res.MaxBankQueue = int(k.maxQ)
	res.BankBusy = k.busyAcc
	switch k.cls {
	case clsDRAM:
		res.BankBusy = sumInEventOrder(k.busyEvs)
	case clsReg:
		res.ThrottleStallCycles = sumInEventOrder(k.busyEvs)
	}
	for _, c := range k.serve {
		res.MaxBankServed = max(res.MaxBankServed, int(c))
	}
}

// commit hands the Result and Counters to the run's probe. Busy time per
// bank is rebuilt here for the constant-service FIFO class: a bank that
// served n requests accumulated d exactly n times in the event engine,
// so repeating the additions replays its sum without touching the hot
// loop. The variable-service classes accumulated it in serveAt.
func (k *kernel) commit() {
	if k.cls == clsFIFO {
		for i, n := range k.serve {
			busy := 0.0
			for ; n > 0; n-- {
				busy += k.d
			}
			k.cBusy[i] = busy
		}
	}
	k.cnt = Counters{
		Services:     k.serve,
		Busy:         k.cBusy,
		Wait:         k.cWait,
		MaxDepth:     k.cDepth,
		QueuedStarts: int(k.cQueued),
		WindowStall:  k.cStall,
	}
	k.rp.RunDone(k.res, &k.cnt)
	k.rp = nil
}
