package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// BankMap maps memory addresses (word indices) to memory banks. The
// identity-interleave map models conventional hardware interleaving; the
// hashfn package provides pseudo-random (universal hash) maps.
type BankMap interface {
	// Bank returns the bank index in [0, NumBanks()) holding addr.
	Bank(addr uint64) int
	// NumBanks returns the number of banks the map distributes over.
	NumBanks() int
}

// InterleaveMap is the conventional bank mapping: bank = addr mod banks.
// Consecutive addresses land in consecutive banks, so unit-stride access is
// perfectly spread, while stride-b access concentrates on one bank.
type InterleaveMap struct {
	Banks int
}

// Bank implements BankMap.
func (m InterleaveMap) Bank(addr uint64) int { return int(addr % uint64(m.Banks)) }

// NumBanks implements BankMap.
func (m InterleaveMap) NumBanks() int { return m.Banks }

// GPUSharedMap is the GPU shared-memory bank mapping: successive 32-bit
// words map to successive banks, so for byte addresses
// bank = (addr / 4) mod banks. With the canonical 32 banks, a warp's
// lanes conflict exactly when their word indices collide modulo 32
// (SNIPPETS.md puzzle 32): unit word stride is conflict-free, even
// strides serialize by gcd(stride, 32).
type GPUSharedMap struct {
	Banks int
}

// Bank implements BankMap.
func (m GPUSharedMap) Bank(addr uint64) int { return int((addr / 4) % uint64(m.Banks)) }

// NumBanks implements BankMap.
func (m GPUSharedMap) NumBanks() int { return m.Banks }

// Pattern is a bulk memory access pattern: for each processor, the ordered
// list of addresses it issues during one superstep (one vectorized scatter
// or gather). Patterns are what the model profiles and what the simulator
// executes.
type Pattern struct {
	PerProc [][]uint64
}

// NewPattern distributes a flat address stream round-robin over p
// processors, the way a vectorized loop distributes iterations.
func NewPattern(addrs []uint64, p int) Pattern {
	if p <= 0 {
		panic(fmt.Sprintf("core: NewPattern with p=%d", p))
	}
	per := make([][]uint64, p)
	if len(addrs) == 0 {
		return Pattern{PerProc: per}
	}
	chunk := (len(addrs) + p - 1) / p
	for i := range per {
		per[i] = make([]uint64, 0, chunk)
	}
	for i, a := range addrs {
		per[i%p] = append(per[i%p], a)
	}
	return Pattern{PerProc: per}
}

// NewPatternBlocked distributes a flat address stream in contiguous blocks:
// processor 0 gets the first n/p addresses, and so on. This matches how
// the paper's multiprocessor experiments divide an array among CPUs.
func NewPatternBlocked(addrs []uint64, p int) Pattern {
	if p <= 0 {
		panic(fmt.Sprintf("core: NewPatternBlocked with p=%d", p))
	}
	per := make([][]uint64, p)
	n := len(addrs)
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		per[i] = addrs[lo:hi:hi]
	}
	return Pattern{PerProc: per}
}

// N returns the total number of requests in the pattern.
func (pt Pattern) N() int {
	n := 0
	for _, a := range pt.PerProc {
		n += len(a)
	}
	return n
}

// Procs returns the number of processors in the pattern.
func (pt Pattern) Procs() int { return len(pt.PerProc) }

// Flatten returns all addresses in round-robin issue order.
func (pt Pattern) Flatten() []uint64 {
	out := make([]uint64, 0, pt.N())
	maxLen := 0
	for _, a := range pt.PerProc {
		if len(a) > maxLen {
			maxLen = len(a)
		}
	}
	for j := 0; j < maxLen; j++ {
		for _, a := range pt.PerProc {
			if j < len(a) {
				out = append(out, a[j])
			}
		}
	}
	return out
}

// Profile summarizes the contention structure of a Pattern under a given
// bank mapping. It holds exactly the quantities the (d,x)-BSP cost law
// consumes, plus diagnostics used by the experiments.
type Profile struct {
	N     int // total requests
	Procs int // processors issuing them
	Banks int // banks in the mapping

	MaxH int // max requests issued by one processor (BSP's h)
	MaxK int // max requests received by one bank (the d*k term)

	// MaxLoc is the maximum number of requests addressed to one memory
	// location — the QRQW notion of contention κ. MaxK >= ceil stats of
	// MaxLoc since co-located requests share a bank.
	MaxLoc       int
	DistinctLocs int

	// MaxKDistinct is the maximum, over banks, of the number of *distinct
	// locations* mapped to the bank that are touched by the pattern. The
	// gap between MaxK and MaxLoc that is explained by multiple locations
	// sharing a bank — module-map contention — shows up here.
	MaxKDistinct int

	// BankLoads is the full per-bank request histogram (length Banks) when
	// retained; nil when the profile was computed with retention disabled.
	BankLoads []int
}

// sortAddrs sorts addresses ascending. Large inputs use an LSD radix
// sort into dst (len(dst) >= len(xs)) — profiling is O(n) end to end, and
// address streams usually span far fewer than 64 significant bits, so
// constant high bytes make most of the 8 passes free.
func sortAddrs(xs, dst []uint64) {
	const radixCutover = 256
	if len(xs) < radixCutover {
		slices.Sort(xs)
		return
	}
	var counts [8][256]int
	for _, x := range xs {
		for b := uint(0); b < 8; b++ {
			counts[b][byte(x>>(8*b))]++
		}
	}
	n := len(xs)
	src, dst := xs, dst[:n]
	for b := uint(0); b < 8; b++ {
		c := &counts[b]
		// A byte position where every address shares one value sorts to
		// the identity permutation; skip the pass.
		if c[byte(src[0]>>(8*b))] == n {
			continue
		}
		offset := 0
		var starts [256]int
		for v := 0; v < 256; v++ {
			starts[v] = offset
			offset += c[v]
		}
		for _, x := range src {
			v := byte(x >> (8 * b))
			dst[starts[v]] = x
			starts[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// ComputeProfile profiles pattern pt under bank map bm.
func ComputeProfile(pt Pattern, bm BankMap) Profile {
	return computeProfile(pt, bm, true)
}

// ComputeProfileCompact is ComputeProfile without retaining the per-bank
// histogram, for very large bank counts in tight loops.
func ComputeProfileCompact(pt Pattern, bm BankMap) Profile {
	return computeProfile(pt, bm, false)
}

// ComputeProfileStream returns ComputeProfileCompact(NewPattern(addrs, p),
// bm) without building the pattern: round-robin issue gives the busiest
// processor ceil(n/p) requests, and every other field depends only on the
// multiset of addresses. It panics if p <= 0, as NewPattern does.
func ComputeProfileStream(addrs []uint64, p int, bm BankMap) Profile {
	if p <= 0 {
		panic(fmt.Sprintf("core: ComputeProfileStream with p=%d", p))
	}
	n := len(addrs)
	return profileStreams([][]uint64{addrs}, n, p, (n+p-1)/p, bm, false)
}

func computeProfile(pt Pattern, bm BankMap, keep bool) Profile {
	maxH := 0
	for _, per := range pt.PerProc {
		maxH = max(maxH, len(per))
	}
	return profileStreams(pt.PerProc, pt.N(), pt.Procs(), maxH, bm, keep)
}

// denseSpanFactor sets the location-counting cut-over: addresses spanning
// fewer than denseSpanFactor·n words are counted in a dense array indexed
// by address − lo, wider streams are sorted. Every gather or scatter of a
// vector at most 4× its index stream's length lands on the dense side.
const denseSpanFactor = 4

// useDense reports whether n addresses in [lo, hi] take the dense
// counter. hi − lo never overflows (hi >= lo), and n is kept to int32
// counters.
func useDense(lo, hi uint64, n int) bool {
	return n > 0 && n <= math.MaxInt32 && hi-lo < denseSpanFactor*uint64(n)
}

// profScratch holds profileStreams' working buffers between calls.
// counts is all zero whenever the scratch is in profPool: the dense walk
// clears every slot it reads.
type profScratch struct {
	loads    []int    // per-bank request counts of compact profiles
	distinct []int    // per-bank distinct-location counts
	counts   []int32  // dense per-location counts, indexed by address − lo
	sorted   []uint64 // flat copy of the addresses for the sort branch
	radix    []uint64 // radix sort destination
}

var profPool = sync.Pool{New: func() any { return new(profScratch) }}

// zeroed returns s resized to n zeroed elements, reusing its storage.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bankFunc is bm.Bank for the hot loops. A power-of-two InterleaveMap,
// the default map of every catalogue machine, becomes a mask instead of
// an interface call and a division per address.
type bankFunc struct {
	bm   BankMap
	mask uint64
	pow2 bool
}

func newBankFunc(bm BankMap) bankFunc {
	if m, ok := bm.(InterleaveMap); ok && m.Banks > 0 && m.Banks&(m.Banks-1) == 0 {
		return bankFunc{mask: uint64(m.Banks - 1), pow2: true}
	}
	return bankFunc{bm: bm}
}

func (f bankFunc) bank(a uint64) int {
	if f.pow2 {
		return int(a & f.mask)
	}
	return f.bm.Bank(a)
}

// profileStreams is the counting core behind every ComputeProfile entry
// point. streams holds the n addresses grouped any way (per processor, or
// one flat stream); procs and maxH are the issue shape the caller knows.
// Warm calls allocate only a retained BankLoads histogram (keep).
func profileStreams(streams [][]uint64, n, procs, maxH int, bm BankMap, keep bool) Profile {
	banks := bm.NumBanks()
	prof := Profile{N: n, Procs: procs, Banks: banks, MaxH: maxH}
	bank := newBankFunc(bm)
	s := profPool.Get().(*profScratch)
	var loads []int
	if keep {
		loads = make([]int, banks)
	} else {
		s.loads = zeroed(s.loads, banks)
		loads = s.loads
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, st := range streams {
		for _, a := range st {
			loads[bank.bank(a)]++
			lo = min(lo, a)
			hi = max(hi, a)
		}
	}
	for _, k := range loads {
		prof.MaxK = max(prof.MaxK, k)
	}
	// Location contention (MaxLoc, DistinctLocs) and distinct locations
	// per bank. A narrow span counts each location in a dense array; a
	// second walk takes each location's count at its first occurrence and
	// clears the slot, so later occurrences read zero and add nothing.
	// The cost is O(n) whatever the span, and the array returns to the
	// pool clean. (The walk is branch-free: which occurrence comes first
	// is unpredictable, and a bank lookup is cheaper than a mispredict.)
	// A wide span sorts a flat copy instead: equal addresses form runs,
	// each run one distinct location.
	s.distinct = zeroed(s.distinct, banks)
	distinct := s.distinct
	if useDense(lo, hi, n) {
		if span := int(hi-lo) + 1; cap(s.counts) < span {
			s.counts = make([]int32, span)
		}
		counts := s.counts
		for _, st := range streams {
			for _, a := range st {
				counts[a-lo]++
			}
		}
		for _, st := range streams {
			for _, a := range st {
				c := counts[a-lo]
				counts[a-lo] = 0
				first := 0
				if c != 0 {
					first = 1
				}
				prof.DistinctLocs += first
				prof.MaxLoc = max(prof.MaxLoc, int(c))
				distinct[bank.bank(a)] += first
			}
		}
	} else if n > 0 {
		addrs := s.sorted[:0]
		for _, st := range streams {
			addrs = append(addrs, st...)
		}
		s.sorted = addrs
		if cap(s.radix) < n {
			s.radix = make([]uint64, n)
		}
		sortAddrs(addrs, s.radix)
		for i := 0; i < n; {
			j := i + 1
			for j < n && addrs[j] == addrs[i] {
				j++
			}
			prof.DistinctLocs++
			prof.MaxLoc = max(prof.MaxLoc, j-i)
			distinct[bank.bank(addrs[i])]++
			i = j
		}
	}
	for _, k := range distinct {
		prof.MaxKDistinct = max(prof.MaxKDistinct, k)
	}
	if keep {
		prof.BankLoads = loads
	}
	profPool.Put(s)
	return prof
}

// LocationSpectrum returns the contention spectrum of a pattern: for each
// occurring contention level c, the number of distinct locations accessed
// exactly c times. The spectrum is what distinguishes "one hot spot"
// patterns from "everything lukewarm" patterns that share the same MaxLoc.
func LocationSpectrum(pt Pattern) map[int]int {
	counts := make(map[uint64]int)
	for _, addrs := range pt.PerProc {
		for _, a := range addrs {
			counts[a]++
		}
	}
	spectrum := make(map[int]int)
	for _, c := range counts {
		spectrum[c]++
	}
	return spectrum
}

// LoadPercentile returns the q-quantile (0 <= q <= 1) of the per-bank load
// distribution. Requires the profile to have been computed with the
// histogram retained.
func (p Profile) LoadPercentile(q float64) int {
	if p.BankLoads == nil {
		panic("core: LoadPercentile on compact profile")
	}
	loads := make([]int, len(p.BankLoads))
	copy(loads, p.BankLoads)
	sort.Ints(loads)
	idx := int(q * float64(len(loads)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(loads) {
		idx = len(loads) - 1
	}
	return loads[idx]
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("Profile{n=%d p=%d b=%d h=%d k=%d κ=%d distinct=%d}",
		p.N, p.Procs, p.Banks, p.MaxH, p.MaxK, p.MaxLoc, p.DistinctLocs)
}
