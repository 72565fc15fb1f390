package core

import (
	"math"
	"slices"
	"testing"

	"dxbsp/internal/hashfn"
	"dxbsp/internal/rng"
)

// fuzzStream draws the fuzzer's address stream: n addresses base + r with
// r uniform below span = 2^(spanLog mod 64) + spanAdd, wrapping past
// 2^64−1. With pinEnds (and n >= 2) the first and last addresses are base
// and base+span−1, so an unwrapped stream has hi−lo = span−1 exactly and
// the dense/sort cut-over can be hit on the nose.
func fuzzStream(n int, spanLog uint8, spanAdd uint16, base uint64, pinEnds bool, seed uint64) []uint64 {
	span := uint64(1)<<(spanLog%64) + uint64(spanAdd)
	g := rng.New(seed)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = base + g.Uint64n(span)
	}
	if pinEnds && n >= 2 {
		addrs[0], addrs[n-1] = base, base+span-1
	}
	return addrs
}

// refProfile is the profile of NewPattern(addrs, p) under bm computed the
// obvious way, with a map per location.
func refProfile(addrs []uint64, p int, bm BankMap) Profile {
	n := len(addrs)
	prof := Profile{N: n, Procs: p, Banks: bm.NumBanks(), MaxH: (n + p - 1) / p}
	prof.BankLoads = make([]int, prof.Banks)
	locs := map[uint64]int{}
	for _, a := range addrs {
		prof.BankLoads[bm.Bank(a)]++
		locs[a]++
	}
	distinct := make([]int, prof.Banks)
	for a, c := range locs {
		prof.MaxLoc = max(prof.MaxLoc, c)
		distinct[bm.Bank(a)]++
	}
	prof.DistinctLocs = len(locs)
	prof.MaxK = slices.Max(prof.BankLoads)
	prof.MaxKDistinct = slices.Max(distinct)
	return prof
}

func sameProfile(t *testing.T, name string, got, want Profile, loads bool) {
	t.Helper()
	if got.N != want.N || got.Procs != want.Procs || got.Banks != want.Banks ||
		got.MaxH != want.MaxH || got.MaxK != want.MaxK || got.MaxLoc != want.MaxLoc ||
		got.DistinctLocs != want.DistinctLocs || got.MaxKDistinct != want.MaxKDistinct {
		t.Fatalf("%s = %v (kd=%d), map reference %v (kd=%d)", name, got, got.MaxKDistinct, want, want.MaxKDistinct)
	}
	if loads && !slices.Equal(got.BankLoads, want.BankLoads) {
		t.Fatalf("%s BankLoads differ from the map reference", name)
	}
	if !loads && got.BankLoads != nil {
		t.Fatalf("%s retained BankLoads", name)
	}
}

// FuzzProfileVsMap checks ComputeProfile, ComputeProfileCompact and
// ComputeProfileStream field by field against a map-based reference, over
// streams that take the dense counter, the sort, and the cut-over between
// them, near both ends of the address space. Each input is profiled twice,
// so a counter slot left dirty in the pooled scratch shows up as a wrong
// second profile.
func FuzzProfileVsMap(f *testing.F) {
	// The committed corpus in testdata/fuzz/FuzzProfileVsMap pins the
	// cut-over cases; these seeds add the common shapes.
	f.Add(uint16(4096), uint8(12), uint16(0), uint64(3<<20), uint8(7), uint16(511), false, false, uint64(1))
	f.Add(uint16(4096), uint8(63), uint16(0), uint64(0), uint8(7), uint16(511), false, false, uint64(2))
	f.Add(uint16(3000), uint8(10), uint16(7), uint64(math.MaxUint64-500), uint8(3), uint16(9), true, false, uint64(3))
	f.Fuzz(func(t *testing.T, nRaw uint16, spanLog uint8, spanAdd uint16, base uint64, pRaw uint8, banksRaw uint16, hashed, pinEnds bool, seed uint64) {
		n := int(nRaw) % 4097
		p := int(pRaw)%16 + 1
		var bm BankMap = InterleaveMap{Banks: int(banksRaw)%1024 + 1}
		if hashed {
			bm = hashfn.Map{F: hashfn.NewLinear(uint(banksRaw)%12+1, rng.New(seed^0x9e3779b97f4a7c15))}
		}
		addrs := fuzzStream(n, spanLog, spanAdd, base, pinEnds, seed)
		want := refProfile(addrs, p, bm)
		pt := NewPattern(addrs, p)
		for range 2 {
			sameProfile(t, "ComputeProfile", ComputeProfile(pt, bm), want, true)
			sameProfile(t, "ComputeProfileCompact", ComputeProfileCompact(pt, bm), want, false)
			sameProfile(t, "ComputeProfileStream", ComputeProfileStream(addrs, p, bm), want, false)
		}
	})
}

// TestProfileDenseCutover pins the dense/sort choice at its edges: spans
// below 4n count densely, 4n and above sort, and spans touching 0 or
// 2^64−1 neither overflow nor wrap.
func TestProfileDenseCutover(t *testing.T) {
	const top = math.MaxUint64
	cases := []struct {
		lo, hi uint64
		n      int
		dense  bool
	}{
		{0, 0, 0, false},            // nothing to count
		{5, 5, 1, true},             // one address
		{100, 100 + 399, 100, true}, // hi−lo = 4n−1
		{100, 100 + 400, 100, false},
		{top - 399, top, 100, true},
		{top - 400, top, 100, false},
		{0, top, 1 << 20, false},         // full 64-bit span
		{0, 3, math.MaxInt32 + 1, false}, // beyond int32 counters
	}
	for _, c := range cases {
		if got := useDense(c.lo, c.hi, c.n); got != c.dense {
			t.Errorf("useDense(%d, %d, %d) = %v, want %v", c.lo, c.hi, c.n, got, c.dense)
		}
	}
}

// ComputeProfileStream rejects a processor count NewPattern rejects.
func TestProfileStreamPanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ComputeProfileStream with p=0 did not panic")
		}
	}()
	ComputeProfileStream([]uint64{1}, 0, InterleaveMap{Banks: 4})
}
