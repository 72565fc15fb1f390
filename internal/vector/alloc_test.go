package vector

import (
	"reflect"
	"slices"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// irregularFixture is a J90 machine with a 4096-element source and
// destination and a random index vector into them.
func irregularFixture(t *testing.T, opts ...Option) (vm *Machine, src, dst, idx *Vec) {
	t.Helper()
	const n = 4096
	vm = newVM(t, opts...)
	src, dst, idx = vm.Alloc(n), vm.Alloc(n), vm.Alloc(n)
	g := rng.New(21)
	for i := range idx.Data {
		src.Data[i] = int64(i)
		idx.Data[i] = int64(g.Intn(n))
	}
	return vm, src, dst, idx
}

// A warm Analytic-mode irregular superstep allocates nothing: the address
// buffer belongs to the Machine and the profile's scratch is pooled.
func TestAnalyticIrregularZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode defeats sync.Pool caching, so the zero-alloc pin cannot hold")
	}
	vm, src, dst, idx := irregularFixture(t)
	ops := func() {
		vm.Gather(dst, src, idx)
		vm.Scatter(dst, src, idx)
		vm.ScatterAdd(dst, src, idx)
		vm.ScatterConst(dst, 1, idx)
	}
	ops() // warm: grow the address buffer and the pooled scratch
	if allocs := testing.AllocsPerRun(20, ops); allocs != 0 {
		t.Errorf("warm Gather/Scatter/ScatterAdd/ScatterConst allocate %v per call, want 0", allocs)
	}
}

// The capture hook sees each superstep's own addresses (base + index),
// and the traced profile is the one the old per-superstep pattern gave,
// although every superstep reuses one buffer.
func TestCaptureAndTraceWithReusedBuffer(t *testing.T) {
	var got [][]uint64
	var profs []core.Profile
	vm, src, dst, idx := irregularFixture(t,
		WithCapture(func(_ string, addrs []uint64) { got = append(got, slices.Clone(addrs)) }),
		WithTrace(func(_ string, prof core.Profile, _ float64) { profs = append(profs, prof) }))
	small := vm.AllocInit([]int64{3, 1, 3})
	vm.Gather(dst, src, idx)
	vm.Scatter(dst, src, idx)
	vm.ScatterAdd(dst, src, idx)
	vm.ScatterConst(src, 0, small)
	vm.Broadcast(dst, src, 5)

	at := func(v *Vec, ix []int64) []uint64 {
		out := make([]uint64, len(ix))
		for i, x := range ix {
			out[i] = v.Base + uint64(x)
		}
		return out
	}
	five := make([]int64, dst.Len())
	for i := range five {
		five[i] = 5
	}
	want := [][]uint64{
		at(src, idx.Data), at(dst, idx.Data), at(dst, idx.Data),
		at(src, []int64{3, 1, 3}), at(src, five),
	}
	if len(got) != len(want) || len(profs) != len(want) {
		t.Fatalf("captured %d streams and %d profiles, want %d", len(got), len(profs), len(want))
	}
	bm := core.InterleaveMap{Banks: vm.Mach().Banks}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("superstep %d: captured addresses differ from base+index", i)
		}
		if p := core.ComputeProfileCompact(core.NewPattern(want[i], vm.Mach().Procs), bm); !reflect.DeepEqual(profs[i], p) {
			t.Errorf("superstep %d: traced profile %v, pattern profile %v", i, profs[i], p)
		}
	}
}
