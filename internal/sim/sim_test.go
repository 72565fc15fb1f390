package sim

import (
	"context"
	"math"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

func testMachine() core.Machine {
	return core.Machine{
		Name: "test", Procs: 4, Banks: 64, D: 6, G: 1, L: 0,
		Sections: 4, SectionGap: 0.5,
	}
}

// runEvent runs cfg on a pooled event Engine whatever its eligibility.
// Run answers BatchEligible configs on the closed-form kernel, so tests
// that use the event engine as an oracle, or that measure the event loop
// itself, call this instead.
func runEvent(cfg Config, pt core.Pattern) (Result, error) {
	e := AcquireEngine()
	defer ReleaseEngine(e)
	return e.Run(context.Background(), cfg, pt)
}

func seqAddrs(n int) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i)
	}
	return a
}

func constAddrs(n int, v uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = v
	}
	return a
}

func TestRunEmptyPattern(t *testing.T) {
	r, err := Run(Config{Machine: testMachine()}, core.NewPattern(nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 0 || r.Requests != 0 {
		t.Errorf("empty run: %+v", r)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Machine: core.Machine{}}, core.NewPattern(nil, 1)); err == nil {
		t.Error("invalid machine accepted")
	}
	m := testMachine()
	if _, err := Run(Config{Machine: m}, core.NewPattern(seqAddrs(8), 8)); err == nil {
		t.Error("pattern wider than machine accepted")
	}
	if _, err := Run(Config{Machine: m, BankMap: core.InterleaveMap{Banks: 3}}, core.NewPattern(seqAddrs(8), 2)); err == nil {
		t.Error("mismatched bank map accepted")
	}
}

func TestFullySerializedAtOneBank(t *testing.T) {
	// All n requests to one address: the single bank serves them one per d
	// cycles, so completion ~ n*d regardless of processors.
	m := testMachine()
	n := 256
	pt := core.NewPattern(constAddrs(n, 5), m.Procs)
	r, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * m.D
	if math.Abs(r.Cycles-want)/want > 0.05 {
		t.Errorf("serialized cycles = %v, want ≈ %v", r.Cycles, want)
	}
	if r.MaxBankServed != n {
		t.Errorf("MaxBankServed = %d, want %d", r.MaxBankServed, n)
	}
}

func TestBandwidthBoundFlatPattern(t *testing.T) {
	// Unit stride with x=16 >= d=6: completion ~ g*n/p.
	m := testMachine()
	n := 4096
	pt := core.NewPattern(seqAddrs(n), m.Procs)
	r, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := m.G * float64(n) / float64(m.Procs)
	if r.Cycles < want {
		t.Errorf("cycles %v below issue-rate bound %v", r.Cycles, want)
	}
	if r.Cycles > want*1.2 {
		t.Errorf("flat pattern cycles = %v, want ≈ %v (within 20%%)", r.Cycles, want)
	}
}

func TestSimMatchesModelAcrossContention(t *testing.T) {
	// The central validation: for k-contention patterns, simulated cycles
	// track the (d,x)-BSP prediction within a modest factor, while the BSP
	// prediction fails badly at high contention.
	m := core.J90()
	n := 8192
	for k := 1; k <= n; k *= 8 {
		addrs := make([]uint64, n)
		for i := range addrs {
			// k copies each of n/k distinct locations, spread over banks.
			addrs[i] = uint64(i % (n / k))
		}
		pt := core.NewPattern(addrs, m.Procs)
		prof := core.ComputeProfile(pt, core.InterleaveMap{Banks: m.Banks})
		r, err := Run(Config{Machine: m}, pt)
		if err != nil {
			t.Fatal(err)
		}
		pred := m.PredictDXBSP(prof)
		ratio := r.Cycles / pred
		if ratio < 0.7 || ratio > 2.0 {
			t.Errorf("k=%d: sim=%v dxbsp=%v ratio=%.2f outside [0.7,2.0]", k, r.Cycles, pred, ratio)
		}
		if k == n {
			bsp := m.PredictBSP(prof)
			if r.Cycles < 5*bsp {
				t.Errorf("k=n: BSP prediction %v should be wildly below sim %v", bsp, r.Cycles)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := testMachine()
	g := rng.New(3)
	addrs := make([]uint64, 2000)
	for i := range addrs {
		addrs[i] = g.Uint64n(512)
	}
	pt := core.NewPattern(addrs, m.Procs)
	cfg := Config{Machine: m, UseSections: true, Window: 32}
	r1, err := Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestWindowLimitsSlowsNothingWhenLatencyZero(t *testing.T) {
	// With zero net delay, even a tiny window should not change completion
	// much for a flat pattern (responses return instantly).
	m := testMachine()
	pt := core.NewPattern(seqAddrs(1024), m.Procs)
	open, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	win, err := Run(Config{Machine: m, Window: 4}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if win.Cycles > open.Cycles*1.5 {
		t.Errorf("window=4 cycles %v vs open %v", win.Cycles, open.Cycles)
	}
}

func TestWindowWithLatencyThrottles(t *testing.T) {
	// With substantial latency and window=1, the processor issues one
	// request per round trip: completion ~ h * (2*netDelay + d).
	m := testMachine()
	m.L = 100 // netDelay = 50 each way
	n := 64
	pt := core.NewPattern(seqAddrs(n), 1)
	r, err := Run(Config{Machine: m, Window: 1}, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * (100 + m.D)
	if math.Abs(r.Cycles-want)/want > 0.1 {
		t.Errorf("window=1 cycles = %v, want ≈ %v", r.Cycles, want)
	}
}

func TestCombiningCollapsesHotSpot(t *testing.T) {
	m := testMachine()
	n := 512
	pt := core.NewPattern(constAddrs(n, 9), m.Procs)
	plain, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := Run(Config{Machine: m, Combining: true}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if comb.Cycles >= plain.Cycles/4 {
		t.Errorf("combining should collapse the hot spot: %v vs %v", comb.Cycles, plain.Cycles)
	}
	if comb.BankServices >= plain.BankServices {
		t.Errorf("combining should reduce bank services: %d vs %d", comb.BankServices, plain.BankServices)
	}
}

func TestSectionCongestion(t *testing.T) {
	// All requests to banks in one section, with section bandwidth below
	// aggregate processor bandwidth: section becomes the bottleneck.
	m := core.Machine{
		Name: "sec", Procs: 8, Banks: 64, D: 1, G: 1, L: 0,
		Sections: 8, SectionGap: 1, // one request/cycle per section
	}
	n := 2048
	// Banks 0..7 are section 0; spread addresses over banks 0..7 only.
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i % 8)
	}
	// Use distinct locations within the section's banks to avoid location
	// serialization: addr = (i%8) + 64*k maps to bank (i%8).
	for i := range addrs {
		addrs[i] = uint64(i%8) + 64*uint64(i/8)
	}
	pt := core.NewPattern(addrs, m.Procs)

	free, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	cong, err := Run(Config{Machine: m, UseSections: true}, pt)
	if err != nil {
		t.Fatal(err)
	}
	// Without sections: 8 banks at d=1 serve 8/cycle, processors feed
	// 8/cycle → ~n/8 cycles. With one section at 1/cycle → ~n cycles.
	if cong.Cycles < 4*free.Cycles {
		t.Errorf("section congestion missing: congested=%v free=%v", cong.Cycles, free.Cycles)
	}
}

func TestBankBusyAccounting(t *testing.T) {
	m := testMachine()
	n := 100
	pt := core.NewPattern(seqAddrs(n), m.Procs)
	r, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n) * m.D; r.BankBusy != want {
		t.Errorf("BankBusy = %v, want %v", r.BankBusy, want)
	}
	if r.BankServices != n {
		t.Errorf("BankServices = %d, want %d", r.BankServices, n)
	}
}

func TestRunSupersteps(t *testing.T) {
	m := testMachine()
	m.L = 50
	steps := []core.Pattern{
		core.NewPattern(seqAddrs(128), m.Procs),
		core.NewPattern(constAddrs(64, 3), m.Procs),
	}
	results, total, err := RunSupersteps(Config{Machine: m}, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	sum := 0.0
	for _, r := range results {
		sum += r.Cycles + m.L
	}
	if math.Abs(total-sum) > 1e-9 {
		t.Errorf("total = %v, want %v", total, sum)
	}
}

func TestCyclesPerElement(t *testing.T) {
	r := Result{Cycles: 1000, Requests: 500}
	if got := r.CyclesPerElement(8); got != 16 {
		t.Errorf("CyclesPerElement = %v", got)
	}
	if got := (Result{}).CyclesPerElement(8); got != 0 {
		t.Errorf("empty CyclesPerElement = %v", got)
	}
}

func TestMoreBanksNeverSlower(t *testing.T) {
	// Expansion ablation at small scale: doubling banks should not slow a
	// random pattern down (the property behind experiment F6).
	g := rng.New(11)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = g.Uint64()
	}
	prev := math.Inf(1)
	for _, banks := range []int{8, 16, 32, 64, 128} {
		m := core.Machine{Name: "exp", Procs: 8, Banks: banks, D: 6, G: 1, L: 0}
		pt := core.NewPattern(addrs, m.Procs)
		r, err := Run(Config{Machine: m, BankMap: core.InterleaveMap{Banks: banks}}, pt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles > prev*1.02 {
			t.Errorf("banks=%d: %v cycles, slower than fewer banks (%v)", banks, r.Cycles, prev)
		}
		prev = r.Cycles
	}
}
