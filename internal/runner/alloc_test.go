package runner

import (
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
)

// TestObserverProbedAllocBudget pins the probed path's end-to-end
// allocation budget, mirroring sim's TestProbesOffAllocBudget: a warm
// run with the Observer attached draws a pooled engine (the kernel for
// the eligible cases, the event engine under sections), which computes
// the run's Counters in retained arenas, and commits them through one
// small collector and the memoized SimKey into an existing contribution
// — so the per-run cost is a handful of allocations (the collector, the
// key string and its Sprintf internals), not the thousands the
// append-grown collectors used to cost. The budget of 64 is the
// regression contract from the zero-allocation sweeps PR (down from
// 4,377); if this fails, an engine stopped retaining storage, or the
// digest memo stopped hitting.
func TestObserverProbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	if raceEnabled {
		t.Skip("race mode defeats sync.Pool caching, so the pooled-run budget cannot hold")
	}
	const budget = 64
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<14, 1<<30, rng.New(7)), m.Procs)
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"open-loop", sim.Config{Machine: m}},
		{"windowed", sim.Config{Machine: m, Window: 8}},
		{"dram", sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM}}},
		{"regulated", sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.Regulated}, Window: 4}},
		{"sections", sim.Config{Machine: m, UseSections: true}},
	} {
		obs := NewObserver()
		cfg := tc.cfg
		cfg.Probe = obs
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := sim.Run(cfg, pt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: %.1f allocs per probed run, budget is %d", tc.name, allocs, budget)
		}
		t.Logf("%s: %.1f allocs per probed run (budget %d)", tc.name, allocs, budget)
	}
}

// TestProbedMatchesBareResults guards the probe neutrality contract at
// the runner level: attaching the Observer must not change cycle counts,
// and every distinct run must commit exactly one contribution.
func TestProbedMatchesBareResults(t *testing.T) {
	m := core.J90()
	obs := NewObserver()
	for i := 0; i < 5; i++ {
		pt := core.NewPattern(patterns.Uniform(1<<10, 1<<24, rng.New(uint64(i))), m.Procs)
		for _, cfg := range []sim.Config{
			{Machine: m},
			{Machine: m, Window: 4},
			{Machine: m, UseSections: true},
		} {
			bare, err := sim.Run(cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Probe = obs
			probed, err := sim.Run(cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			if bare != probed {
				t.Fatalf("pattern %d cfg %+v: probed result %+v differs from bare %+v", i, cfg, probed, bare)
			}
		}
	}
	if got, want := obs.Runs(), 15; got != want {
		t.Fatalf("observer committed %d distinct runs, want %d", got, want)
	}
}

// TestObservedKernelRunAllocsOnlyInObserver pins that observing a warm
// kernel run costs sim nothing: the whole observed run allocates exactly
// what the Observer's own commit allocates when driven by hand (its
// collector and the content key), so the kernel's counter arenas and
// commit add no allocation.
func TestObservedKernelRunAllocsOnlyInObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	if raceEnabled {
		t.Skip("race mode defeats sync.Pool caching, so the pooled-run budget cannot hold")
	}
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<14, 1<<30, rng.New(7)), m.Procs)
	counters := &sim.Counters{
		Services: make([]int32, m.Banks),
		Busy:     make([]float64, m.Banks),
		Wait:     make([]float64, m.Banks),
		MaxDepth: make([]int32, m.Banks),
	}
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"open-loop", sim.Config{Machine: m}},
		{"windowed", sim.Config{Machine: m, Window: 8}},
		{"dram", sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM}}},
		{"regulated", sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.Regulated}, Window: 4}},
	} {
		obs := NewObserver()
		cfg := tc.cfg
		cfg.Probe = obs
		if !sim.BatchEligible(cfg) {
			t.Fatalf("%s: observed config is not kernel-eligible", tc.name)
		}
		run := testing.AllocsPerRun(10, func() {
			if _, err := sim.Run(cfg, pt); err != nil {
				t.Fatal(err)
			}
		})
		norm := cfg.Normalize()
		commit := testing.AllocsPerRun(10, func() {
			commitByHand(obs, norm, pt, counters)
		})
		if run != commit {
			t.Errorf("%s: observed kernel run allocates %.1f, the Observer's commit alone %.1f", tc.name, run, commit)
		}
	}
}

// commitByHand drives one run's commit through the sim.Probe interface,
// as an engine does; noinline keeps the compiler from devirtualizing the
// collector onto the stack, which no engine call could do.
//
//go:noinline
func commitByHand(p sim.Probe, cfg sim.Config, pt core.Pattern, c *sim.Counters) {
	p.RunStart(cfg, pt).RunDone(sim.Result{}, c)
}
