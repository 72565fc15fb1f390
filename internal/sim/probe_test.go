package sim

import (
	"fmt"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
)

// countingProbe is a test double that records every hook invocation. It
// is an EventProbe and deliberately exercises every RunEvents method so
// the differential test below proves the full hook surface is
// results-neutral, not just the cheap-to-pass subset.
type countingProbe struct {
	runs []*countingRunProbe
}

func (p *countingProbe) RunStart(cfg Config, pt core.Pattern) RunProbe { return p.RunEvents(cfg, pt) }

func (p *countingProbe) RunEvents(cfg Config, pt core.Pattern) RunEvents {
	rp := &countingRunProbe{
		bankArrivals: make(map[int]int),
		bankStarts:   make(map[int]int),
	}
	p.runs = append(p.runs, rp)
	return rp
}

type countingRunProbe struct {
	bankArrivals  map[int]int
	bankStarts    map[int]int
	bankBusy      float64
	bankStallCy   float64
	rowHits       int
	combined      int
	queuedBank    int
	sectArrivals  int
	sectStarts    int
	windowStalls  int
	windowStallCy float64
	maxBankDepth  int
	done          bool
	res           Result
	counters      Counters
}

func (rp *countingRunProbe) BankArrive(bank int, now float64, depth int) {
	rp.bankArrivals[bank]++
	if depth > rp.maxBankDepth {
		rp.maxBankDepth = depth
	}
}

func (rp *countingRunProbe) BankStart(bank int, now float64, service, stall float64, rowHit, queued bool, combined int) {
	rp.bankStarts[bank]++
	rp.bankBusy += service
	rp.bankStallCy += stall
	if rowHit {
		rp.rowHits++
	}
	if queued {
		rp.queuedBank++
	}
	rp.combined += combined
}

func (rp *countingRunProbe) SectionArrive(sec int, now float64, depth int) { rp.sectArrivals++ }

func (rp *countingRunProbe) SectionStart(sec int, now float64, queued bool) { rp.sectStarts++ }

func (rp *countingRunProbe) WindowStall(proc int, from, to float64) {
	rp.windowStalls++
	rp.windowStallCy += to - from
}

func (rp *countingRunProbe) RunDone(res Result, c *Counters) {
	rp.done = true
	rp.res = res
	rp.counters = cloneCounters(c)
}

// sweepConfigs enumerates the 128-configuration sweep: every combination
// of seven binary knobs (machine scale, bank count, bank delay, section
// bottleneck, issue window, combining, bank row caching). The same sweep
// backs the probe differential test here and the determinism goldens.
func sweepConfigs() []Config {
	var cfgs []Config
	for _, procs := range []int{4, 16} {
		for _, banksPerProc := range []int{4, 16} {
			for _, d := range []float64{4, 12} {
				for _, sections := range []int{1, 4} {
					for _, window := range []int{0, 8} {
						for _, combining := range []bool{false, true} {
							for _, cache := range []int{0, 4} {
								m := core.Machine{
									Name:  "sweep",
									Procs: procs,
									Banks: procs * banksPerProc,
									D:     d, G: 1, L: 20,
									Sections:   sections,
									SectionGap: 0.5,
								}
								cfgs = append(cfgs, Config{
									Machine:        m,
									Window:         window,
									Combining:      combining,
									UseSections:    sections > 1,
									BankCacheLines: cache,
								})
							}
						}
					}
				}
			}
		}
	}
	return cfgs
}

// TestProbeDoesNotPerturbResults is the probe half of the determinism
// contract: across the full 128-config sweep, a run with a probe attached
// must produce a Result identical to the probes-off run, and the probe's
// own event counts must reconcile with that Result (so the hooks are both
// inert and truthful).
func TestProbeDoesNotPerturbResults(t *testing.T) {
	cfgs := sweepConfigs()
	if len(cfgs) != 128 {
		t.Fatalf("sweep has %d configs, want 128", len(cfgs))
	}
	for i, cfg := range cfgs {
		cfg := cfg
		name := fmt.Sprintf("cfg%03d_p%d_b%d_d%g_s%d_w%d_c%t_bc%d", i,
			cfg.Machine.Procs, cfg.Machine.Banks, cfg.Machine.D,
			cfg.Machine.Sections, cfg.Window, cfg.Combining, cfg.BankCacheLines)
		t.Run(name, func(t *testing.T) {
			pt := core.NewPattern(patterns.Uniform(1<<10, 1<<30, rng.New(uint64(i+1))), cfg.Machine.Procs)

			plain, err := Run(cfg, pt)
			if err != nil {
				t.Fatal(err)
			}

			probe := &countingProbe{}
			cfg.Probe = probe
			probed, err := Run(cfg, pt)
			if err != nil {
				t.Fatal(err)
			}

			if plain != probed {
				t.Errorf("probe changed the result:\n  plain:  %+v\n  probed: %+v", plain, probed)
			}
			if len(probe.runs) != 1 {
				t.Fatalf("RunStart called %d times, want 1", len(probe.runs))
			}
			rp := probe.runs[0]
			if !rp.done {
				t.Fatal("RunDone never fired")
			}
			if rp.res != probed {
				t.Errorf("RunDone result %+v != returned result %+v", rp.res, probed)
			}

			// Reconcile hook-level counts against the engine's own Result.
			starts := 0
			for _, n := range rp.bankStarts {
				starts += n
			}
			if starts != probed.BankServices {
				t.Errorf("BankStart fired %d times, Result.BankServices = %d", starts, probed.BankServices)
			}
			if rp.bankBusy != probed.BankBusy {
				t.Errorf("probe bank busy %g != Result.BankBusy %g", rp.bankBusy, probed.BankBusy)
			}
			if rp.rowHits != probed.RowHits {
				t.Errorf("probe row hits %d != Result.RowHits %d", rp.rowHits, probed.RowHits)
			}
			arrivals := 0
			for _, n := range rp.bankArrivals {
				arrivals += n
			}
			if arrivals != probed.Requests {
				t.Errorf("BankArrive fired %d times, Result.Requests = %d", arrivals, probed.Requests)
			}
			// Every request satisfied neither on arrival nor by combining
			// must have started from the queue.
			if want := probed.Requests - (starts - rp.queuedBank) - rp.combined; rp.queuedBank != want {
				t.Errorf("queued starts %d inconsistent: requests %d, unqueued starts %d, combined %d",
					rp.queuedBank, probed.Requests, starts-rp.queuedBank, rp.combined)
			}
			if rp.maxBankDepth > probed.MaxBankQueue {
				t.Errorf("probe saw bank depth %d beyond Result.MaxBankQueue %d", rp.maxBankDepth, probed.MaxBankQueue)
			}
			if cfg.UseSections && cfg.Machine.Sections > 1 {
				if rp.sectArrivals != probed.Requests {
					t.Errorf("SectionArrive fired %d times, want %d", rp.sectArrivals, probed.Requests)
				}
				if rp.sectStarts != probed.Requests {
					t.Errorf("SectionStart fired %d times, want %d", rp.sectStarts, probed.Requests)
				}
			} else if rp.sectArrivals != 0 || rp.sectStarts != 0 {
				t.Errorf("section hooks fired (%d arrive, %d start) with no section bottleneck",
					rp.sectArrivals, rp.sectStarts)
			}
			if cfg.Window == 0 && rp.windowStalls != 0 {
				t.Errorf("WindowStall fired %d times on an open-loop run", rp.windowStalls)
			}
			if rp.windowStallCy < 0 {
				t.Errorf("negative window stall time %g", rp.windowStallCy)
			}

			// The committed Counters agree with the hooks. Every time in
			// this sweep is a multiple of 0.5, so the per-bank busy sums
			// add up to Result.BankBusy exactly.
			c := rp.counters
			if got := sumInt32(c.Services); got != probed.Requests {
				t.Errorf("Counters.Services total %d, Result.Requests = %d", got, probed.Requests)
			}
			if got := sumFloat(c.Busy); got != probed.BankBusy {
				t.Errorf("Counters.Busy total %g, Result.BankBusy = %g", got, probed.BankBusy)
			}
			if c.QueuedStarts != rp.queuedBank || c.Combined != rp.combined {
				t.Errorf("Counters queued/combined %d/%d, hooks %d/%d", c.QueuedStarts, c.Combined, rp.queuedBank, rp.combined)
			}
			if got := maxInt32(c.MaxDepth); int(got) != rp.maxBankDepth {
				t.Errorf("Counters.MaxDepth peak %d, hooks saw %d", got, rp.maxBankDepth)
			}
			if c.WindowStall != rp.windowStallCy {
				t.Errorf("Counters.WindowStall %g, hooks %g", c.WindowStall, rp.windowStallCy)
			}

			// An aggregate probe leaves the run on whichever engine
			// answers it unobserved, and that engine commits the same
			// Result and Counters the event engine reported.
			agg := &recordProbe{}
			cfg.Probe = agg
			aggRes, err := Run(cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			if aggRes != plain || len(agg.runs) != 1 || agg.runs[0].res != plain {
				t.Fatalf("aggregate probe: result %+v, %d commits, want %+v once", aggRes, len(agg.runs), plain)
			}
			if err := diffCounters(agg.runs[0].c, c); err != nil {
				t.Errorf("aggregate probe (kernel-eligible %t) vs event hooks: %v", BatchEligible(cfg), err)
			}
		})
	}
}

// TestProbeCombiningAccounting pins the combining-specific probe fields:
// with all processors hammering one address, every service after the first
// arrival wave should combine queued requests, and the hook's combined
// total must equal BankServices' shortfall against Requests.
func TestProbeCombiningAccounting(t *testing.T) {
	m := core.Machine{Name: "hot", Procs: 8, Banks: 32, D: 8, G: 1, L: 16}
	addrs := make([]uint64, 512)
	for i := range addrs {
		addrs[i] = 42 // one hot address
	}
	probe := &countingProbe{}
	cfg := Config{Machine: m, Combining: true, Probe: probe}
	res, err := Run(cfg, core.NewPattern(addrs, m.Procs))
	if err != nil {
		t.Fatal(err)
	}
	rp := probe.runs[0]
	if rp.combined == 0 {
		t.Error("hot-address combining run reported no combined requests")
	}
	responded := 0
	for _, n := range rp.bankStarts {
		responded += n
	}
	if responded+rp.combined != res.Requests {
		t.Errorf("starts %d + combined %d != requests %d", responded, rp.combined, res.Requests)
	}
}
