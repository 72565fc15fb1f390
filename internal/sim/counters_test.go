package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// recordProbe is an aggregate Probe (no per-event hooks) that keeps a
// deep copy of every committed run.
type recordProbe struct {
	runs []recorded
}

type recorded struct {
	res Result
	c   Counters
}

func (p *recordProbe) RunStart(cfg Config, pt core.Pattern) RunProbe { return p }

func (p *recordProbe) RunDone(res Result, c *Counters) {
	p.runs = append(p.runs, recorded{res: res, c: cloneCounters(c)})
}

// sumProbe is an allocation-free aggregate Probe: it reads every
// committed counter the way the runner's Observer does, so the alloc
// tests can attach a probe without measuring a collector's own costs.
type sumProbe struct {
	commits  int
	services int
	sum      float64
}

func (p *sumProbe) RunStart(cfg Config, pt core.Pattern) RunProbe { return p }

func (p *sumProbe) RunDone(res Result, c *Counters) {
	p.commits++
	p.services += sumInt32(c.Services)
	p.sum += sumFloat(c.Busy) + sumFloat(c.Wait) + float64(maxInt32(c.MaxDepth)) + c.WindowStall
}

func cloneCounters(c *Counters) Counters {
	d := *c
	d.Services = append([]int32(nil), c.Services...)
	d.Busy = append([]float64(nil), c.Busy...)
	d.Wait = append([]float64(nil), c.Wait...)
	d.MaxDepth = append([]int32(nil), c.MaxDepth...)
	return d
}

// diffCounters reports the first difference between a and b, comparing
// floats bit for bit.
func diffCounters(a, b Counters) error {
	if len(a.Services) != len(b.Services) || len(a.Busy) != len(b.Busy) ||
		len(a.Wait) != len(b.Wait) || len(a.MaxDepth) != len(b.MaxDepth) {
		return fmt.Errorf("bank counts differ: %d/%d/%d/%d vs %d/%d/%d/%d",
			len(a.Services), len(a.Busy), len(a.Wait), len(a.MaxDepth),
			len(b.Services), len(b.Busy), len(b.Wait), len(b.MaxDepth))
	}
	for i := range a.Services {
		switch {
		case a.Services[i] != b.Services[i]:
			return fmt.Errorf("bank %d services %d vs %d", i, a.Services[i], b.Services[i])
		case math.Float64bits(a.Busy[i]) != math.Float64bits(b.Busy[i]):
			return fmt.Errorf("bank %d busy %v vs %v", i, a.Busy[i], b.Busy[i])
		case math.Float64bits(a.Wait[i]) != math.Float64bits(b.Wait[i]):
			return fmt.Errorf("bank %d wait %v vs %v", i, a.Wait[i], b.Wait[i])
		case a.MaxDepth[i] != b.MaxDepth[i]:
			return fmt.Errorf("bank %d max depth %d vs %d", i, a.MaxDepth[i], b.MaxDepth[i])
		}
	}
	switch {
	case a.QueuedStarts != b.QueuedStarts:
		return fmt.Errorf("queued starts %d vs %d", a.QueuedStarts, b.QueuedStarts)
	case a.Combined != b.Combined:
		return fmt.Errorf("combined %d vs %d", a.Combined, b.Combined)
	case math.Float64bits(a.SectionWait) != math.Float64bits(b.SectionWait):
		return fmt.Errorf("section wait %v vs %v", a.SectionWait, b.SectionWait)
	case math.Float64bits(a.WindowStall) != math.Float64bits(b.WindowStall):
		return fmt.Errorf("window stall %v vs %v", a.WindowStall, b.WindowStall)
	}
	return nil
}

func sumInt32(s []int32) int {
	t := 0
	for _, v := range s {
		t += int(v)
	}
	return t
}

func sumFloat(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func maxInt32(s []int32) int32 {
	m := int32(0)
	for _, v := range s {
		m = max(m, v)
	}
	return m
}

// Only an EventProbe moves a run off the kernel; an aggregate probe
// leaves the eligibility classification untouched.
func TestProbeEligibility(t *testing.T) {
	m := core.Machine{Name: "e", Procs: 4, Banks: 16, D: 6, G: 1, L: 8}
	if r := BatchFallbackReason(Config{Machine: m, Probe: &recordProbe{}}); r != "" {
		t.Errorf("aggregate probe: fallback reason %q, want none", r)
	}
	if r := BatchFallbackReason(Config{Machine: m, Probe: &countingProbe{}}); r != "probe" {
		t.Errorf("event probe: fallback reason %q, want \"probe\"", r)
	}
}

// fuzzTime draws a time parameter in [lo, lo+span): an integer half the
// time, otherwise a multiple of 0.1, which is not a binary fraction, so
// sums of it round and the summation order becomes observable.
func fuzzTime(rg *rng.Xoshiro256, lo, span int) float64 {
	if rg.Intn(2) == 0 {
		return float64(lo + rg.Intn(span))
	}
	return float64(10*lo+rg.Intn(10*span)) / 10
}

// FuzzCountersKernelVsEvent is the Counters differential: for every
// kernel-eligible regime — open- and closed-loop FIFO, Regulated and
// single-row DRAM, with windows tight enough to detach lanes into the
// per-lane replay, zero net delay (the replay's late re-injects) and
// non-integer G, D and NetDelay — each lane of a kernel batch must
// commit Counters bit-identical to the event engine's for that lane
// alone, along with an identical Result.
func FuzzCountersKernelVsEvent(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint16(200), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(0), uint16(64), uint8(1))
	f.Add(uint64(3), uint8(1), uint8(7), uint16(999), uint8(2))
	f.Add(uint64(4), uint8(2), uint8(5), uint16(1), uint8(0))
	f.Add(uint64(5), uint8(0), uint8(2), uint16(500), uint8(1))
	f.Add(uint64(6), uint8(3), uint8(6), uint16(333), uint8(2))
	f.Add(uint64(7), uint8(1), uint8(1), uint16(777), uint8(2))
	f.Add(uint64(8), uint8(2), uint8(4), uint16(128), uint8(0))

	f.Fuzz(func(t *testing.T, seed uint64, kRaw, pRaw uint8, nRaw uint16, shape uint8) {
		k := int(kRaw%4) + 1
		p := int(pRaw%8) + 1
		n := int(nRaw%1000) + 1
		rg := rng.New(seed)

		cfgs := make([]Config, k)
		probes := make([]*recordProbe, k)
		maxBanks := 0
		for i := range cfgs {
			banks := p * (rg.Intn(16) + 1)
			maxBanks = max(maxBanks, banks)
			nd := 0.0
			if rg.Intn(4) > 0 {
				nd = fuzzTime(rg, 0, 16)
			}
			var bank BankConfig
			switch rg.Intn(4) {
			case 0, 1: // FIFO
			case 2:
				bank = BankConfig{
					Discipline: DRAM,
					CacheLines: rg.Intn(2),
					HitDelay:   fuzzTime(rg, 1, 3),
					MissDelay:  fuzzTime(rg, 1, 16),
					RowWords:   1 << rg.Intn(7),
				}
			case 3:
				bank = BankConfig{
					Discipline: Regulated,
					RegWindow:  fuzzTime(rg, 1, 32),
					RegBudget:  1 + rg.Intn(4),
				}
			}
			window := 0
			if rg.Intn(3) > 0 {
				window = 1 + rg.Intn(12)
			}
			probes[i] = &recordProbe{}
			cfgs[i] = Config{
				Machine:  core.Machine{Name: "fuzz", Procs: p, Banks: banks, D: fuzzTime(rg, 1, 12), G: fuzzTime(rg, 1, 4), L: 2 * nd},
				Window:   window,
				NetDelay: nd,
				Bank:     bank,
				Probe:    probes[i],
			}
			if !BatchEligible(cfgs[i]) {
				t.Fatalf("lane %d is not kernel-eligible: %s", i, BatchFallbackReason(cfgs[i]))
			}
		}

		addrs := make([]uint64, n)
		for i := range addrs {
			switch shape % 3 {
			case 0:
				addrs[i] = rg.Uint64n(1 << 20)
			case 1:
				addrs[i] = rg.Uint64n(uint64(maxBanks)/4 + 1)
			default:
				addrs[i] = uint64(maxBanks) * uint64(i/8)
			}
		}
		pt := core.NewPattern(addrs, p)

		got, err := RunBatch(context.Background(), cfgs, pt)
		if err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		for i, cfg := range cfgs {
			kp := probes[i]
			if len(kp.runs) != 1 || kp.runs[0].res != got[i] {
				t.Fatalf("lane %d: kernel committed %d runs, want 1 with the returned result", i, len(kp.runs))
			}
			ev := &recordProbe{}
			cfg.Probe = ev
			E := AcquireEngine()
			want, err := E.Run(context.Background(), cfg, pt)
			ReleaseEngine(E)
			if err != nil {
				t.Fatalf("lane %d event engine: %v", i, err)
			}
			desc := fmt.Sprintf("lane %d/%d (disc=%s banks=%d d=%g g=%g nd=%g window=%d)", i, k,
				cfg.Bank.Discipline, cfg.Machine.Banks, cfg.Machine.D, cfg.Machine.G, cfg.NetDelay, cfg.Window)
			if got[i] != want {
				t.Fatalf("%s: kernel %+v != event %+v", desc, got[i], want)
			}
			if err := diffCounters(kp.runs[0].c, ev.runs[0].c); err != nil {
				t.Errorf("%s: kernel vs event Counters: %v", desc, err)
			}
		}
	})
}
