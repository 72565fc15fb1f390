package sim

import (
	"testing"
	"testing/quick"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// Cross-validation: the event-driven engine and the time-stepped
// reference must agree exactly on the supported configuration subset.

func TestReferenceAgreesWithEngine(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 4, Banks: 32, D: 5, G: 1, L: 8}
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		g := rng.New(seed)
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = g.Uint64n(256)
		}
		pt := core.NewPattern(addrs, m.Procs)
		ev, err := runEvent(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		ref, err := RunReference(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		return ev.Cycles == ref.Cycles &&
			ev.BankServices == ref.BankServices &&
			ev.BankBusy == ref.BankBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReferenceAgreesOnCanonicalPatterns(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 8, Banks: 64, D: 6, G: 1, L: 0}
	cases := map[string][]uint64{
		"allsame": make([]uint64, 200), // zeros
		"stride":  {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		"onebank": {0, 64, 128, 192, 256, 320},
	}
	for name, addrs := range cases {
		pt := core.NewPattern(addrs, m.Procs)
		ev, err := runEvent(Config{Machine: m}, pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := RunReference(Config{Machine: m}, pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ev.Cycles != ref.Cycles {
			t.Errorf("%s: engine %v vs reference %v cycles", name, ev.Cycles, ref.Cycles)
		}
	}
}

func TestReferenceRejectsUnsupported(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 2, Banks: 8, D: 2, G: 1, L: 0}
	pt := core.NewPattern([]uint64{1, 2}, 2)
	for name, cfg := range map[string]Config{
		"window":         {Machine: m, Window: 2},
		"combining":      {Machine: m, Combining: true},
		"sections":       {Machine: core.Machine{Name: "s", Procs: 2, Banks: 8, D: 2, G: 1, L: 0, Sections: 2, SectionGap: 1}, UseSections: true},
		"fractional":     {Machine: core.Machine{Name: "f", Procs: 2, Banks: 8, D: 2.5, G: 1, L: 0}},
		"fractional hit": {Machine: m, Bank: BankConfig{CacheLines: 2, HitDelay: 0.5}},
		"bank groups":    {Machine: m, Bank: BankConfig{Discipline: DRAM, Groups: 2, GroupGap: 1}},
		"gpu no delay":   {Machine: m, Bank: BankConfig{Discipline: GPUShared}},
	} {
		if _, err := RunReference(cfg, pt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReferenceEmpty(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 2, Banks: 8, D: 2, G: 1, L: 0}
	r, err := RunReference(Config{Machine: m}, core.NewPattern(nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 0 || r.Requests != 0 {
		t.Errorf("empty = %+v", r)
	}
}
