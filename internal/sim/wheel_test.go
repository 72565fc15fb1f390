package sim

import (
	"context"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
)

// TestWheelVsHeapDifferential is the tentpole equivalence check for the
// calendar-queue scheduler: the same engine run twice — once forced onto
// the retained 4-ary heap, once on the wheel — over a broad sweep of
// random (p, x, d, g, Window, NetDelay, sections, combining, discipline)
// configurations, asserting byte-identical Results. The pop order is
// load-bearing (memo cache, checkpoint journal key on cycle counts), so
// any divergence here is a correctness bug, not a tolerance question.
// Half the configs run a non-FIFO discipline with fully random knobs —
// including fractional delays and DRAM bank groups, which the
// time-stepped oracle cannot model — so this is the broadest coverage of
// the discipline hot paths.
func TestWheelVsHeapDifferential(t *testing.T) {
	g := rng.New(0xD1FFE12E)
	const configs = 160 // ≥ 64 per the regression contract, ~20 per discipline
	for i := 0; i < configs; i++ {
		p := 1 + g.Intn(16)
		x := 1 + g.Intn(16)
		m := core.Machine{
			Name:  "diff",
			Procs: p,
			Banks: p * x,
			// Fractional quarters exercise non-integer event times; the
			// wheel's power-of-two bucket width must floor them exactly.
			D: float64(1+g.Intn(48)) / 4,
			G: float64(1+g.Intn(16)) / 4,
			L: float64(g.Intn(64)) / 2,
		}
		if g.Intn(2) == 1 {
			m.Sections = 2 + g.Intn(6)
			if m.Sections > m.Banks {
				m.Sections = m.Banks
			}
			m.SectionGap = float64(1+g.Intn(8)) / 4
		}
		cfg := Config{
			Machine:     m,
			Window:      []int{0, 0, 1 + g.Intn(32)}[g.Intn(3)],
			NetDelay:    float64(g.Intn(32)) / 4,
			UseSections: m.Sections > 1,
			Combining:   g.Intn(4) == 0,
		}
		if g.Intn(4) == 0 {
			cfg.Bank.CacheLines = 1 + g.Intn(4)
			cfg.Bank.HitDelay = float64(1+g.Intn(4)) / 2
		}
		// Half the configs swap in a non-FIFO discipline; the draws respect
		// Validate's per-discipline knob rules (GPUShared forbids windows,
		// combining and sections).
		switch g.Intn(8) {
		case 0, 1:
			cfg.Bank = BankConfig{
				Discipline: DRAM,
				CacheLines: 1 + g.Intn(3),
				HitDelay:   float64(1+g.Intn(8)) / 4,
				MissDelay:  float64(1+g.Intn(64)) / 4,
				RowWords:   1 << g.Intn(7),
			}
			if g.Intn(2) == 0 {
				cfg.Bank.Groups = 1 + g.Intn(cfg.Machine.Banks)
				cfg.Bank.GroupGap = float64(1+g.Intn(8)) / 4
			}
		case 2, 3:
			cfg.Bank = BankConfig{
				Discipline: Regulated,
				RegWindow:  float64(1+g.Intn(64)) / 4,
				RegBudget:  1 + g.Intn(4),
			}
		case 4, 5:
			cfg.Machine.Sections, cfg.Machine.SectionGap = 0, 0
			cfg.Window, cfg.Combining, cfg.UseSections = 0, false, false
			cfg.Bank = BankConfig{Discipline: GPUShared, WarpSize: 1 + g.Intn(32)}
		}
		n := 1 << (6 + g.Intn(6))
		pt := core.NewPattern(patterns.Uniform(n, 1<<20, g.Split()), p)

		var wheelE, heapE Engine
		heapE.eng.useHeap = true
		got, err := wheelE.Run(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("config %d: wheel run: %v", i, err)
		}
		want, err := heapE.Run(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("config %d: heap run: %v", i, err)
		}
		if got != want {
			t.Fatalf("config %d (%+v, n=%d): wheel and heap disagree:\n wheel: %+v\n heap:  %+v",
				i, cfg, n, got, want)
		}
	}
}

// TestWheelVsHeapQueueLevel drives the two queue implementations directly
// through a long random push/pop interleaving that respects the engine's
// scheduling discipline (pushes land at or after the last pop, within the
// horizon) and asserts the pop sequences are identical event for event.
// This exercises the wheel's cursor wrap and bitmap advance over many
// laps, which whole-engine runs only hit incidentally.
func TestWheelVsHeapQueueLevel(t *testing.T) {
	cfg := Config{Machine: core.Machine{Procs: 4, Banks: 16, D: 10, G: 1, L: 20}}.Normalize()
	h := schedHorizon(cfg) // 1 + 10 + 2*10 = 31

	g := rng.New(42)
	var w wheel
	w.reset(cfg, cfg.Machine.Procs)
	var q eventQueue
	q.init(0)

	last := 0.0
	seq := 0
	for step := 0; step < 200000; step++ {
		if q.len() == 0 || (w.len() < 256 && g.Intn(2) == 0) {
			seq++
			// Quantized offsets in [0, h) so times collide across pushes
			// and tie-breaking is exercised; strictly under the horizon.
			ev := event{
				time: last + float64(g.Intn(int(h*8)))/8,
				seq:  seq,
				kind: eventKind(g.Intn(5)),
				proc: int32(g.Intn(4)),
			}
			w.push(ev)
			q.push(ev)
			continue
		}
		got, want := w.pop(), q.pop()
		if got != want {
			t.Fatalf("step %d: wheel popped %+v, heap popped %+v", step, got, want)
		}
		last = got.time
	}
	for q.len() > 0 {
		got, want := w.pop(), q.pop()
		if got != want {
			t.Fatalf("drain: wheel popped %+v, heap popped %+v", got, want)
		}
	}
	if w.len() != 0 {
		t.Fatalf("wheel reports %d events after drain", w.len())
	}
}

// TestWheelPanics pins the wheel's refusal to misorder: scheduling outside
// the bounded horizon and popping an empty queue both panic rather than
// silently corrupting the pop order.
func TestWheelPanics(t *testing.T) {
	cfg := Config{Machine: core.Machine{Procs: 4, Banks: 16, D: 10, G: 1, L: 0}}.Normalize()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}

	mustPanic("beyond horizon", func() {
		var w wheel
		w.reset(cfg, cfg.Machine.Procs)
		w.push(event{time: 1e9, seq: 1, kind: evInject})
	})
	mustPanic("into the past", func() {
		var w wheel
		w.reset(cfg, cfg.Machine.Procs)
		w.push(event{time: 8, seq: 1, kind: evInject})
		w.pop()
		w.push(event{time: 0, seq: 2, kind: evInject})
	})
	mustPanic("pop empty", func() {
		var w wheel
		w.reset(cfg, cfg.Machine.Procs)
		w.pop()
	})
}

// TestEngineReuseZeroAllocs pins the cross-run reuse contract: after one
// warm-up run, re-running the same shape on the same Engine performs zero
// allocations — the wheel buckets, server rings, processor slice and
// bookkeeping arrays are all retained and re-armed in place.
func TestEngineReuseZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<13, 1<<30, rng.New(7)), m.Procs)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"open-loop", Config{Machine: m}},
		{"windowed", Config{Machine: m, Window: 8}},
		{"sections", Config{Machine: m, UseSections: true}},
		{"dram", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, Groups: 16, GroupGap: 0.5}}},
		{"regulated", Config{Machine: m, Bank: BankConfig{Discipline: Regulated}}},
		{"gpu", Config{Machine: m, Bank: BankConfig{Discipline: GPUShared}}},
	} {
		e := NewEngine()
		if _, err := e.Run(context.Background(), tc.cfg, pt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := e.Run(context.Background(), tc.cfg, pt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per re-run on a warm engine, want 0", tc.name, allocs)
		}
	}
}

// TestEngineReuseAcrossShapes verifies that reusing one Engine across
// different machine shapes and feature sets — growing, shrinking,
// toggling caching and sections, surviving a cancelled run — always
// produces results byte-identical to a fresh engine's.
func TestEngineReuseAcrossShapes(t *testing.T) {
	g := rng.New(99)
	e := NewEngine()
	shapes := []Config{
		{Machine: core.Machine{Procs: 8, Banks: 64, D: 6, G: 1, L: 8}},
		{Machine: core.Machine{Procs: 2, Banks: 8, D: 3, G: 1, L: 0}, Window: 4},
		{Machine: core.Machine{Procs: 16, Banks: 256, D: 14, G: 1, L: 16, Sections: 8, SectionGap: 0.5}, UseSections: true},
		{Machine: core.Machine{Procs: 4, Banks: 32, D: 6, G: 2, L: 4}, Bank: BankConfig{CacheLines: 2}},
		{Machine: core.Machine{Procs: 8, Banks: 64, D: 6, G: 1, L: 8}}, // back to the first shape, caching now off
	}
	for round := 0; round < 3; round++ {
		for i, cfg := range shapes {
			pt := core.NewPattern(patterns.Uniform(1<<10, 1<<20, g.Split()), cfg.Machine.Procs)
			got, err := e.Run(context.Background(), cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			var fresh Engine
			want, err := fresh.Run(context.Background(), cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d shape %d: reused engine %+v, fresh engine %+v", round, i, got, want)
			}
		}
		// Abandon a run mid-flight so the next reset must clear stale
		// wheel contents; a cancelled context leaves events queued.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		pt := core.NewPattern(patterns.Uniform(1<<12, 1<<20, g.Split()), shapes[0].Machine.Procs)
		if _, err := e.Run(ctx, shapes[0], pt); err == nil {
			t.Fatal("cancelled run unexpectedly succeeded")
		}
	}
}
