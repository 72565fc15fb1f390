package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
)

// The design-space grid behind sim_grid and observed_grid: N-request
// simulations of the paper's access patterns on catalogue machines,
// sweeping the bank delay d, the expansion x, the window and the bank
// discipline. Most configs take the closed-form kernel's path
// (sim.BatchEligible); a stated minority does not. About a fifth of the
// requests repeat an earlier config, matching the suite's cache hit rate.
//
// The window and discipline shares follow the paper suite's own
// downstream simulations at N = 65536 (162 cache misses: FIFO 86.4%,
// Regulated 6.2%, single-row DRAM 3.7%, GPU shared memory 3.7%, network
// sections 1.9%; 4.3% windowed, all FIFO), rounded. DRAM bank groups do
// not occur in the suite; they get the DRAM share by choice, so that the
// bank-group discipline is measured at all. The suite's FIFO bank-cache
// sims (3.7%) count as plain FIFO here.

// Bands the generator is held to (and its tests check).
const (
	ineligibleTarget = 0.10 // share of distinct configs that are not kernel-eligible
	windowedTarget   = 0.04 // share of distinct configs with a window (FIFO)
	repeatTarget     = 0.20 // share of requests that repeat an earlier config
)

// gridReq is one simulation request of the grid.
type gridReq struct {
	cfg      sim.Config
	pat      int // index into grid.pats
	distinct int // index of the first request with this config
	label    string
}

// grid is the generated input: requests in submission order (repeats
// included), their patterns, and the (d,x)-BSP prediction of every
// distinct config, computed in setup from its contention profile.
type grid struct {
	reqs     []gridReq
	pats     []core.Pattern
	distinct []int     // request index of each distinct config
	pred     []float64 // per distinct config
}

// streamKinds are the paper's pattern families.
var streamKinds = []string{"uniform", "hotspot", "strided", "zipf"}

// makeStreams draws the address streams the grid's patterns are cut from:
// variants of each family, all of n requests.
func makeStreams(n int, g *rng.Xoshiro256) (streams [][]uint64, names []string) {
	for _, kind := range streamKinds {
		for v := 0; v < 4; v++ {
			var a []uint64
			var name string
			switch kind {
			case "uniform":
				m := uint64(1) << (16 + 2*v)
				a, name = patterns.Uniform(n, m, g), fmt.Sprintf("uniform(m=%d)", m)
			case "hotspot":
				k := 1 << (2 + 2*v)
				a, name = patterns.Contention(n, k, 1+uint64(g.Intn(64))), fmt.Sprintf("hotspot(k=%d)", k)
			case "strided":
				s := uint64(1) << (2 * v)
				a, name = patterns.Strided(n, uint64(g.Intn(1<<20)), s), fmt.Sprintf("strided(s=%d)", s)
			case "zipf":
				s := 0.4 + 0.3*float64(v)
				a, name = patterns.Zipf(n, 1<<16, s, g), fmt.Sprintf("zipf(s=%.1f)", s)
			}
			streams, names = append(streams, a), append(names, name)
		}
	}
	return streams, names
}

// disciplineMix is the grid's bank-discipline quota: kernel-eligible
// Regulated and single-row DRAM, then the ineligible minority (GPU
// shared memory, DRAM bank groups, network sections) summing to
// ineligibleTarget, then windowed FIFO; plain FIFO takes the rest.
var disciplineMix = []struct {
	name  string
	share float64
}{
	{"regulated", 0.06}, {"dram", 0.04},
	{"gpu", 0.04}, {"dram-groups", 0.04}, {"sections", ineligibleTarget - 0.08},
	{"fifo-windowed", windowedTarget},
	{"fifo", 0}, // the rest
}

// gridConfig builds one config: a catalogue machine with d scaled by
// dMul and x = banks/procs, and a discipline (windowed FIFO has a
// window of 8, everything else is open-loop).
func gridConfig(m core.Machine, dMul, x int, disc string) sim.Config {
	m.D *= float64(dMul)
	m = m.WithExpansion(float64(x))
	cfg := sim.Config{Machine: m}
	switch disc {
	case "fifo-windowed":
		cfg.Window = 8
	case "regulated":
		cfg.Bank = sim.BankConfig{Discipline: sim.Regulated}
	case "dram":
		cfg.Bank = sim.BankConfig{Discipline: sim.DRAM, MissDelay: 2 * m.D}
	case "gpu":
		cfg.Bank = sim.BankConfig{Discipline: sim.GPUShared}
	case "dram-groups":
		cfg.Bank = sim.BankConfig{Discipline: sim.DRAM, MissDelay: 2 * m.D, Groups: 4, GroupGap: 2}
	case "sections":
		cfg.Machine.Sections, cfg.Machine.SectionGap = 4, 0.5 // every catalogue machine has >= 4 banks
		cfg.UseSections = true
	}
	return cfg
}

// makeGrid generates the grid for a seed: distinct configs plus repeats
// requests that each re-submit an earlier config.
func makeGrid(seed uint64, n, distinct, repeats int) *grid {
	g := rng.New(seed)
	streams, names := makeStreams(n, g)
	cat := core.Catalogue()
	var discs []string
	for _, d := range disciplineMix {
		for k := 0; k < int(d.share*float64(distinct)+0.5); k++ {
			discs = append(discs, d.name)
		}
	}
	for len(discs) < distinct {
		discs = append(discs, "fifo")
	}
	// The design is the same for every seed, so the grid's mix, its set
	// of patterns and its resident memory do not move with the seed:
	// config i takes machine i mod 8, and k = i div 8 cycles the stream,
	// d and x, so every machine meets every stream. The disciplines are
	// spread by a fixed shuffle. The seed draws the pattern contents and
	// the submission order.
	rng.New(0).Shuffle(distinct, func(i, j int) { discs[i], discs[j] = discs[j], discs[i] })
	submit := g.Perm(distinct)

	type key struct {
		cfg    sim.Config
		stream int
	}
	seen := make(map[key]bool)
	type patKey struct{ stream, procs int }
	patIdx := make(map[patKey]int)
	gr := &grid{}
	var order []gridReq
	for _, i := range submit {
		m, k := i%len(cat), i/len(cat)
		cfg := gridConfig(cat[m], 1+(k/4+m)%3, 1<<(2*((k+2*m)%4)), discs[i])
		s := (k + 3*m) % len(streams)
		for seen[key{cfg, s}] { // a rare collision takes the next stream
			s = (s + 1) % len(streams)
		}
		seen[key{cfg, s}] = true
		pk := patKey{s, cfg.Machine.Procs}
		pi, ok := patIdx[pk]
		if !ok {
			pi = len(gr.pats)
			patIdx[pk] = pi
			gr.pats = append(gr.pats, core.NewPattern(streams[s], cfg.Machine.Procs))
		}
		order = append(order, gridReq{cfg: cfg, pat: pi, distinct: len(order),
			label: fmt.Sprintf("%s %s w=%d %s", cfg.Machine.Name, cfg.Bank.Discipline, cfg.Window, names[s])})
	}
	// after[i] counts the repeats submitted right after distinct config i;
	// each re-submits a config drawn from those already submitted.
	after := make([]int, distinct)
	for r := 0; r < repeats; r++ {
		after[g.Intn(distinct)]++
	}
	for i, rq := range order {
		gr.distinct = append(gr.distinct, len(gr.reqs))
		gr.reqs = append(gr.reqs, rq)
		for k := 0; k < after[i]; k++ {
			rep := order[g.Intn(i+1)]
			rep.label += " (repeat)"
			gr.reqs = append(gr.reqs, rep)
		}
	}
	for _, ri := range gr.distinct {
		rq := gr.reqs[ri]
		cfg := rq.cfg.Normalize()
		prof := core.ComputeProfileCompact(gr.pats[rq.pat], cfg.BankMap)
		gr.pred = append(gr.pred, cfg.Machine.PredictDXBSP(prof))
	}
	return gr
}

// gridOutput is the grid experiment's result: one sim.Result per request.
type gridOutput []sim.Result

func (o gridOutput) Render(w io.Writer) { fmt.Fprintf(w, "%d simulations\n", len(o)) }

// experiment submits every request as one point of a benchmark-built
// experiment, so it runs through the runner and the cache.
func (gr *grid) experiment() experiments.Experiment {
	return experiments.Experiment{
		ID:    "GRID",
		Title: "design-space grid",
		Points: func(experiments.Config) []experiments.Point {
			pts := make([]experiments.Point, len(gr.reqs))
			for i, rq := range gr.reqs {
				pts[i] = experiments.Point{Index: i, Label: rq.label}
			}
			return pts
		},
		RunPoint: func(ctx context.Context, cfg experiments.Config, p experiments.Point) (experiments.PointResult, error) {
			rq := gr.reqs[p.Index]
			res, err := cfg.RunSim(ctx, rq.cfg, gr.pats[rq.pat])
			return experiments.PointResult{Index: p.Index, Value: res}, err
		},
		Assemble: func(_ experiments.Config, rs []experiments.PointResult) experiments.Renderable {
			out := make(gridOutput, len(rs))
			for i, r := range rs {
				out[i], _ = r.Value.(sim.Result)
			}
			return out
		},
	}
}

// Second-engine check kinds.
const (
	checkKernel    = "kernel"    // sim.RunBatch: the closed-form kernel
	checkReference = "reference" // sim.RunReference: the per-clock oracle
	checkRerun     = "rerun"     // a fresh scalar engine; no second engine applies
)

// checkKind names the engine the grid's results are re-derived on for a
// config. Kernel-eligible configs go to the batch kernel; of the rest,
// the per-clock reference covers the open-loop, section-free ones (GPU
// shared memory); DRAM bank groups and sections have no second engine
// and are re-run on a fresh scalar engine.
func checkKind(cfg sim.Config) string {
	switch {
	case sim.BatchEligible(cfg):
		return checkKernel
	case cfg.Window == 0 && !cfg.UseSections && cfg.Bank.Groups == 0:
		return checkReference
	default:
		return checkRerun
	}
}

// reference re-derives every distinct config's result on its second
// engine (untimed).
func (gr *grid) reference(ctx context.Context) ([]sim.Result, error) {
	out := make([]sim.Result, len(gr.distinct))
	// Kernel lanes share a pattern per batch.
	byPat := make(map[int][]int)
	for d, ri := range gr.distinct {
		rq := gr.reqs[ri]
		switch checkKind(rq.cfg) {
		case checkKernel:
			byPat[rq.pat] = append(byPat[rq.pat], d)
		case checkReference:
			res, err := sim.RunReference(rq.cfg, gr.pats[rq.pat])
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", rq.label, err)
			}
			out[d] = res
		default:
			res, err := sim.NewEngine().Run(ctx, rq.cfg, gr.pats[rq.pat])
			if err != nil {
				return nil, fmt.Errorf("rerun %s: %w", rq.label, err)
			}
			out[d] = res
		}
	}
	pats := make([]int, 0, len(byPat))
	for p := range byPat {
		pats = append(pats, p)
	}
	sort.Ints(pats)
	for _, p := range pats {
		ds := byPat[p]
		cfgs := make([]sim.Config, len(ds))
		for i, d := range ds {
			cfgs[i] = gr.reqs[gr.distinct[d]].cfg
		}
		res, err := sim.RunBatch(ctx, cfgs, gr.pats[p])
		if err != nil {
			return nil, fmt.Errorf("kernel batch: %w", err)
		}
		for i, d := range ds {
			out[d] = res[i]
		}
	}
	return out, nil
}

// sameResult compares a timed result with its second-engine result. The
// per-clock reference reproduces the fields its differential tests pin;
// the kernel and a re-run reproduce the whole Result.
func sameResult(kind string, got, want sim.Result) bool {
	if kind != checkReference {
		return got == want
	}
	return got.Cycles == want.Cycles && got.Requests == want.Requests &&
		got.BankServices == want.BankServices && got.BankBusy == want.BankBusy &&
		got.RowHits == want.RowHits && got.RowConflicts == want.RowConflicts &&
		got.ThrottleStalls == want.ThrottleStalls && got.ThrottleStallCycles == want.ThrottleStallCycles &&
		got.WarpReplays == want.WarpReplays
}

// verify counts the requests whose result differs from the second
// engine's.
func (gr *grid) verify(out gridOutput, ref []sim.Result) int {
	bad := 0
	for i, rq := range gr.reqs {
		if i >= len(out) || !sameResult(checkKind(rq.cfg), out[i], ref[rq.distinct]) ||
			out[i].Requests != gr.pats[rq.pat].N() {
			bad++
		}
	}
	return bad
}

// modelRelErr is the median over distinct configs of
// |(d,x)-BSP prediction − simulated cycles| / simulated cycles.
func (gr *grid) modelRelErr(ref []sim.Result) float64 {
	errs := make([]float64, len(ref))
	for d, r := range ref {
		errs[d] = relErr(gr.pred[d], r.Cycles)
	}
	return median(errs)
}
