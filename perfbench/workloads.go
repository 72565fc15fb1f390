package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/sim"
	"dxbsp/internal/vector"
)

// bench is one set-up workload.
type bench interface {
	// job builds the work of pass i of a phase; tr is nil for untraced
	// passes.
	job(tr *tracer, i int) *job
	// check returns how many of the points of pass i are wrong.
	check(ctx context.Context, p *pass, i int) (int, error)
	// modelRelErr is the median |(d,x)-BSP prediction − simulated| /
	// simulated over the workload's simulations, from a checked pass.
	modelRelErr(ctx context.Context, p *pass) (float64, error)
	// requests is the number of memory requests the pass answered.
	requests(p *pass) int64
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper_suite", "sim_grid", "algo_analytic", "observed_grid"}

// setupWorkload generates a workload's inputs from its seed. quick
// selects the reduced scale the benchmark's own tests use.
func setupWorkload(name string, seed uint64, quick bool) (bench, error) {
	n := 1 << 16
	if quick {
		n = 1 << 12
	}
	switch name {
	case "paper_suite":
		return newSuite(seed, quick)
	case "sim_grid", "observed_grid":
		distinct := 200
		if quick {
			distinct = 40
		}
		repeats := int(float64(distinct) * repeatTarget / (1 - repeatTarget))
		return &gridBench{grid: makeGrid(seed, n, distinct, repeats), observe: name == "observed_grid"}, nil
	case "algo_analytic":
		return &algoBench{insts: makeAlgos(seed, n, quick)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// suiteBench is paper_suite: every registered experiment at paper scale,
// cache on, tables rendered as text. Successive passes of a phase step
// through the suite seeds from the one --seed selects, so a run's median
// spans several seeds' inputs.
type suiteBench struct {
	cfg   experiments.Config
	exps  []experiments.Experiment
	gold  map[string][]string // golden per-experiment digests by seed
	first int                 // index into suiteSeeds of pass 0
}

func newSuite(seed uint64, quick bool) (*suiteBench, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	cfg, scale := experiments.DefaultConfig(), "full"
	if quick {
		cfg, scale = experiments.QuickConfig(), "quick"
	}
	for _, s := range suiteSeeds {
		if _, ok := g[scale][seedKey(s)]; !ok {
			return nil, fmt.Errorf("no %s golden for seed %s; run record_goldens.sh", scale, seedKey(s))
		}
	}
	return &suiteBench{cfg: cfg, exps: experiments.All(), gold: g[scale],
		first: int(seed % uint64(len(suiteSeeds)))}, nil
}

func (s *suiteBench) seed(i int) uint64 { return suiteSeeds[(s.first+i)%len(suiteSeeds)] }

func (s *suiteBench) job(_ *tracer, i int) *job {
	cfg := s.cfg
	cfg.Seed = s.seed(i)
	return &job{exps: s.exps, cfg: cfg, render: true}
}

// check compares each experiment's rendered block with dxbench's golden;
// every point of a differing experiment counts as wrong.
func (s *suiteBench) check(_ context.Context, p *pass, i int) (int, error) {
	got, want := blockDigests(p.text), s.gold[seedKey(s.seed(i))]
	bad := 0
	for e, res := range p.results {
		if len(got) != len(want) || e >= len(got) || got[e] != want[e] {
			bad += res.Stats.Points
		}
	}
	return bad, nil
}

// modelRelErr profiles every simulation that reached the engine.
func (s *suiteBench) modelRelErr(_ context.Context, p *pass) (float64, error) {
	return callsRelErr(p.calls), nil
}

func (s *suiteBench) requests(p *pass) int64 { return p.requests }

// callsRelErr is the median model error over downstream simulations. The
// calls arrive in completion order, which varies with scheduling; the
// median does not.
func callsRelErr(calls []simCall) float64 {
	errs := make([]float64, 0, len(calls))
	for _, c := range calls {
		cfg := c.cfg.Normalize()
		prof := core.ComputeProfileCompact(c.pt, cfg.BankMap)
		errs = append(errs, relErr(cfg.Machine.PredictDXBSP(prof), c.res.Cycles))
	}
	return median(errs)
}

// gridBench is sim_grid, or observed_grid when observe is set.
type gridBench struct {
	grid    *grid
	observe bool
	ref     []sim.Result // second-engine results, per distinct config
	export  []byte       // first pass's metrics export, for observed_grid
}

func (b *gridBench) job(*tracer, int) *job {
	return &job{exps: []experiments.Experiment{b.grid.experiment()}, cfg: experiments.DefaultConfig(), observe: b.observe}
}

func (b *gridBench) reference(ctx context.Context) error {
	if b.ref != nil {
		return nil
	}
	ref, err := b.grid.reference(ctx)
	b.ref = ref
	return err
}

// check re-derives every result on a second engine (once per run) and
// counts the points that differ. Observed passes must also export the
// same metrics every time: the export is a pure function of the distinct
// simulations.
func (b *gridBench) check(ctx context.Context, p *pass, _ int) (int, error) {
	if err := b.reference(ctx); err != nil {
		return 0, err
	}
	out, _ := p.results[0].Output.(gridOutput)
	bad := b.grid.verify(out, b.ref)
	if b.observe {
		if b.export == nil {
			b.export = p.export
		} else if !bytes.Equal(b.export, p.export) {
			bad = len(b.grid.reqs)
		}
	}
	return bad, nil
}

func (b *gridBench) modelRelErr(ctx context.Context, _ *pass) (float64, error) {
	if err := b.reference(ctx); err != nil {
		return 0, err
	}
	return b.grid.modelRelErr(b.ref), nil
}

func (b *gridBench) requests(p *pass) int64 { return p.requests }

// algoBench is algo_analytic.
type algoBench struct {
	insts []*algoInst
}

func (b *algoBench) job(tr *tracer, _ int) *job {
	return &job{exps: []experiments.Experiment{algoExperiment(b.insts, tr)}, cfg: experiments.DefaultConfig()}
}

func (b *algoBench) check(ctx context.Context, p *pass, _ int) (int, error) {
	out, _ := p.results[0].Output.(algoOutput)
	bad := 0
	for i, a := range b.insts {
		if i >= len(out) {
			bad++
			continue
		}
		ok, err := a.correct(ctx, out[i])
		if err != nil {
			return 0, err
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// modelRelErr emulates every QRQW instance once more in Analytic and once
// in Simulate mode (untimed) and compares the charged cycles step by
// step: the (d,x)-BSP prediction against the event simulation on the
// emulation's hashed supersteps, where the paper validates the model.
// The other families' supersteps mix exact matches with large misses,
// so their median moves with the seed more than any bound could allow.
func (b *algoBench) modelRelErr(ctx context.Context, _ *pass) (float64, error) {
	var errs []float64
	for _, a := range b.insts {
		if a.family != "qrqw-emulate" {
			continue
		}
		an, err := runEmulate(ctx, a, nil, vector.Analytic, nil)
		if err != nil {
			return 0, err
		}
		sm, err := runEmulate(ctx, a, nil, vector.Simulate, nil)
		if err != nil {
			return 0, err
		}
		for i := range an.charged {
			errs = append(errs, relErr(an.charged[i], sm.charged[i]))
		}
	}
	return median(errs), nil
}

func (b *algoBench) requests(p *pass) int64 {
	out, _ := p.results[0].Output.(algoOutput)
	var n int64
	for _, o := range out {
		n += o.requests
	}
	return n
}

func relErr(pred, sim float64) float64 {
	if sim == 0 {
		return 0
	}
	d := pred - sim
	if d < 0 {
		d = -d
	}
	return d / sim
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty); xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
