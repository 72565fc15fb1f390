package main

import (
	"context"
	"fmt"
	"io"
	"slices"

	"dxbsp/internal/algos"
	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/qrqw"
	"dxbsp/internal/rng"
	"dxbsp/internal/vector"
)

// The Section 6 algorithm instances behind algo_analytic: each runs on a
// fresh J90 vector.Machine in Analytic mode (no event simulation), one
// runner point per (algorithm, size, seed) instance, at sizes up to those
// of F8–F13.

// algoSizes holds the per-family sizes of one scale.
type algoSizes struct {
	search, perm, sort []int // query, permutation and key counts
	denseLens          []int // SpMV dense-column lengths
	dictKeys, rows     int   // binary-search dictionary, SpMV rows
	ccVerts            int   // connected-components vertices
	emuV, emuSteps     int   // QRQW program shape
	emuX               []int // QRQW emulation expansions
	seeds              int   // instances per (algorithm, size)
	spmvSeeds          int   // SpMV instances per length (its matrices dominate set-up memory)
}

func sizesFor(n int, quick bool) algoSizes {
	if quick {
		return algoSizes{search: []int{1 << 8, 1 << 10}, perm: []int{1 << 8, 1 << 12}, sort: []int{1 << 10},
			denseLens: []int{1, 64, n}, dictKeys: 1<<13 - 1, rows: n, ccVerts: n / 4,
			emuV: n / 2, emuSteps: 2, emuX: []int{1, 16}, seeds: 1, spmvSeeds: 1}
	}
	return algoSizes{search: []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}, perm: []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18},
		sort: []int{1 << 12, 1 << 14, 1 << 16}, denseLens: []int{1, 16, 256, 4096, n}, dictKeys: 1<<17 - 1,
		rows: n, ccVerts: n / 4, emuV: n / 2, emuSteps: 4, emuX: []int{1, 4, 16}, seeds: 4, spmvSeeds: 2}
}

// algoInst is one instance with its generated inputs.
type algoInst struct {
	family string
	label  string
	seed   uint64 // the instance's own generator seed (the input of the randomized algorithms)
	n      int

	dict, queries []int64 // search
	csr           *algos.CSR
	x             []int64 // spmv
	graph         *algos.Graph
	keys          []int64 // radix-sort
	prog          qrqw.Program
	mach          core.Machine // qrqw-emulate
	bm            core.BankMap

	want    []int64   // oracle answer, filled by the first check
	charges []float64 // directly computed charges, filled by the first check
}

// algoOut is what a point returns: the algorithm's answer, the memory
// requests the analytic model answered and the cycles it charged.
type algoOut struct {
	answer   []int64
	requests int64
	vecSteps int       // irregular vector supersteps
	charged  []float64 // cycles charged per irregular superstep, or per QRQW step
	emulated bool      // qrqw-emulate: charged holds the emulation's per-step cost
}

// makeAlgos generates the instances for a seed.
func makeAlgos(seed uint64, n int, quick bool) []*algoInst {
	sz := sizesFor(n, quick)
	g := rng.New(seed)
	var out []*algoInst
	add := func(a *algoInst) {
		a.label = fmt.Sprintf("%s n=%d #%d", a.family, a.n, len(out))
		a.seed = g.Uint64()
		out = append(out, a)
	}
	keysBelow := func(n int, max int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = int64(g.Uint64n(uint64(max)))
		}
		return ks
	}
	for s := 0; s < sz.seeds; s++ {
		dict := keysBelow(sz.dictKeys, 1<<20)
		slices.Sort(dict)
		for _, q := range sz.search {
			queries := keysBelow(q, 1<<20)
			add(&algoInst{family: "search-qrqw", n: q, dict: dict, queries: queries})
			add(&algoInst{family: "search-erew", n: q, dict: dict, queries: queries})
		}
		for _, p := range sz.perm {
			add(&algoInst{family: "darts", n: p})
			add(&algoInst{family: "radix-perm", n: p})
		}
		x := keysBelow(1024, 100)
		for _, dl := range sz.denseLens {
			if s >= sz.spmvSeeds {
				break
			}
			add(&algoInst{family: "spmv", n: dl, csr: algos.RandomCSR(sz.rows, len(x), 4, dl, g.Split()), x: x})
		}
		v := sz.ccVerts
		add(&algoInst{family: "cc-random", n: v, graph: algos.RandomGraph(v, 2*v, g.Split())})
		add(&algoInst{family: "cc-star", n: v, graph: algos.StarGraph(v)})
		add(&algoInst{family: "cc-path", n: v, graph: algos.PathGraph(v)})
		for _, k := range sz.sort {
			add(&algoInst{family: "radix-sort", n: k, keys: keysBelow(k, 1<<20)})
		}
		prog := qrqw.RandomProgram(sz.emuV, sz.emuSteps, 1<<34, g.Split())
		for _, xe := range sz.emuX {
			m := core.Machine{Name: "emu", Procs: 8, Banks: 8 * xe, D: 16, G: 1, L: 64}
			bm := hashfn.Map{F: hashfn.NewLinear(hashfn.Log2Banks(m.Banks), g.Split())}
			add(&algoInst{family: "qrqw-emulate", n: sz.emuV, prog: prog, mach: m, bm: bm})
		}
	}
	return out
}

// vmHooks builds the vector machine options for one algorithm call: a
// trace hook recording the supersteps, requests and cycles the machine
// charges and, when tracing, a capture/trace pair bracketing each
// irregular superstep in a span under parent. direct, when non-nil,
// receives each superstep's charge computed straight from its addresses.
func vmHooks(tr *tracer, parent spanRef, out *algoOut, direct *[]float64) []vector.Option {
	open := -1
	opts := []vector.Option{vector.WithTrace(func(_ string, prof core.Profile, cycles float64) {
		tr.end(open)
		open = -1
		out.requests += int64(prof.N)
		out.vecSteps++
		out.charged = append(out.charged, cycles)
	})}
	if tr != nil || direct != nil {
		j90 := core.J90()
		bm := core.InterleaveMap{Banks: j90.Banks} // the vector machine's default map
		opts = append(opts, vector.WithCapture(func(_ string, addrs []uint64) {
			if direct != nil {
				per := make([][]uint64, j90.Procs)
				for i, a := range addrs { // round-robin, as a vectorized loop issues
					per[i%j90.Procs] = append(per[i%j90.Procs], a)
				}
				*direct = append(*direct, directCharge(j90, bm, per))
			}
			if tr != nil {
				open = tr.open("vector.irregular", parent.id, parent.point)
			}
		}))
	}
	return opts
}

// directCharge is the (d,x)-BSP charge of one superstep computed from its
// per-processor addresses, without core's profile code: the busiest
// processor's request count h and the busiest bank's load k under bm.
func directCharge(m core.Machine, bm core.BankMap, perProc [][]uint64) float64 {
	loads := make([]int, bm.NumBanks())
	h, k := 0, 0
	for _, as := range perProc {
		h = max(h, len(as))
		for _, a := range as {
			b := bm.Bank(a)
			loads[b]++
			k = max(k, loads[b])
		}
	}
	return m.SuperstepCost(h, k)
}

// runAlgo executes one instance in the given charging mode. direct, when
// non-nil, receives every superstep's charge computed from its addresses
// (see directCharge).
func runAlgo(ctx context.Context, a *algoInst, tr *tracer, mode vector.Mode, direct *[]float64) (algoOut, error) {
	if a.family == "qrqw-emulate" {
		return runEmulate(ctx, a, tr, mode, direct)
	}
	var out algoOut
	sp, actx := tr.begin(ctx, "algos."+a.family, "")
	defer tr.end(sp)
	newVM := func() *vector.Machine {
		opts := append(vmHooks(tr, parentOf(actx), &out, direct), vector.WithMode(mode))
		return vector.New(core.J90(), opts...)
	}
	g := rng.New(a.seed)
	switch a.family {
	case "search-qrqw":
		vm := newVM()
		tree := algos.BuildSearchTree(vm, a.dict, 256)
		out.answer = tree.Search(a.queries, g).Ranks
	case "search-erew":
		vm := newVM()
		out.answer = algos.SearchEREW(vm, a.dict, a.queries, 1<<20).Ranks
	case "darts":
		vm := newVM()
		out.answer = algos.RandomPermuteQRQW(vm, a.n, g).Perm
	case "radix-perm":
		vm := newVM()
		out.answer = algos.RandomPermuteEREW(vm, a.n, 40, g).Perm
	case "spmv":
		vm := newVM()
		out.answer = algos.SpMV(vm, a.csr, a.x).Y
	case "cc-random", "cc-star", "cc-path":
		vm := newVM()
		out.answer = algos.ConnectedComponents(vm, a.graph, g).Labels
	case "radix-sort":
		vm := newVM()
		out.answer = algos.RadixSort(vm, vm.AllocInit(a.keys), 1<<20, 11).Ranks
	default:
		return out, fmt.Errorf("unknown algorithm family %q", a.family)
	}
	return out, nil
}

// runEmulate emulates the instance's QRQW program; qrqw.Emulate is its
// own layer, outside algos.
func runEmulate(ctx context.Context, a *algoInst, tr *tracer, mode vector.Mode, direct *[]float64) (algoOut, error) {
	qmode := qrqw.Analytic
	if mode == vector.Simulate {
		qmode = qrqw.Simulate
	}
	sp, _ := tr.begin(ctx, "qrqw.emulate", "")
	res, err := qrqw.Emulate(a.prog, a.mach, a.bm, qmode)
	tr.end(sp)
	if err != nil {
		return algoOut{}, fmt.Errorf("%s: %w", a.label, err)
	}
	if direct != nil {
		for _, st := range a.prog.Steps {
			// Virtual processor vp runs on physical processor vp mod p.
			per := make([][]uint64, a.mach.Procs)
			for vp, acc := range st.Accesses {
				per[vp%a.mach.Procs] = append(per[vp%a.mach.Procs], acc...)
			}
			*direct = append(*direct, directCharge(a.mach, a.bm, per))
		}
	}
	return algoOut{requests: int64(a.prog.TotalRequests()), charged: res.PerStep, emulated: true}, nil
}

// algoOutput is the algorithm experiment's result: one algoOut per
// instance.
type algoOutput []algoOut

func (o algoOutput) Render(w io.Writer) { fmt.Fprintf(w, "%d algorithm instances\n", len(o)) }

func algoExperiment(insts []*algoInst, tr *tracer) experiments.Experiment {
	return experiments.Experiment{
		ID:    "ALGO",
		Title: "Section 6 algorithms, analytic charging",
		Points: func(experiments.Config) []experiments.Point {
			pts := make([]experiments.Point, len(insts))
			for i, a := range insts {
				pts[i] = experiments.Point{Index: i, Label: a.label}
			}
			return pts
		},
		RunPoint: func(ctx context.Context, _ experiments.Config, p experiments.Point) (experiments.PointResult, error) {
			out, err := runAlgo(ctx, insts[p.Index], tr, vector.Analytic, nil)
			return experiments.PointResult{Index: p.Index, Value: out}, err
		},
		Assemble: func(_ experiments.Config, rs []experiments.PointResult) experiments.Renderable {
			out := make(algoOutput, len(rs))
			for i, r := range rs {
				out[i], _ = r.Value.(algoOut)
			}
			return out
		},
	}
}

// oracle computes the instance's reference answer with the algos
// oracles, or, for answers with many valid values (random permutations),
// nil: those are checked structurally.
func (a *algoInst) oracle() []int64 {
	switch a.family {
	case "search-qrqw", "search-erew":
		return algos.SerialPredecessor(a.dict, a.queries)
	case "spmv":
		return algos.SerialSpMV(a.csr, a.x)
	case "cc-random", "cc-star", "cc-path":
		return algos.SerialComponents(a.graph)
	case "radix-sort":
		// Ranks of a stable sort: position of each key in sorted order,
		// ties broken by index.
		idx := make([]int, len(a.keys))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(i, j int) int {
			switch {
			case a.keys[i] < a.keys[j]:
				return -1
			case a.keys[i] > a.keys[j]:
				return 1
			}
			return 0
		})
		ranks := make([]int64, len(idx))
		for pos, i := range idx {
			ranks[i] = int64(pos)
		}
		return ranks
	}
	return nil
}

// correct checks one instance's output: the cycles charged against
// charges computed directly from the same supersteps' addresses, then the
// answer against the oracles. The direct charges come from an untimed
// re-run of the instance on the first check.
func (a *algoInst) correct(ctx context.Context, out algoOut) (bool, error) {
	if a.charges == nil {
		a.charges = []float64{}
		if _, err := runAlgo(ctx, a, nil, vector.Analytic, &a.charges); err != nil {
			return false, err
		}
	}
	if !slices.Equal(out.charged, a.charges) {
		return false, nil
	}
	switch a.family {
	case "qrqw-emulate":
		return true, nil // the emulation's output is its cost
	case "darts", "radix-perm":
		return len(out.answer) == a.n && algos.IsPermutation(out.answer), nil
	}
	if a.want == nil {
		a.want = a.oracle()
	}
	if a.family == "cc-random" || a.family == "cc-star" || a.family == "cc-path" {
		return algos.SameComponents(out.answer, a.want), nil
	}
	return slices.Equal(out.answer, a.want), nil
}
