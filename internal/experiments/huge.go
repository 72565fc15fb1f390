// The huge-grid family: sweeps at modern machine sizes, run exactly on
// the closed-form kernel. They live in their own Huge() registry so the
// full `dxbench` suite output (and the goldens pinned against it) stays
// as it was; Lookup finds them by ID like any other experiment.

package experiments

import (
	"context"
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
)

// Huge returns the experiments excluded from All(), so that adding
// them did not change the suite's output. Run them by ID
// (`dxbench -experiment F14`).
func Huge() []Experiment {
	return []Experiment{expF14()}
}

// expF14 scales the F6 scatter study to modern machine sizes: processor
// counts to 4096 and expansions to 64, with the request count growing
// with the machine (64 requests per processor). At the top corner one
// point alone is a quarter-million-request simulation, which the
// closed-form kernel still answers exactly in interactive time.
func expF14() Experiment {
	ps := []int{64, 256, 1024, 4096}
	xs := []int{1, 4, 16, 64}
	reqsPerProc := 64
	return sweep("F14", "Huge scatter grid",
		func(cfg Config) *tablefmt.Table {
			cols := []string{"p"}
			for _, x := range hugeXs(cfg, xs) {
				cols = append(cols, fmt.Sprintf("x=%d", x))
			}
			return tablefmt.New(
				"F14: random scatter at scale (d=6, g=1, cycles/element)",
				cols...)
		},
		func(cfg Config) []Point {
			gps := ps
			if cfg.Quick {
				gps = []int{8, 16}
			}
			var pts []Point
			for _, p := range gps {
				p := p
				pts = append(pts, newPoint(fmt.Sprintf("p=%d", p), func(ctx context.Context, cfg Config) (tableRows, error) {
					n := p * reqsPerProc
					if cfg.Quick {
						n = p * 16
					}
					row := []interface{}{p}
					for _, x := range hugeXs(cfg, xs) {
						m := core.Machine{Name: "huge", Procs: p, Banks: p * x, D: 6, G: 1, L: 16}
						// Per-point seed: points are independent, so each draws
						// its own stream instead of splitting a shared one.
						g := rng.New(cfg.Seed ^ (uint64(p)<<32 | uint64(x)))
						pt := core.NewPattern(patterns.Uniform(n, 1<<40, g), p)
						r, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
						if err != nil {
							return nil, err
						}
						row = append(row, fmt.Sprintf("%.3f", core.CyclesPerElement(r.Cycles, n, p)))
					}
					return tableRows{row}, nil
				}))
			}
			return pts
		})
}

func hugeXs(cfg Config, xs []int) []int {
	if cfg.Quick {
		return []int{1, 4}
	}
	return xs
}
