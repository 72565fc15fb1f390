// Error-envelope methodology: the surrogate is only as good as its
// measured distance from the oracle. MeasureEnvelope replays a fixed,
// seeded sweep of eligible configurations through both the event
// simulator and the closed form, buckets the relative errors by regime,
// and summarizes each bucket. The result is pinned in
// testdata/envelope.json (embedded below) and published as a table
// under docs/ — tests fail if the measured envelope drifts from the pin
// (accuracy regressions are caught exactly like perf regressions), and
// the router reports the pinned bound for the regimes it routes.

package surrogate

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
)

// Regime buckets a configuration by the model terms that dominate it:
// discipline (fifo, regulated) × loop (open, windowed) × bandwidth
// match (matched when x >= d/g, else starved). Errors cluster by these
// axes — the open/matched bucket is near-exact while windowed/starved
// leans on the mean-value iteration — so the envelope pins each bucket
// separately.
func Regime(cfg sim.Config) string {
	c := cfg.Normalize()
	var disc string
	switch c.Bank.Discipline {
	case sim.Regulated:
		disc = "regulated"
	case sim.DRAM:
		disc = "dram"
	case sim.GPUShared:
		disc = "gpu"
	default:
		disc = "fifo"
	}
	mode := "open"
	if c.Window > 0 {
		mode = "windowed"
	}
	load := "matched"
	if !c.Machine.BandwidthMatched() {
		load = "starved"
	}
	return disc + "/" + mode + "/" + load
}

// RegimeStats summarizes the surrogate's relative error |T̂-T|/T
// against the simulator over one regime's validation points.
type RegimeStats struct {
	Points       int     `json:"points"`
	MedianRelErr float64 `json:"median"`
	P99RelErr    float64 `json:"p99"`
	MaxRelErr    float64 `json:"max"`
}

// Envelope is the full pinned error envelope.
type Envelope struct {
	Points  int                    `json:"points"`
	Regimes map[string]RegimeStats `json:"regimes"`
}

//go:embed testdata/envelope.json
var pinnedJSON []byte

var pinnedOnce = sync.OnceValue(func() Envelope {
	var e Envelope
	if err := json.Unmarshal(pinnedJSON, &e); err != nil {
		panic(fmt.Sprintf("surrogate: corrupt embedded envelope: %v", err))
	}
	return e
})

// Pinned returns the committed error envelope the tests enforce and the
// router reports.
func Pinned() Envelope { return pinnedOnce() }

// MaxRelErr returns the pinned maximum relative error for cfg's regime,
// or the worst bound across all regimes when the regime was not swept.
func MaxRelErr(cfg sim.Config) float64 {
	e := Pinned()
	if st, ok := e.Regimes[Regime(cfg)]; ok {
		return st.MaxRelErr
	}
	worst := 0.0
	for _, st := range e.Regimes {
		if st.MaxRelErr > worst {
			worst = st.MaxRelErr
		}
	}
	return worst
}

// Pattern families the validation sweep and the fuzz corpus draw from.
const (
	FamUniform     = iota // uniform random addresses
	FamZipf               // zipf(1.1) skewed locations
	FamHot                // n/16-way single-location contention
	FamAllSame            // every request to one address
	FamPermutation        // a random permutation (all distinct)
	FamStrided            // stride = banks: worst case for interleaving
	famCount
)

// SweepSpec is one validation point, in scalars so the fuzz corpus can
// carry it. Build turns it into the (Config, Pattern) pair both the
// simulator and the surrogate consume.
type SweepSpec struct {
	Procs, X  int
	D, G, L   float64
	Window    int
	Fam       int
	Regulated bool
	RegWindow float64
	RegBudget int
	Hashed    bool
	N         int
	Seed      uint64
}

// Build materializes the spec. Procs and X must be powers of two (the
// hash-map families require it); N is the request count.
func (s SweepSpec) Build() (sim.Config, core.Pattern) {
	banks := s.Procs * s.X
	m := core.Machine{Name: "env", Procs: s.Procs, Banks: banks, D: s.D, G: s.G, L: s.L}
	g := rng.New(s.Seed)
	var addrs []uint64
	switch s.Fam {
	case FamZipf:
		addrs = patterns.Zipf(s.N, 1<<16, 1.1, g)
	case FamHot:
		addrs = patterns.Contention(s.N, s.N/16, 1<<20)
	case FamAllSame:
		addrs = patterns.AllSame(s.N, 42)
	case FamPermutation:
		addrs = patterns.Permutation(s.N, g)
	case FamStrided:
		addrs = patterns.Strided(s.N, 0, uint64(banks))
	default:
		addrs = patterns.Uniform(s.N, 1<<20, g)
	}
	cfg := sim.Config{Machine: m, Window: s.Window}
	if s.Regulated {
		cfg.Bank = sim.BankConfig{Discipline: sim.Regulated, RegWindow: s.RegWindow, RegBudget: s.RegBudget}
	}
	if s.Hashed {
		cfg.BankMap = hashfn.Map{F: hashfn.NewLinear(uint(bits.TrailingZeros(uint(banks))), g)}
	}
	return cfg, core.NewPattern(addrs, s.Procs)
}

// envelopeSeed derives per-spec RNG seeds; changing it regenerates the
// whole envelope, so it is part of the pinned identity.
const envelopeSeed = 0x5eed9e11

// DefaultSweep returns the validation sweep the envelope is measured
// over: a compact factorial grid over machine shape, window, and
// discipline, with the pattern family rotating through the grid so
// every regime sees several families. ~250 simulations at n=2048 keeps
// the pin test inside the tier-1 budget.
func DefaultSweep() []SweepSpec {
	var specs []SweepSpec
	i := 0
	add := func(s SweepSpec) {
		s.N = 2048
		s.Seed = envelopeSeed + uint64(i)*0x9e3779b97f4a7c15
		i++
		specs = append(specs, s)
	}
	fams := []int{FamUniform, FamZipf, FamHot, FamPermutation}
	for _, p := range []int{2, 8} {
		for _, x := range []int{1, 4, 16} {
			for _, d := range []float64{2, 6, 14} {
				for _, g := range []float64{1, 3} {
					for _, l := range []float64{0, 50} {
						for _, w := range []int{0, 1, 8} {
							add(SweepSpec{Procs: p, X: x, D: d, G: g, L: l,
								Window: w, Fam: fams[i%len(fams)]})
						}
					}
				}
			}
		}
	}
	// Hashed bank maps over uniform and strided (the map's reason to exist).
	for _, p := range []int{2, 8} {
		for _, x := range []int{4, 16} {
			for _, fam := range []int{FamUniform, FamStrided} {
				for _, w := range []int{0, 8} {
					add(SweepSpec{Procs: p, X: x, D: 6, G: 1, L: 8,
						Window: w, Fam: fam, Hashed: true})
				}
			}
		}
	}
	// Regulated banks, tight and loose budgets.
	for _, p := range []int{2, 8} {
		for _, reg := range []struct {
			w float64
			b int
		}{{12, 1}, {6, 4}} {
			for _, w := range []int{0, 8} {
				add(SweepSpec{Procs: p, X: 4, D: 6, G: 1, L: 8, Window: w,
					Fam: FamUniform, Regulated: true, RegWindow: reg.w, RegBudget: reg.b})
			}
		}
	}
	return specs
}

// patternKey groups sweep specs whose Build produces identical address
// patterns: the seeded families draw a fresh stream per spec, while the
// seedless families (hot, all-same, strided) repeat their content
// whenever the shape fields agree — those specs can share one lockstep
// batch. Over-splitting is harmless (a one-lane batch is still exact),
// so the key conservatively includes every field that can reach the
// address generator.
func (s SweepSpec) patternKey() string {
	key := fmt.Sprintf("f%d n%d p%d b%d", s.Fam, s.N, s.Procs, s.Procs*s.X)
	switch s.Fam {
	case FamHot, FamAllSame, FamStrided:
	default:
		key += fmt.Sprintf(" s%x", s.Seed)
	}
	return key
}

// MeasureEnvelope runs the validation sweep through the simulator and
// the surrogate and returns the per-regime error envelope. It is the
// generator for the pinned testdata and the docs table, and the test
// oracle that detects accuracy regressions.
//
// The simulator side goes through the batched lockstep engine: eligible
// lanes group by shared pattern into sim.RunBatch calls, ineligible
// configs take sim.RunContext. Every batched lane is byte-identical
// to its solo run, so the measured envelope — and the committed pin —
// is bit-for-bit unchanged by the routing (TestEnvelopePin asserts
// this against the raw testdata bytes).
func MeasureEnvelope(specs []SweepSpec) (Envelope, error) {
	ctx := context.Background()
	cfgs := make([]sim.Config, len(specs))
	pats := make([]core.Pattern, len(specs))
	results := make([]sim.Result, len(specs))
	groups := make(map[string][]int, len(specs))
	order := make([]string, 0, len(specs))
	for i, s := range specs {
		cfgs[i], pats[i] = s.Build()
		if !sim.BatchEligible(cfgs[i]) {
			res, err := sim.RunContext(ctx, cfgs[i], pats[i])
			if err != nil {
				return Envelope{}, fmt.Errorf("sweep %+v: sim: %w", s, err)
			}
			results[i] = res
			continue
		}
		k := s.patternKey()
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		idx := groups[k]
		lanes := make([]sim.Config, len(idx))
		for j, i := range idx {
			lanes[j] = cfgs[i]
		}
		batched, err := sim.RunBatch(ctx, lanes, pats[idx[0]])
		if err != nil {
			return Envelope{}, fmt.Errorf("sweep batch %s: sim: %w", k, err)
		}
		for j, i := range idx {
			results[i] = batched[j]
		}
	}

	// Errors accumulate in spec order, exactly as the per-spec scalar
	// loop did, so regime bucket order — and the summarized floats — are
	// unchanged by the batched execution above.
	byRegime := map[string][]float64{}
	for i, s := range specs {
		res := results[i]
		pred, err := Predict(cfgs[i], pats[i])
		if err != nil {
			return Envelope{}, fmt.Errorf("sweep %+v: surrogate: %w", s, err)
		}
		if res.Cycles <= 0 {
			return Envelope{}, fmt.Errorf("sweep %+v: zero-cycle simulation", s)
		}
		rel := math.Abs(pred.Cycles-res.Cycles) / res.Cycles
		r := Regime(cfgs[i])
		byRegime[r] = append(byRegime[r], rel)
	}
	env := Envelope{Regimes: map[string]RegimeStats{}}
	for r, errs := range byRegime {
		sort.Float64s(errs)
		n := len(errs)
		env.Points += n
		env.Regimes[r] = RegimeStats{
			Points:       n,
			MedianRelErr: errs[n/2],
			P99RelErr:    errs[(n-1)*99/100],
			MaxRelErr:    errs[n-1],
		}
	}
	return env, nil
}

// MarshalCanonical renders the envelope as deterministic, indented
// JSON — the format committed under testdata and compared byte-for-byte
// by the pin test (encoding/json sorts map keys).
func (e Envelope) MarshalCanonical() []byte {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return append(b, '\n')
}

// MarkdownTable renders the envelope as the publishable table that
// lives under docs/.
func (e Envelope) MarkdownTable() string {
	var sb strings.Builder
	sb.WriteString("| regime | points | median rel err | p99 rel err | max rel err |\n")
	sb.WriteString("|---|---:|---:|---:|---:|\n")
	keys := make([]string, 0, len(e.Regimes))
	for k := range e.Regimes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := e.Regimes[k]
		fmt.Fprintf(&sb, "| %s | %d | %.1f%% | %.1f%% | %.1f%% |\n",
			k, st.Points, 100*st.MedianRelErr, 100*st.P99RelErr, 100*st.MaxRelErr)
	}
	return sb.String()
}
