// Command perfbench is the repository benchmark: it runs one workload
// through the real entry points (runner, cache, simulator, vector
// machine, QRQW emulation, rendering) for a fixed time, checks every
// result, and prints its metrics, the last line as one JSON object.
//
//	perfbench --workload sim_grid --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced passes; --trace 1
// runs untraced and then traced passes and reports the per-layer metrics
// and the tracing overhead. Workloads, metrics and their expected
// interactions are described in README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: paper_suite, sim_grid, algo_analytic, observed_grid")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 10, "host seconds of timed passes")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		tmp     = fs.String("tmp", filepath.Join(".bench_build", "perfbench"), "directory for journals, exports and the span file")
		record  = fs.String("record-goldens", "", "record paper_suite goldens from this dxbench binary to stdout, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordGoldens(*record, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := measure(context.Background(), *name, *seed, *seconds, *trace == 1, false, *tmp, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// Set-up repeats until it has run setupMinReps times and setupMinTime has
// passed, so a sub-millisecond set-up is still reported as a steady median.
// Each repetition starts from a collected heap.
const (
	setupMinReps = 5
	setupMaxReps = 1000
	setupMinTime = 500 * time.Millisecond
)

// phase is the outcome of a sequence of passes. The slices hold one
// value per pass; the end-to-end metrics are their medians, so one pass
// slowed by the host does not move them.
type phase struct {
	passes  []*pass
	walls   []float64
	rssMB   []float64 // peak resident set
	cycles  []float64 // simulated cycles of the downstream simulations
	simNS   []float64 // engine host time per simulated request
	p50MS   []float64 // point latency percentiles
	p90MS   []float64
	rate    []float64    // points per host second
	reqRate []float64    // memory requests answered per host second
	rt      runtimeDelta // Go runtime counters, summed over the passes' runs
	points  int
	failed  int
	relErr  float64
}

// runPasses runs fresh passes of b until their timed time reaches budget
// (at least one), checking each pass untimed after it ends. keep retains
// the passes for per-layer accounting.
func runPasses(ctx context.Context, b bench, tr *tracer, budget time.Duration, tmp string, keep bool) (*phase, error) {
	ph := &phase{relErr: -1}
	var spent time.Duration
	for len(ph.walls) == 0 || spent+time.Duration(median(append([]float64(nil), ph.walls...))*1e9) <= budget {
		// Every pass starts from a collected heap with its pages returned,
		// as a fresh dxbench process would, and measures its own peak.
		debug.FreeOSMemory()
		resetPeakRSS()
		i := len(ph.walls)
		j := b.job(tr, i)
		before := sampleRuntime()
		p, err := j.run(ctx, tmp, tr)
		if err != nil {
			return nil, err
		}
		ph.rt.add(before, sampleRuntime())
		ph.rssMB = append(ph.rssMB, peakRSSMB())
		spent += p.wall
		ph.walls = append(ph.walls, p.wall.Seconds())
		ms := make([]float64, len(p.pointDur))
		for k, d := range p.pointDur {
			ms[k] = float64(d) / 1e6
		}
		ph.p50MS = append(ph.p50MS, quantile(ms, 0.5))
		ph.p90MS = append(ph.p90MS, quantile(ms, 0.9))
		ph.rate = append(ph.rate, float64(len(p.pointDur))/p.wall.Seconds())
		ph.reqRate = append(ph.reqRate, float64(b.requests(p))/p.wall.Seconds())
		ph.points += len(p.pointDur)
		ph.cycles = append(ph.cycles, cyclesTotal(p.calls))
		ph.simNS = append(ph.simNS, engineNSPerRequest(p.calls))
		bad, err := b.check(ctx, p, i)
		if err != nil {
			return nil, err
		}
		ph.failed += bad
		if ph.relErr < 0 {
			if ph.relErr, err = b.modelRelErr(ctx, p); err != nil {
				return nil, err
			}
		}
		if keep {
			ph.passes = append(ph.passes, p)
		}
	}
	return ph, nil
}

// runtimeCounters samples the Go runtime's allocation, GC and CPU
// accounting. The CPU figures are the runtime's snapshot at the end of
// the last GC cycle.
type runtimeCounters struct {
	mem          runtime.MemStats
	gcCPU, total float64
}

// runtimeDelta sums the runtime counters' growth over the passes' runs,
// which exclude set-up, checks and the forced collection before each pass.
type runtimeDelta struct {
	allocBytes, mallocs, gcs, gcCPU, total float64
}

func (d *runtimeDelta) add(before, after runtimeCounters) {
	d.allocBytes += float64(after.mem.TotalAlloc - before.mem.TotalAlloc)
	d.mallocs += float64(after.mem.Mallocs - before.mem.Mallocs)
	d.gcs += float64(after.mem.NumGC - before.mem.NumGC)
	d.gcCPU += after.gcCPU - before.gcCPU
	d.total += after.total - before.total
}

func sampleRuntime() runtimeCounters {
	var rc runtimeCounters
	runtime.ReadMemStats(&rc.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU, rc.total = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rc
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM)
// to the current RSS, so peakRSSMB reports the peak since the call.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // Linux >= 4.0; without it the peak is the process's
}

// peakRSSMB returns the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// measure sets the workload up, runs its passes and assembles the report.
func measure(ctx context.Context, name string, seed uint64, seconds float64, traced, quick bool, tmp string, log io.Writer) (*report, error) {
	var b bench
	var setups []float64
	setupStart := time.Now()
	for len(setups) < setupMinReps || (time.Since(setupStart) < setupMinTime && len(setups) < setupMaxReps) {
		b = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = setupWorkload(name, seed, quick); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups)

	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	plain, err := runPasses(ctx, b, nil, budget, tmp, false)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	rep.Attempted, rep.Failed = plain.points, plain.failed
	fmt.Fprintf(log, "%s: %d untraced pass(es) of %d point(s), walls %.3f s, peak RSS %.1f MB; set-up median of %d\n",
		name, len(plain.walls), plain.points/len(plain.walls), plain.walls, plain.rssMB, len(setups))

	if !traced {
		rep.Metrics = map[string]metric{
			"wall_s":             {median(append([]float64(nil), plain.walls...)), "s"},
			"points_per_s":       {median(plain.rate), "1/s"},
			"point_p50_ms":       {median(plain.p50MS), "ms"},
			"point_p90_ms":       {median(plain.p90MS), "ms"},
			"setup_s":            {setupS, "s"},
			"peak_rss_mb":        {median(plain.rssMB), "MB"},
			"sim_requests_per_s": {median(plain.reqRate), "1/s"},
		}
	} else {
		tr := newTracer()
		tp, err := runPasses(ctx, b, tr, budget, tmp, true)
		if err != nil {
			return nil, err
		}
		rep.Attempted += tp.points
		rep.Failed += tp.failed
		if tp.relErr != plain.relErr {
			fmt.Fprintf(log, "model error differs between traced (%v) and untraced (%v) passes\n", tp.relErr, plain.relErr)
			rep.Failed++
		}
		for i := 0; i < len(tp.cycles) && i < len(plain.cycles); i++ {
			if tp.cycles[i] != plain.cycles[i] {
				fmt.Fprintf(log, "pass %d: simulated cycles differ between traced (%v) and untraced (%v) passes\n", i, tp.cycles[i], plain.cycles[i])
				rep.Failed++
			}
		}
		var extra *phase
		if rep.Metrics, extra, err = layerMetrics(ctx, b, plain, tp, tr, budget/2, tmp); err != nil {
			return nil, err
		}
		if extra != nil {
			rep.Attempted += extra.points
			rep.Failed += extra.failed
		}
		f, err := os.Create(filepath.Join(tmp, "spans-"+name+".jsonl"))
		if err != nil {
			return nil, err
		}
		werr := tr.write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("writing spans: %w", werr)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// fallbackReasons are the labels sim.BatchFallbackReason returns.
var fallbackReasons = []string{"combining", "probe", "sections", "row-cache", "dram-groups", "dram-multirow", "gpu-shared"}

// layerMetrics computes the per-layer metrics, per traced pass, from the
// spans and the counters the passes recorded; the Go runtime figures are
// per-pass means over the untraced passes. extra is any phase it runs
// besides, whose points count as attempted.
func layerMetrics(ctx context.Context, b bench, plain, tp *phase, tr *tracer, budget time.Duration, tmp string) (m map[string]metric, extra *phase, err error) {
	n := float64(len(tp.passes))
	per := func(x float64) float64 { return x / n }
	busy, self := layerTimes(tr.snapshot())
	prefixSum := func(m map[string]float64, prefix string) float64 {
		s := 0.0
		for k, v := range m {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				s += v
			}
		}
		return s
	}
	// Counts describe the first traced pass, which is deterministic for a
	// seed; times are means over the traced passes.
	c := countPass(tp.passes[0])
	var poolBusy, poolCap, exportS, reqsAll, addrsAll float64
	for _, p := range tp.passes {
		for _, r := range p.results {
			poolBusy += r.Stats.Busy.Seconds()
			poolCap += r.Stats.Wall.Seconds() * float64(r.Stats.Workers)
		}
		exportS += p.exportS
		pc := countPass(p)
		reqsAll += pc.simRequests
		addrsAll += pc.vecAddrs
	}
	critical := 0.0
	for _, s := range tr.snapshot() {
		if d := float64(s.End-s.Start) / 1e9; s.Name == "experiments.point" && d > critical {
			critical = d
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPerReq := ratio(busy["sim.run"]*1e9, reqsAll)
	m = map[string]metric{
		"runner.utilization":           {ratio(poolBusy, poolCap), "ratio"},
		"runner.critical_point_s":      {critical, "s"},
		"runner.busy_s":                {per(poolBusy), "s"},
		"runner.idle_s":                {per(poolCap - poolBusy), "s"},
		"runner.self_s":                {per(self["runner.experiment"]), "s"},
		"runner.point_samples":         {float64(plain.points), "count"},
		"runner.cache_hits":            {c.hits, "count"},
		"runner.cache_misses":          {c.misses, "count"},
		"runner.cache_hit_ratio":       {ratio(c.hits, c.hits+c.misses), "ratio"},
		"runner.cache_self_s":          {per(self["runner.cache"]), "s"},
		"runner.simkey_ns":             {simKeyNS(tp.passes[0].calls), "ns"},
		"runner.journal_appends":       {c.appends, "count"},
		"sim.runs":                     {c.runs, "count"},
		"sim.requests":                 {c.simRequests, "count"},
		"sim.busy_s":                   {per(busy["sim.run"]), "s"},
		"sim.ns_per_request":           {nsPerReq, "ns"},
		"sim.kernel_eligible_ratio":    {ratio(c.eligible, c.runs), "ratio"},
		"sim.cycles_total":             {c.cycles, "cycles"},
		"vector.irregular_supersteps":  {c.vecSteps, "count"},
		"vector.irregular_addrs":       {c.vecAddrs, "count"},
		"vector.irregular_busy_s":      {per(busy["vector.irregular"]), "s"},
		"vector.irregular_ns_per_addr": {ratio(busy["vector.irregular"]*1e9, addrsAll), "ns"},
		"algos.busy_s":                 {per(prefixSum(busy, "algos.")), "s"},
		"algos.self_s":                 {per(prefixSum(self, "algos.")), "s"},
		"qrqw.emulate_busy_s":          {per(busy["qrqw.emulate"]), "s"},
		"qrqw.steps":                   {c.qrqwSteps, "count"},
		"experiments.point_self_s":     {per(self["experiments.point"]), "s"},
		"metrics.probe_ns_per_request": {0, "ns"},
		"metrics.export_s":             {per(exportS), "s"},
		"metrics.series":               {c.series, "count"},
		"tablefmt.render_s":            {per(busy["tablefmt.render"]), "s"},
		"tablefmt.bytes":               {c.renderBytes, "bytes"},
		"model_relerr_p50":             {tp.relErr, "ratio"},
		"trace.overhead_frac":          {median(append([]float64(nil), tp.walls...))/median(append([]float64(nil), plain.walls...)) - 1, "ratio"},
	}
	for _, r := range fallbackReasons {
		m["sim.fallback."+r] = metric{c.fallback[r], "count"}
	}
	np := float64(len(plain.walls))
	m["go.alloc_mb"] = metric{plain.rt.allocBytes / (1 << 20) / np, "MB"}
	m["go.mallocs"] = metric{plain.rt.mallocs / np, "count"}
	m["go.gc_cycles"] = metric{plain.rt.gcs / np, "count"}
	m["go.gc_cpu_frac"] = metric{ratio(plain.rt.gcCPU, plain.rt.total), "ratio"}
	if g, ok := b.(*gridBench); ok && g.observe {
		// The probe cost is the untraced observed passes' engine time per
		// request minus that of untraced passes of the same grid without
		// the Observer, run right after them.
		if extra, err = runPasses(ctx, &gridBench{grid: g.grid, ref: g.ref}, nil, budget, tmp, false); err != nil {
			return nil, nil, err
		}
		m["metrics.probe_ns_per_request"] = metric{median(plain.simNS) - median(extra.simNS), "ns"}
	}
	return m, extra, nil
}

// passCounts are the work counts of one pass.
type passCounts struct {
	hits, misses, appends, series, renderBytes float64
	runs, simRequests, eligible, cycles        float64
	vecSteps, vecAddrs, qrqwSteps              float64
	fallback                                   map[string]float64
}

func countPass(p *pass) passCounts {
	c := passCounts{
		hits: float64(p.cache.Hits), misses: float64(p.cache.Misses), appends: float64(p.journal.Appended),
		series: float64(p.series), renderBytes: float64(len(p.text)), cycles: cyclesTotal(p.calls),
		fallback: map[string]float64{},
	}
	for _, r := range p.results {
		out, _ := r.Output.(algoOutput)
		for _, o := range out {
			if o.emulated {
				c.qrqwSteps += float64(len(o.charged))
			} else {
				c.vecSteps += float64(o.vecSteps)
				c.vecAddrs += float64(o.requests)
			}
		}
	}
	for _, call := range p.calls {
		c.runs++
		c.simRequests += float64(call.res.Requests)
		if r := sim.BatchFallbackReason(call.cfg); r == "" {
			c.eligible++
		} else {
			c.fallback[r]++
		}
	}
	return c
}

// cyclesTotal sums the simulated cycles of a pass's downstream
// simulations. Cycles are whole numbers, so the sum does not depend on
// completion order.
func cyclesTotal(calls []simCall) float64 {
	t := 0.0
	for _, c := range calls {
		t += c.res.Cycles
	}
	return t
}

// engineNSPerRequest is the engine host time per simulated request of a
// pass's downstream simulations.
func engineNSPerRequest(calls []simCall) float64 {
	var ns, reqs float64
	for _, c := range calls {
		ns += float64(c.dur.Nanoseconds())
		reqs += float64(c.res.Requests)
	}
	if reqs == 0 {
		return 0
	}
	return ns / reqs
}

// simKeyNS replays a pass's downstream requests through runner.SimKey, in
// their completion order, and returns the mean cost of one key.
func simKeyNS(calls []simCall) float64 {
	if len(calls) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, c := range calls {
		runner.SimKey(c.cfg, c.pt)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(calls))
}
