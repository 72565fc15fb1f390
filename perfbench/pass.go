package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
)

// workers is the runner's pool size, nproc on the 2-vCPU reference
// machine; the pool is the only load generator in the process. It is
// fixed so that runs on any machine do the same work.
const workers = 2

// job is what one pass of a workload executes: experiments on one config,
// through a fresh Runner and an empty Cache, the way a dxbench invocation
// pays a cold cache.
type job struct {
	exps []experiments.Experiment
	cfg  experiments.Config
	// render writes every experiment's output as text, as dxbench does.
	render bool
	// observe attaches a runner.Observer (probes on every simulation) and
	// a checkpoint journal, and exports the metrics once at the end.
	observe bool
}

// simCall is one simulation that reached the engine below the cache.
type simCall struct {
	cfg sim.Config
	pt  core.Pattern
	res sim.Result
	dur time.Duration // host time in the engine
}

// pass is the outcome of running a job once.
type pass struct {
	wall     time.Duration
	results  []runner.Result
	text     []byte          // rendered output (render jobs only)
	pointDur []time.Duration // host latency of every point
	calls    []simCall       // downstream simulations, in completion order
	requests int64           // memory requests answered (see job kinds)

	cache   runner.CacheStats
	journal runner.JournalStats
	exportS float64 // metrics export time (observe jobs only)
	series  int     // metrics samples exported (observe jobs only)
	export  []byte  // the exported metrics (observe jobs only)
}

// recorder sits below the cache as Cache.Next: it runs each miss on the
// engine (sim.RunContext, what a nil Next runs) and records the call, and
// when tracing it opens the sim span.
type recorder struct {
	tr    *tracer
	mu    sync.Mutex
	calls []simCall
}

func (r *recorder) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	id, ctx := r.tr.begin(ctx, "sim.run", "")
	t0 := time.Now()
	res, err := sim.RunContext(ctx, cfg, pt)
	dur := time.Since(t0)
	r.tr.end(id)
	if err == nil {
		r.mu.Lock()
		r.calls = append(r.calls, simCall{cfg: cfg, pt: pt, res: res, dur: dur})
		r.mu.Unlock()
	}
	return res, err
}

// cacheSpan times Cache.RunSim from above (traced passes only).
type cacheSpan struct {
	tr   *tracer
	next experiments.SimRunner
}

func (c *cacheSpan) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	id, ctx := c.tr.begin(ctx, "runner.cache", "")
	defer c.tr.end(id)
	return c.next.RunSim(ctx, cfg, pt)
}

// timePoints wraps e.RunPoint to record each point's host latency and,
// when tracing, its span.
func timePoints(e experiments.Experiment, tr *tracer, mu *sync.Mutex, durs *[]time.Duration) experiments.Experiment {
	inner := e.RunPoint
	id := e.ID
	e.RunPoint = func(ctx context.Context, cfg experiments.Config, p experiments.Point) (experiments.PointResult, error) {
		t0 := time.Now()
		sp, ctx := tr.begin(ctx, "experiments.point", fmt.Sprintf("%s/%d", id, p.Index))
		res, err := inner(ctx, cfg, p)
		tr.end(sp)
		d := time.Since(t0)
		mu.Lock()
		*durs = append(*durs, d)
		mu.Unlock()
		return res, err
	}
	return e
}

// run executes the job once. tmp is a private directory for the journal
// and the metrics export; tr is nil for untraced passes.
func (j *job) run(ctx context.Context, tmp string, tr *tracer) (*pass, error) {
	p := &pass{}
	cache := runner.NewCache()
	rec := &recorder{tr: tr}
	cache.Next = rec
	r := &runner.Runner{Parallel: workers, Cache: cache}
	cfg := j.cfg
	if tr != nil {
		cfg.Sim = &cacheSpan{tr: tr, next: cache}
	}
	var obs *runner.Observer
	if j.observe {
		obs = runner.NewObserver()
		r.Metrics = obs
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		jr, err := runner.OpenJournal(dir, false, io.Discard)
		if err != nil {
			return nil, err
		}
		defer jr.Close()
		cache.Journal = jr
	}
	var mu sync.Mutex
	var out bytes.Buffer

	start := time.Now()
	for i, e := range j.exps {
		e = timePoints(e, tr, &mu, &p.pointDur)
		sp, ectx := tr.begin(ctx, "runner.experiment", "")
		res, err := r.RunExperiment(ectx, e, cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		p.results = append(p.results, res)
		if j.render {
			sp, _ := tr.begin(ctx, "tablefmt.render", "")
			if i > 0 {
				fmt.Fprintln(&out)
			}
			res.Output.Render(&out)
			tr.end(sp)
		}
	}
	if obs != nil {
		sp, _ := tr.begin(ctx, "metrics.export", "")
		t0 := time.Now()
		obs.ObserveCache(cache.Stats())
		obs.ObserveJournal(cache.Journal.Stats())
		path := filepath.Join(tmp, "metrics.json")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		werr := obs.ExportFile(f, path)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("exporting metrics: %w", werr)
		}
		p.exportS = time.Since(t0).Seconds()
		tr.end(sp)
	}
	p.wall = time.Since(start)
	if obs != nil {
		p.series = len(obs.Snapshot(false))
		var err error
		if p.export, err = os.ReadFile(filepath.Join(tmp, "metrics.json")); err != nil {
			return nil, err
		}
	}

	p.text = out.Bytes()
	p.calls = rec.calls
	for _, c := range rec.calls {
		p.requests += int64(c.res.Requests)
	}
	p.cache = cache.Stats()
	if cache.Journal != nil {
		p.journal = cache.Journal.Stats()
	}
	return p, nil
}
