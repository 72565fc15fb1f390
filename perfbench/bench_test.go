package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"dxbsp/internal/experiments"
	"dxbsp/internal/sim"
	"dxbsp/internal/vector"
)

func TestGridDeterministicPerSeed(t *testing.T) {
	a, b := makeGrid(7, 1<<12, 40, 10), makeGrid(7, 1<<12, 40, 10)
	if len(a.reqs) != len(b.reqs) || len(a.pats) != len(b.pats) {
		t.Fatalf("shape differs: %d/%d requests, %d/%d patterns", len(a.reqs), len(b.reqs), len(a.pats), len(b.pats))
	}
	for i := range a.reqs {
		if a.reqs[i].cfg != b.reqs[i].cfg || a.reqs[i].label != b.reqs[i].label ||
			!slices.Equal(a.pats[a.reqs[i].pat].Flatten(), b.pats[b.reqs[i].pat].Flatten()) {
			t.Fatalf("request %d differs between two generations of seed 7", i)
		}
	}
	if !slices.Equal(a.pred, b.pred) {
		t.Fatal("predictions differ between two generations of seed 7")
	}
	c := makeGrid(8, 1<<12, 40, 10)
	same := true
	for i := range a.reqs {
		same = same && a.reqs[i].label == c.reqs[i].label
	}
	if same {
		t.Fatal("seeds 7 and 8 generated the same grid")
	}
}

// The grid must stay mostly kernel-eligible, with a stated ineligible
// minority, a windowed minority and about a fifth repeats, whatever the
// seed.
func TestGridBands(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		b, err := setupWorkload("sim_grid", seed, false)
		if err != nil {
			t.Fatal(err)
		}
		gr := b.(*gridBench).grid
		if e := eligibleShare(gr); e < 1-ineligibleTarget-0.02 || e > 1-ineligibleTarget+0.02 {
			t.Errorf("seed %d: kernel-eligible share %.3f outside %.2f ± 0.02", seed, e, 1-ineligibleTarget)
		}
		windowed := 0
		for _, ri := range gr.distinct {
			if gr.reqs[ri].cfg.Window > 0 {
				windowed++
			}
		}
		if w := float64(windowed) / float64(len(gr.distinct)); w < windowedTarget-0.01 || w > windowedTarget+0.01 {
			t.Errorf("seed %d: windowed share %.3f outside %.2f ± 0.01", seed, w, windowedTarget)
		}
		if r := repeatShare(gr); r < 0.15 || r > 0.25 {
			t.Errorf("seed %d: repeat share %.3f outside [0.15, 0.25]", seed, r)
		}
		kinds := map[string]int{}
		for _, ri := range gr.distinct {
			kinds[checkKind(gr.reqs[ri].cfg)]++
		}
		if kinds[checkKernel] == 0 || kinds[checkReference] == 0 || kinds[checkRerun] == 0 {
			t.Errorf("seed %d: second-engine kinds %v, want all three", seed, kinds)
		}
	}
}

// eligibleShare and repeatShare measure the generator's bands.
func eligibleShare(gr *grid) float64 {
	k := 0
	for _, ri := range gr.distinct {
		if sim.BatchEligible(gr.reqs[ri].cfg) {
			k++
		}
	}
	return float64(k) / float64(len(gr.distinct))
}

func repeatShare(gr *grid) float64 {
	return float64(len(gr.reqs)-len(gr.distinct)) / float64(len(gr.reqs))
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricNamesValid(t *testing.T) {
	bf := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q invalid or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q invalid", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	var names []string
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
}

// TestSmoke runs every workload at reduced scale, untraced and traced: no
// point may fail its check, and the reported metrics must be exactly the
// ones BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := func(traced bool) map[string]string {
		m := map[string]string{}
		if traced {
			for _, x := range bf.PerLayer {
				m[x.Name] = x.Unit
			}
		} else {
			for _, x := range bf.EndToEnd {
				m[x.Name] = x.Unit
			}
		}
		return m
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			tmp := t.TempDir()
			rep, err := measure(context.Background(), name, 5, 0.2, traced, true, tmp, &bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d points failed", name, traced, rep.Failed, rep.Attempted)
			}
			w := want(traced)
			if len(rep.Metrics) != len(w) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.Metrics), len(w))
			}
			for n, m := range rep.Metrics {
				if w[n] != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) not declared with that unit", name, traced, n, m.Unit)
				}
			}
			if !traced {
				for _, n := range []string{"wall_s", "setup_s", "points_per_s", "sim_requests_per_s"} {
					if rep.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, n, rep.Metrics[n].Value)
					}
				}
				continue
			}
			if v := rep.Metrics["model_relerr_p50"].Value; v <= 0 {
				t.Errorf("%s: model_relerr_p50 = %v, want > 0", name, v)
			}
			spans := readSpans(t, filepath.Join(tmp, "spans-"+name+".jsonl"))
			if len(spans) == 0 {
				t.Errorf("%s: no spans written", name)
			}
			for i, s := range selfTimes(spans) {
				if s < 0 {
					t.Errorf("%s: span %d (%s) has self time %d ns", name, i, spans[i].Name, s)
				}
			}
		}
	}
}

// TestAlgoCheckCatchesWrongCharge changes one charged superstep of each
// instance family and expects the check to fail: the algo_analytic check
// covers the cost the workload times, not only the answers.
func TestAlgoCheckCatchesWrongCharge(t *testing.T) {
	ctx := context.Background()
	seen := map[string]bool{}
	for _, a := range makeAlgos(3, 1<<12, true) {
		if seen[a.family] {
			continue
		}
		seen[a.family] = true
		out, err := runAlgo(ctx, a, nil, vector.Analytic, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := a.correct(ctx, out); err != nil || !ok {
			t.Fatalf("%s: correct output rejected (err %v)", a.label, err)
		}
		if len(out.charged) == 0 {
			t.Fatalf("%s: no charged supersteps recorded", a.label)
		}
		out.charged[len(out.charged)/2]++
		if ok, _ := a.correct(ctx, out); ok {
			t.Errorf("%s: a wrong charge passed the check", a.label)
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []span
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func TestSelfTimesUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0},  // overlaps a: concurrent workers
		{Name: "c", Start: 90, End: 120, Parent: 0}, // ends after the parent
		{Name: "leaf", Start: 20, End: 25, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 60 - 10, 40 - 5, 40, 30, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestMaskT3(t *testing.T) {
	in := "== T3: hash ==\nhash      measured ns/elem\n--------  ----------------\nidentity  3.462\nlinear    11.4\n\n== F1: x ==\na  1.5\n"
	want := "== T3: hash ==\nhash      measured ns/elem\n--------  ----------------\nidentity  *\nlinear    *\n\n== F1: x ==\na  1.5\n"
	if got := string(maskT3([]byte(in))); got != want {
		t.Fatalf("maskT3:\n%s\nwant:\n%s", got, want)
	}
	if n := len(blockDigests([]byte(in))); n != 2 {
		t.Fatalf("%d blocks, want 2", n)
	}
}

// TestByteIdenticalToDxbench builds dxbench and compares its output with
// the benchmark's rendering at the default seed, T3's host-timed column
// masked. The goldens every paper_suite pass is checked against are
// recorded from dxbench, so this is also what a golden match proves.
func TestByteIdenticalToDxbench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dxbench")
	}
	bin := filepath.Join(t.TempDir(), "dxbench")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dxbench")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dxbench: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-quick", "-parallel", "2")
	var want bytes.Buffer
	cmd.Stdout = &want
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	s, err := newSuite(0, true)
	if err != nil {
		t.Fatal(err)
	}
	j := s.job(nil, 0)
	if j.cfg.Seed != experiments.QuickConfig().Seed {
		t.Fatalf("seed 0 runs suite seed %#x, want the default %#x", j.cfg.Seed, experiments.QuickConfig().Seed)
	}
	p, err := j.run(context.Background(), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := maskT3(p.text), maskT3(want.Bytes()); !bytes.Equal(got, w) {
		t.Fatalf("benchmark output differs from dxbench:\n%s", firstDiff(got, w))
	}
	if bad, _ := s.check(context.Background(), p, 0); bad != 0 {
		t.Fatalf("%d points differ from the recorded goldens", bad)
	}
}

func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  benchmark: %s\n  dxbench:   %s", i+1, la[i], lb[i])
		}
	}
	return "lengths differ"
}

func TestGoldensCoverEverySeed(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []string{"full", "quick"} {
		var keys []string
		for k, v := range g[scale] {
			keys = append(keys, k)
			if len(v) != len(experiments.All()) {
				t.Errorf("%s %s: %d digests for %d experiments", scale, k, len(v), len(experiments.All()))
			}
		}
		sort.Strings(keys)
		if len(keys) != len(suiteSeeds) {
			t.Errorf("%s: goldens for %d seeds, want %d", scale, len(keys), len(suiteSeeds))
		}
	}
}
