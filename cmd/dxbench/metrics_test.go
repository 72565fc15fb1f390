package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// The tentpole contract at the CLI surface: everything -metrics prints is
// a pure function of the set of distinct simulations, so the whole stdout
// stream (tables + heatmap + series + summary footer) is byte-identical
// for any worker count, with and without the cache.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	for _, id := range []string{"T2", "F14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			base, _, code := runBench(t, "-quick", "-experiment", id, "-metrics", "-parallel", "1")
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			for _, extra := range [][]string{
				{"-parallel", "4"},
				{"-parallel", "8"},
				{"-parallel", "4", "-nocache"},
			} {
				args := append([]string{"-quick", "-experiment", id, "-metrics"}, extra...)
				out, _, code := runBench(t, args...)
				if code != 0 {
					t.Fatalf("%v: exit %d", extra, code)
				}
				if out != base {
					t.Errorf("%v: -metrics output differs from -parallel 1", extra)
				}
			}
		})
	}
}

// Transient chaos must be invisible in the metric export: faulted
// attempts never commit (no RunDone), retries re-execute idempotently,
// so a chaos run that completes cleanly exports the fault-free bytes.
func TestMetricsDeterministicUnderChaos(t *testing.T) {
	clean, _, code := runBench(t, "-quick", "-experiment", "T2", "-metrics", "-parallel", "2")
	if code != 0 {
		t.Fatalf("clean exit %d", code)
	}
	out, errOut, code := runBench(t, "-quick", "-experiment", "T2", "-metrics", "-parallel", "2",
		"-chaos", "error=0.1,seed=11", "-retries", "6")
	if code != 0 {
		t.Fatalf("chaos run exit %d\nstderr:\n%s", code, errOut)
	}
	if out != clean {
		t.Error("-metrics output differs under transient chaos")
	}
}

func TestMetricsReportContents(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-experiment", "T2", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"== bank occupancy",
		"relative bank position",
		"dxbsp_sim_runs_total",
		"dxbsp_sim_cycles_bucket",
		"# EOF",
		"sim cycles/run: n=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics report missing %q:\n%s", want, out)
		}
	}
	// Wall-clock series are volatile and must stay out of the
	// deterministic report.
	for _, ban := range []string{"dxbsp_runner_", "dxbsp_cache_", "dxbsp_checkpoint_"} {
		if strings.Contains(out, ban) {
			t.Errorf("volatile series %s* leaked into the deterministic report", ban)
		}
	}
}

// -timing with -metrics adds the volatile point-latency summary to the
// stderr run summary; stdout stays the deterministic stream.
func TestMetricsTimingLatencySummary(t *testing.T) {
	_, errOut, code := runBench(t, "-quick", "-experiment", "T1", "-metrics", "-timing")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errOut, "point seconds: n=") {
		t.Errorf("-timing missing point latency summary:\n%s", errOut)
	}
}

// Golden files pin the two export formats byte-for-byte. Regenerate with
//
//	go test ./cmd/dxbench -run TestMetricsExportGolden -update
func TestMetricsExportGolden(t *testing.T) {
	for _, tc := range []struct{ name, golden string }{
		{"metrics.json", "metrics_T2.json"},
		{"metrics.om", "metrics_T2.om"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name)
			_, errOut, code := runBench(t, "-quick", "-experiment", "T2", "-metrics-out", path)
			if code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s", code, errOut)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s export differs from golden %s (run with -update to regenerate)\n--- got ---\n%s",
					tc.name, goldenPath, got)
			}
		})
	}
}

// The extension picks the format: .json is a JSON document, anything else
// is OpenMetrics text ending in the mandatory terminator.
func TestMetricsOutFormats(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "m.json")
	omPath := filepath.Join(dir, "m.txt")
	if _, _, code := runBench(t, "-quick", "-experiment", "T1", "-metrics-out", jsonPath); code != 0 {
		t.Fatalf("json export exit %d", code)
	}
	if _, _, code := runBench(t, "-quick", "-experiment", "T1", "-metrics-out", omPath); code != 0 {
		t.Fatalf("om export exit %d", code)
	}
	j, _ := os.ReadFile(jsonPath)
	if !strings.HasPrefix(string(j), "{") || !strings.Contains(string(j), `"metrics"`) {
		t.Errorf("json export:\n%s", j)
	}
	om, _ := os.ReadFile(omPath)
	if !strings.HasPrefix(string(om), "# HELP") || !strings.HasSuffix(string(om), "# EOF\n") {
		t.Errorf("openmetrics export:\n%s", om)
	}
}

// The extension match is case-insensitive: m.JSON (a DOS-shouting user,
// or a file round-tripped through a case-normalizing filesystem) selects
// the JSON format, not the OpenMetrics fallback.
func TestMetricsOutExtensionCaseInsensitive(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"m.JSON", "m.Json"} {
		path := filepath.Join(dir, name)
		if _, _, code := runBench(t, "-quick", "-experiment", "T1", "-metrics-out", path); code != 0 {
			t.Fatalf("%s export exit %d", name, code)
		}
		j, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(j), "{") || !strings.Contains(string(j), `"metrics"`) {
			t.Errorf("%s fell through to OpenMetrics:\n%.200s", name, j)
		}
	}
}

func TestMetricsOutBadPath(t *testing.T) {
	_, errOut, code := runBench(t, "-quick", "-experiment", "T1",
		"-metrics-out", filepath.Join(t.TempDir(), "no", "such", "dir", "m.om"))
	if code != 1 {
		t.Errorf("unwritable -metrics-out: code=%d, want 1\nstderr:\n%s", code, errOut)
	}
}
