package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestRunList(t *testing.T) {
	out, _, code := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"T1", "F2", "F13", "X13"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-experiment", "T1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Cray C90") {
		t.Errorf("T1 output:\n%s", out)
	}
	if strings.Contains(out, "[T1 in") {
		t.Errorf("timing line printed without -timing:\n%s", out)
	}
}

func TestRunTimingFlag(t *testing.T) {
	out, errOut, code := runBench(t, "-quick", "-experiment", "T1", "-timing")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "[T1 in") {
		t.Errorf("-timing missing footer:\n%s", out)
	}
	for _, want := range []string{"run summary:", "cache:"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("-timing summary missing %q:\n%s", want, errOut)
		}
	}
}

// The timing footer must appear in every format; in CSV it is a comment so
// the stream stays machine-parseable.
func TestRunTimingInCSV(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-experiment", "T1", "-format", "csv", "-timing")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "# [T1 in") {
		t.Errorf("csv -timing missing commented footer:\n%s", out)
	}
}

func TestRunCSVFormat(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-experiment", "T1", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out, "machine,") {
		t.Errorf("csv output:\n%s", out)
	}
	if strings.Contains(out, "==") {
		t.Error("csv output contains table decoration")
	}
}

func TestRunPlotFormat(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-experiment", "F2", "-format", "plot", "-logx", "-logy")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "|") || !strings.Contains(out, "J90 sim") {
		t.Errorf("plot output:\n%s", out)
	}
}

// Usage and configuration errors are hard failures: exit code 1.
func TestRunErrors(t *testing.T) {
	if _, errOut, code := runBench(t, "-experiment", "NOPE"); code != 1 || !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("unknown experiment: code=%d err=%q", code, errOut)
	}
	if _, errOut, code := runBench(t, "-format", "xml"); code != 1 || !strings.Contains(errOut, "unknown format") {
		t.Errorf("unknown format: code=%d err=%q", code, errOut)
	}
	if _, _, code := runBench(t, "-badflag"); code != 1 {
		t.Errorf("bad flag accepted: code=%d", code)
	}
	if _, errOut, code := runBench(t, "-resume"); code != 1 || !strings.Contains(errOut, "-resume requires -checkpoint") {
		t.Errorf("-resume without -checkpoint: code=%d err=%q", code, errOut)
	}
	if _, errOut, code := runBench(t, "-chaos", "rate=bogus"); code != 1 || !strings.Contains(errOut, "faults:") {
		t.Errorf("bad chaos spec: code=%d err=%q", code, errOut)
	}
	if _, _, code := runBench(t, "-quick", "-experiment", "T1", "-checkpoint", t.TempDir(), "-nocache"); code != 1 {
		t.Errorf("-checkpoint with -nocache accepted: code=%d", code)
	}
}

func TestRunSeedAndN(t *testing.T) {
	a, _, _ := runBench(t, "-quick", "-experiment", "F3", "-seed", "5", "-n", "2048")
	b, _, _ := runBench(t, "-quick", "-experiment", "F3", "-seed", "5", "-n", "2048")
	if a != b {
		t.Error("same seed produced different output")
	}
}

// The determinism guarantee, end to end: the full quick suite minus T3
// (whose measured column is wall-clock) must be byte-identical across
// worker counts and with the cache disabled.
func TestRunParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite")
	}
	ids := []string{"T2", "F2", "F5", "F6", "F7", "F10", "X2", "X13"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			base, _, code := runBench(t, "-quick", "-experiment", id, "-parallel", "1")
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			for _, extra := range [][]string{
				{"-parallel", "8"},
				{"-parallel", "3"},
				{"-parallel", "8", "-nocache"},
			} {
				args := append([]string{"-quick", "-experiment", id}, extra...)
				out, _, code := runBench(t, args...)
				if code != 0 {
					t.Fatalf("%v: exit %d", extra, code)
				}
				if out != base {
					t.Errorf("%v output differs from -parallel 1", extra)
				}
			}
		})
	}
}

func TestRunEventsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.json")
	_, _, code := runBench(t, "-quick", "-experiment", "T1", "-events", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment_start"`, `"point_done"`, `"experiment_done"`, `"run_done"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("event log missing %s:\n%s", want, data)
		}
	}
}

func TestRunProgress(t *testing.T) {
	_, errOut, code := runBench(t, "-quick", "-experiment", "F2", "-progress")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errOut, "[F2]") {
		t.Errorf("progress output missing:\n%s", errOut)
	}
}

// The exit-code contract, all three codes: 0 for a clean run, 1 for a
// hard failure, 2 for a run that completed but with failed points.
func TestExitCodeContract(t *testing.T) {
	if _, _, code := runBench(t, "-quick", "-experiment", "T1"); code != 0 {
		t.Errorf("clean run: code=%d, want 0", code)
	}
	if _, _, code := runBench(t, "-experiment", "NOPE"); code != 1 {
		t.Errorf("hard failure: code=%d, want 1", code)
	}
	out, errOut, code := runBench(t, "-quick", "-experiment", "T2", "-chaos", "panic=1,seed=3")
	if code != 2 {
		t.Errorf("degraded run: code=%d, want 2\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "completed degraded") {
		t.Errorf("degraded run missing stderr summary:\n%s", errOut)
	}
	if !strings.Contains(out, "FAILED [") || !strings.Contains(out, "injected panic fault") {
		t.Errorf("degraded output missing footnoted FAILED cells:\n%s", out)
	}
}

// A panicking point must never terminate the process: the rest of the
// suite still renders and the failure is confined to footnoted cells.
func TestPanicIsolated(t *testing.T) {
	// seed=5 with a 20% panic rate fails some points of F2 but not all.
	out, _, code := runBench(t, "-quick", "-experiment", "F2", "-chaos", "panic=0.2,seed=5")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(out, "FAILED [") {
		t.Fatalf("no footnoted failures:\n%s", out)
	}
	if !strings.Contains(out, "== F2") {
		t.Errorf("table not rendered:\n%s", out)
	}
}

// Transient chaos must not change the output: with retries enabled and
// each simulation faulting at most once, a chaos run renders byte-for-byte
// what the fault-free run renders, for any worker count.
func TestChaosTransientDeterministic(t *testing.T) {
	base, _, code := runBench(t, "-quick", "-experiment", "F2", "-parallel", "1")
	if code != 0 {
		t.Fatalf("baseline exit %d", code)
	}
	spec := "error=0.2,cancel=0.1,delay=0.1,seed=7"
	for _, workers := range []string{"1", "4", "8"} {
		out, errOut, code := runBench(t, "-quick", "-experiment", "F2", "-parallel", workers, "-chaos", spec)
		if code != 0 {
			t.Fatalf("parallel=%s: exit %d\nstderr:\n%s", workers, code, errOut)
		}
		if out != base {
			t.Errorf("parallel=%s: chaos output differs from fault-free baseline", workers)
		}
	}
}

// Checkpoint/resume: a resumed run must render byte-identical output
// while re-executing zero journaled simulations (run_done shows no cache
// misses, only checkpoint restores).
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ev1 := filepath.Join(t.TempDir(), "ev1.json")
	ev2 := filepath.Join(t.TempDir(), "ev2.json")

	out1, _, code := runBench(t, "-quick", "-experiment", "T2", "-checkpoint", dir, "-events", ev1)
	if code != 0 {
		t.Fatalf("first run exit %d", code)
	}
	out2, _, code := runBench(t, "-quick", "-experiment", "T2", "-checkpoint", dir, "-resume", "-events", ev2)
	if code != 0 {
		t.Fatalf("resumed run exit %d", code)
	}
	if out2 != out1 {
		t.Errorf("resumed output differs:\n--- first ---\n%s\n--- resumed ---\n%s", out1, out2)
	}

	events, err := os.ReadFile(ev2)
	if err != nil {
		t.Fatal(err)
	}
	runDone := ""
	for _, line := range strings.Split(string(events), "\n") {
		if strings.Contains(line, `"run_done"`) {
			runDone = line
		}
	}
	if runDone == "" {
		t.Fatalf("no run_done event:\n%s", events)
	}
	if strings.Contains(runDone, `"cache_misses"`) {
		t.Errorf("resumed run re-executed simulations: %s", runDone)
	}
	if !strings.Contains(runDone, `"checkpoint_restored"`) {
		t.Errorf("resumed run restored nothing: %s", runDone)
	}
	if !strings.Contains(string(events), `"checkpoint_loaded"`) {
		t.Errorf("no checkpoint_loaded event:\n%s", events)
	}
}

// A journal truncated by a crash mid-write must resume: the torn record
// is recomputed, the rest restored, and the output unchanged.
func TestCheckpointResumeTruncated(t *testing.T) {
	dir := t.TempDir()
	out1, _, code := runBench(t, "-quick", "-experiment", "T2", "-checkpoint", dir)
	if code != 0 {
		t.Fatalf("first run exit %d", code)
	}
	path := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	out2, errOut, code := runBench(t, "-quick", "-experiment", "T2", "-checkpoint", dir, "-resume")
	if code != 0 {
		t.Fatalf("resumed run exit %d", code)
	}
	if out2 != out1 {
		t.Error("resume from truncated journal changed the output")
	}
	if !strings.Contains(errOut, "checkpoint: skipping") {
		t.Errorf("torn record not reported:\n%s", errOut)
	}
}

// TestSurrogateDeterministic pins the byte-determinism contract under
// surrogate routing: -surrogate always must produce identical output
// (tables and metrics) for every worker count, exactly like plain runs.
func TestSurrogateDeterministic(t *testing.T) {
	mfile := filepath.Join(t.TempDir(), "m.om")
	out1, _, code := runBench(t, "-quick", "-experiment", "F14", "-surrogate", "always",
		"-parallel", "1", "-metrics-out", mfile)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	m1, err := os.ReadFile(mfile)
	if err != nil {
		t.Fatal(err)
	}
	out8, _, code := runBench(t, "-quick", "-experiment", "F14", "-surrogate", "always",
		"-parallel", "8", "-metrics-out", mfile)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	m8, err := os.ReadFile(mfile)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out8 {
		t.Errorf("-surrogate always output differs across -parallel 1/8:\n%s\n---\n%s", out1, out8)
	}
	if string(m1) != string(m8) {
		t.Errorf("-surrogate always metrics differ across -parallel 1/8:\n%s\n---\n%s", m1, m8)
	}
	if !regexp.MustCompile(`[0-9]\*`).MatchString(out1) {
		t.Errorf("no surrogate-tagged cells under -surrogate always:\n%s", out1)
	}
	if !strings.Contains(string(m1), "dxbsp_surrogate_points") {
		t.Errorf("metrics export missing surrogate series:\n%s", m1)
	}
}

// TestSurrogateModes: never must leave output untouched (no tags, no
// surrogate series), and a bad mode is a usage error.
func TestSurrogateModes(t *testing.T) {
	out, _, code := runBench(t, "-quick", "-experiment", "F14", "-surrogate", "never")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if regexp.MustCompile(`[0-9]\*`).MatchString(out) {
		t.Errorf("surrogate tags under -surrogate never:\n%s", out)
	}
	if _, errOut, code := runBench(t, "-surrogate", "sometimes"); code != exitHard ||
		!strings.Contains(errOut, "surrogate mode") {
		t.Errorf("bad mode: exit %d, stderr %q", code, errOut)
	}
}

// TestListIncludesHuge: the huge-grid registry is discoverable.
func TestListIncludesHuge(t *testing.T) {
	out, _, code := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "F14") || !strings.Contains(out, "-surrogate auto") {
		t.Errorf("list missing huge experiments:\n%s", out)
	}
}
