package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the sweep helper process: re-exec'ing the test
// binary with DXBENCH_HELPER=1 turns it into dxbench, which lets the
// kill -9 tests SIGKILL a real worker process (a chaos kill=N worker
// SIGKILLs itself; an in-process run() would take the test down with it).
func TestMain(m *testing.M) {
	if os.Getenv("DXBENCH_HELPER") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// helperCmd builds a real dxbench process from the test binary.
func helperCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DXBENCH_HELPER=1")
	return cmd
}

// Satellite: misconfigured sweeps fail loudly with exit 1, never run zero
// points and report success.
func TestSweepUsageErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-quick", "-checkpoint", dir, "-shard", "0/0"},
		{"-quick", "-checkpoint", dir, "-shard", "4/4"},
		{"-quick", "-checkpoint", dir, "-shard", "-1/4"},
		{"-quick", "-checkpoint", dir, "-shard", "nonsense"},
		{"-quick", "-shard", "0/4"},                                    // requires -checkpoint
		{"-quick", "-coordinate"},                                      // requires -checkpoint
		{"-quick", "-worker"},                                          // requires -checkpoint
		{"-quick", "-checkpoint", dir, "-shard", "0/4", "-merge", dir}, // exclusive
		{"-quick", "-checkpoint", dir, "-coordinate", "-worker"},       // exclusive
		{"-quick", "-checkpoint", dir, "-coordinate", "-resume"},       // resume is automatic
		{"-quick", "-checkpoint", dir, "-shard", "0/4", "-metrics"},    // metrics need full run
		{"-merge", filepath.Join(dir, "empty")},                        // nothing to merge
	}
	for _, args := range cases {
		if _, errOut, code := runBench(t, args...); code != exitHard {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", args, code, exitHard, errOut)
		}
	}
}

// Resuming a shard journal under a different shard spec or sweep
// configuration is a hard error, not a silent zero-point success.
func TestShardResumeMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", "0/4"); code != exitOK {
		t.Fatalf("shard run exit %d: %s", code, errOut)
	}
	// Same shard file cannot be resumed under different sweep flags (the
	// fingerprint covers scale, seed and the experiment set).
	if _, errOut, code := runBench(t, "-quick", "-experiment", "F7", "-checkpoint", dir, "-shard", "0/4", "-resume"); code != exitHard {
		t.Errorf("mismatched resume: exit %d, want %d\nstderr: %s", code, exitHard, errOut)
	} else if !strings.Contains(errOut, "journal header mismatch") {
		t.Errorf("mismatched resume stderr:\n%s", errOut)
	}
	// The matching spec resumes cleanly and re-executes nothing.
	_, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", "0/4", "-resume")
	if code != exitOK {
		t.Fatalf("matching resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, " 0 sim(s) journaled") {
		t.Errorf("resumed shard re-executed simulations:\n%s", errOut)
	}
}

// lastEvent returns the last event line of the given type from a
// JSON-lines event log.
func lastEvent(t *testing.T, path, typ string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := ""
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"`+typ+`"`) {
			found = line
		}
	}
	if found == "" {
		t.Fatalf("no %s event in %s:\n%s", typ, path, data)
	}
	return found
}

// Phase 1 differential proof: a 4-way static shard of the expansion study,
// merged and resumed, renders byte-identical output to the single-process
// run while re-executing zero simulations.
func TestShardMergeResumeByteIdentical(t *testing.T) {
	single, _, code := runBench(t, "-quick", "-experiment", "F6")
	if code != exitOK {
		t.Fatalf("single-process exit %d", code)
	}

	t.Run("unbatched", func(t *testing.T) {
		dir := t.TempDir()
		for i := 0; i < 4; i++ {
			if _, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", fmt.Sprintf("%d/4", i)); code != exitOK {
				t.Fatalf("shard %d exit %d: %s", i, code, errOut)
			}
		}
		mergeOut, _, code := runBench(t, "-merge", dir)
		if code != exitOK {
			t.Fatalf("merge exit %d", code)
		}
		if !strings.Contains(mergeOut, "from 4 journal(s)") {
			t.Errorf("merge summary:\n%s", mergeOut)
		}

		ev := filepath.Join(t.TempDir(), "ev.json")
		merged, _, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-resume", "-events", ev)
		if code != exitOK {
			t.Fatalf("resume exit %d", code)
		}
		if merged != single {
			t.Errorf("merged output differs from single-process:\n--- single ---\n%s\n--- merged ---\n%s", single, merged)
		}
		runDone := lastEvent(t, ev, "run_done")
		if strings.Contains(runDone, `"cache_misses"`) {
			t.Errorf("resume from merged journal re-executed simulations: %s", runDone)
		}
		if !strings.Contains(runDone, `"checkpoint_restored"`) {
			t.Errorf("resume restored nothing: %s", runDone)
		}
	})
}

// The tentpole's acceptance proof, phase 2: a dynamic sweep whose worker
// fleet includes one that a chaos fault SIGKILLs mid-run. The coordinator
// must reclaim the dead worker's lease, the surviving worker must finish
// its ranges, and the rendered output must be byte-identical to the
// single-process run with zero re-executed journaled sims.
func TestDynamicSweepSurvivesKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep")
	}
	single, _, code := runBench(t, "-quick", "-experiment", "F6")
	if code != exitOK {
		t.Fatalf("single-process exit %d", code)
	}

	dir := t.TempDir()
	ev := filepath.Join(t.TempDir(), "ev.json")
	coord := helperCmd(t, "-quick", "-experiment", "F6", "-checkpoint", dir,
		"-coordinate", "-lease-ttl", "500ms", "-events", ev)
	var coordOut, coordErr strings.Builder
	coord.Stdout, coord.Stderr = &coordOut, &coordErr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.Wait() }()
	defer coord.Process.Kill()

	// The victim claims the first range and SIGKILLs itself on its first
	// journal append, leaving an un-renewed lease and a 1-record journal.
	victim := helperCmd(t, "-quick", "-experiment", "F6", "-checkpoint", dir,
		"-worker", "-worker-id", "victim", "-lease-ttl", "500ms", "-chaos", "kill=1")
	var victimErr strings.Builder
	victim.Stderr = &victimErr
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	err := victim.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("victim was not killed: err=%v stderr=%s", err, victimErr.String())
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("victim died of %v, want SIGKILL", ee)
	}

	// A steady worker (run in-process; it is not killed) completes the
	// sweep: everything except the victim's leased range immediately, that
	// range once the coordinator reclaims the lease.
	_, steadyStderr, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir,
		"-worker", "-worker-id", "steady", "-lease-ttl", "500ms")
	if code != exitOK {
		t.Fatalf("steady worker exit %d:\n%s", code, steadyStderr)
	}

	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator: %v\nstderr: %s", err, coordErr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("coordinator did not finish\nstderr so far: %s", coordErr.String())
	}

	if got := coordOut.String(); got != single {
		t.Errorf("coordinator output differs from single-process:\n--- single ---\n%s\n--- sweep ---\n%s", single, got)
	}
	if !strings.Contains(coordErr.String(), "reclaimed expired lease") {
		t.Errorf("no lease reclaim reported:\nsteady: %s\ncoordinator: %s", steadyStderr, coordErr.String())
	}
	if !strings.Contains(lastEvent(t, ev, "lease_reclaimed"), `"range"`) {
		t.Error("lease_reclaimed event missing range")
	}
	runDone := lastEvent(t, ev, "run_done")
	if strings.Contains(runDone, `"cache_misses"`) {
		t.Errorf("final render re-executed journaled sims: %s", runDone)
	}
	if !strings.Contains(runDone, `"checkpoint_restored"`) {
		t.Errorf("final render restored nothing: %s", runDone)
	}
}

// A worker with a mismatched configuration must refuse the manifest.
func TestWorkerConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	// Publish a manifest by letting a coordinator run against an already-
	// complete sweep: shard 0/1 journals everything, merge, coordinate.
	if _, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", "0/1"); code != exitOK {
		t.Fatalf("seed run exit %d: %s", code, errOut)
	}
	if _, _, code := runBench(t, "-merge", dir); code != exitOK {
		t.Fatalf("merge exit %d", code)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The sweep has no done markers yet, so this coordinator publishes
		// the manifest and waits; the matching worker below finishes it
		// instantly from the merged journal.
		runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-coordinate", "-lease-ttl", "1s", "-timeout", "60s")
	}()
	// Wait for the manifest, then present a worker with different flags.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("manifest never appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, errOut, code := runBench(t, "-quick", "-experiment", "F7", "-checkpoint", dir, "-worker", "-worker-id", "wrong")
	if code != exitHard || !strings.Contains(errOut, "does not match the manifest") {
		t.Errorf("mismatched worker: exit %d\nstderr: %s", code, errOut)
	}
	// A correctly configured worker drains the sweep (every sim restores
	// from its journal once ranges are claimed) and the coordinator exits.
	if _, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-worker", "-worker-id", "right"); code != exitOK {
		t.Fatalf("matching worker exit %d: %s", code, errOut)
	}
	<-done
}
