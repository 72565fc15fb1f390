package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dxbsp/internal/core"
)

// A pattern big enough to guarantee several cancellation polls (the
// simulator checks every cancelCheckEvents dispatched events, and each
// request contributes multiple events).
func bigPattern() core.Pattern {
	return core.NewPattern(seqAddrs(4*cancelCheckEvents), 4)
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Machine: testMachine()}, bigPattern())
	if err == nil {
		t.Fatal("cancelled simulation succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// An expired deadline must surface as context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := RunContext(ctx, Config{Machine: testMachine()}, bigPattern())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// Cancellation polling must not perturb the simulation: an uncancelled
// RunContext and plain Run agree exactly.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := Config{Machine: testMachine(), Window: 8}
	pt := bigPattern()
	want, err := Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunContext = %+v, Run = %+v", got, want)
	}
}

// A small simulation may finish before the first poll; it must succeed
// even under a cancelled context only if it never reaches a poll — and
// either way must never return a partial result silently.
func TestRunContextSmallPattern(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := RunContext(ctx, Config{Machine: testMachine()}, core.NewPattern(seqAddrs(8), 4))
	if err == nil {
		want, werr := Run(Config{Machine: testMachine()}, core.NewPattern(seqAddrs(8), 4))
		if werr != nil {
			t.Fatal(werr)
		}
		if r != want {
			t.Errorf("uncancelled-completion result %+v differs from Run's %+v", r, want)
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// pollCtx reports cancellation from its (n+1)-th Err poll on, so a test
// can cancel a run at a chosen poll instead of racing a timer.
type pollCtx struct {
	context.Context
	n int
}

func (c *pollCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// A windowed run on the kernel detaches into the per-lane replay at its
// first window stall; cancelling after the entry check must interrupt
// the replay mid-flight and surface context.Canceled.
func TestRunContextCancelledInReplay(t *testing.T) {
	cfg := Config{Machine: core.Machine{Name: "w", Procs: 4, Banks: 16, D: 6, G: 1, L: 8}, Window: 1}
	if !BatchEligible(cfg) {
		t.Fatal("windowed FIFO config is not kernel-eligible")
	}
	pt := core.NewPattern(seqAddrs(8*batchPollRequests), 4)
	ctx := &pollCtx{Context: context.Background(), n: 1}
	_, err := RunContext(ctx, cfg, pt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "replay") {
		t.Errorf("error %q did not come from the replay's poll", err)
	}

	// With polls to spare the same run completes and matches the event
	// engine, so the cancellation above interrupted a run that would
	// otherwise have succeeded.
	got, err := RunContext(&pollCtx{Context: context.Background(), n: 1 << 30}, cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runEvent(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("kernel %+v != event engine %+v", got, want)
	}
}
