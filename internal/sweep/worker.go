package sweep

import (
	"context"
	"fmt"
	"time"

	"dxbsp/internal/runner"
)

// Worker claims manifest ranges from the shared directory and executes
// them until every range is done. The worker owns no state the sweep
// depends on: everything it produces lands in its own journal file before
// the range's done marker becomes visible, so killing a worker at any
// point loses at most the points of its in-flight range.
type Worker struct {
	// Dir is the shared coordination directory.
	Dir *Dir
	// Manifest is the sweep plan (already verified against this process's
	// configuration).
	Manifest Manifest
	// ID names this worker in leases, events, and its journal file name.
	ID string
	// Exec executes one claimed range: run its points and journal every
	// simulation durably (Journal.Sync) before returning. The CLI wires
	// this to a runner over the range-filtered experiment.
	Exec func(ctx context.Context, rg Range) error
	// Events, when non-nil, receives range_claimed / range_done /
	// worker_done events.
	Events *runner.EventLog
	// Poll is the wait between claim sweeps when nothing was claimable;
	// defaults to TTL/4.
	Poll time.Duration
	// StallHeartbeat is chaos: claim ranges but never renew the lease, so
	// the coordinator must reclaim them out from under a live process.
	StallHeartbeat bool

	// beforeClaim, when non-nil, runs between a range's done check and
	// its claim. Tests use it to force a peer's MarkDone and Release into
	// that window.
	beforeClaim func(Range)
}

// doneCheck is how often an idle worker looks for done markers on the
// ranges its peers hold, so it resumes as soon as the sweep can move on
// instead of sleeping out a whole poll.
const doneCheck = 20 * time.Millisecond

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return w.Dir.ttl() / 4
}

// Run executes ranges until the sweep completes, returning the number of
// ranges this worker finished. It returns early only on context
// cancellation or an execution error; "another worker holds everything"
// is a wait, not an error.
func (w *Worker) Run(ctx context.Context) (int, error) {
	completed := 0
	var held []string
	for {
		if err := ctx.Err(); err != nil {
			return completed, err
		}
		held = held[:0]
		claimedAny := false
		for _, rg := range w.Manifest.Ranges {
			if err := ctx.Err(); err != nil {
				return completed, err
			}
			if w.Dir.IsDone(rg.ID) {
				continue
			}
			if w.beforeClaim != nil {
				w.beforeClaim(rg)
			}
			ok, err := w.Dir.Claim(rg.ID, w.ID)
			if err != nil {
				return completed, err
			}
			if !ok {
				held = append(held, rg.ID)
				continue
			}
			// A peer may have run MarkDone and Release between the done
			// check and the claim, freeing the lease of a finished range.
			// The done marker is authoritative: give the lease back.
			if w.Dir.IsDone(rg.ID) {
				if err := w.Dir.Release(rg.ID); err != nil {
					return completed, err
				}
				continue
			}
			claimedAny = true
			w.Events.Emit(runner.Event{Type: "range_claimed", Worker: w.ID, Range: rg.ID, Experiment: rg.Experiment})
			if err := w.runRange(ctx, rg); err != nil {
				// Give the range back: the failure may be ours alone.
				_ = w.Dir.Release(rg.ID)
				return completed, fmt.Errorf("sweep: range %s: %w", rg.ID, err)
			}
			completed++
			w.Events.Emit(runner.Event{Type: "range_done", Worker: w.ID, Range: rg.ID, Experiment: rg.Experiment,
				Points: rg.End - rg.Start})
		}
		if len(held) == 0 {
			// Every range is done: it was on the check, or this sweep
			// finished or skipped it.
			w.Events.Emit(runner.Event{Type: "worker_done", Worker: w.ID, Ranges: completed})
			return completed, nil
		}
		if !claimedAny {
			if err := w.idle(ctx, held); err != nil {
				return completed, err
			}
		}
	}
}

// idle waits while every undone range is leased to a peer. It returns
// when one of those ranges gets its done marker, after one poll (a
// coordinator may have reclaimed a dead peer's lease meanwhile), or with
// ctx's error once ctx ends, so the wait never outlasts the context.
func (w *Worker) idle(ctx context.Context, held []string) error {
	wake := time.NewTimer(w.poll())
	defer wake.Stop()
	tick := time.NewTicker(min(doneCheck, w.poll()))
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake.C:
			return nil
		case <-tick.C:
			for _, id := range held {
				if w.Dir.IsDone(id) {
					return nil
				}
			}
		}
	}
}

// runRange executes one claimed range under a heartbeat that renews the
// lease at TTL/3 intervals, then publishes the done marker and releases
// the lease. Exec must have made the range's records durable before it
// returns; the marker is what tells the rest of the fleet "these points
// need no re-execution".
func (w *Worker) runRange(ctx context.Context, rg Range) error {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	if !w.StallHeartbeat {
		go func() {
			tick := time.NewTicker(w.Dir.ttl() / 3)
			defer tick.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-tick.C:
					if lost, err := w.Dir.Renew(rg.ID, w.ID); err != nil || lost {
						// Lost the lease (reclaimed and re-claimed): keep
						// executing — duplicate results are identical — but
						// stop touching the other worker's lease.
						return
					}
				}
			}
		}()
	}
	if err := w.Exec(ctx, rg); err != nil {
		return err
	}
	stopHB()
	if err := w.Dir.MarkDone(rg.ID, w.ID); err != nil {
		return err
	}
	return w.Dir.Release(rg.ID)
}
