package scenarios_test

import (
	"path/filepath"
	"testing"

	"repro/internal/explore"
	"repro/internal/explore/scenarios"
)

// The committed traces under testdata/ pin schedules that once exposed
// real bugs (DESIGN.md findings #2 and #4). A strict replay re-executes
// the exact recorded interleaving; if a regression reintroduces either
// bug, the run wedges or diverges from the recording and this test fails.
//
// To regenerate after an intentional scheduling change:
//
//	go run ./cmd/explore record -scenario <name> -seed 42 -out <file>
//
// and read the new trace to check it still exercises what its comment
// below says (the kvtxn pins were recorded with -prob 0.03, which lets
// the victim get deep into its transaction before the first fault).
func TestRecordedTracesReplay(t *testing.T) {
	cases := []struct {
		file string
		want explore.Status
	}{
		{"msgqueue-remote-pred-finding2.trace", explore.StatusPass},
		{"msgqueue-fifo-finding4.trace", explore.StatusPass},
		// Supervisor: child killed mid-service, backoff driven by the
		// virtual clock, restarted incarnation serves, then the whole
		// supervisor custodian is shut down — no leaked threads.
		{"supervisor-restart-kill-backoff.trace", explore.StatusPass},
		// Breaker: permit holder killed mid-hold; the manager counts
		// the abandonment via DoneEvt and the retrying client crosses
		// the cooldown on the virtual clock and recovers the breaker.
		{"breaker-trip-holder-killed.trace", explore.StatusPass},
		// kvtxn locking (seed 11, -prob 0.03): the transfer owner is
		// killed inside Commit, holding its read locks and a write lock
		// and not yet handed off; the transaction manager's death watch
		// releases them, its custodian is shut down afterwards, the
		// survivor's transfer commits, and the audit shows no wedged
		// locks, parked waiters, or registry entries.
		{"txn-kill-midlock.trace", explore.StatusPass},
		// kvtxn OCC (seed 30, -prob 0.03): the owner is killed after its
		// commit hand-off, while both shards hold its prepare-marks, and
		// its custodian is shut down mid-install; the transaction
		// manager installs both shards anyway, prepare-marks are
		// reclaimed and the sum invariant holds.
		{"txn-kill-validate.trace", explore.StatusPass},
		// wire: a server killed between the batched flushes of a
		// pipelined response stream; the client sees a whole, in-order
		// frame prefix and never a torn byte.
		{"pipeline-kill-midwrite.trace", explore.StatusPass},
		// netsvc drain in miniature: the drain driver killed between
		// handoff steps while the escrow works a queue whose custodian
		// is already down; the reaper finishes the drain and every job
		// is served exactly once, in order.
		{"drain-kill-midhandoff.trace", explore.StatusPass},
		// Fleet-found, auto-shrunk wedge of the deliberately unsafe
		// queue (no custodian protocol): pinned by
		//
		//	go run ./cmd/explore run -scenario queue-unsafe -workers 4 \
		//	  -strategy coverage -findings 1 -pin .../testdata -expect stuck
		//
		// and expected to stay stuck — if a change accidentally makes the
		// unsafe queue survive this schedule, the explorer's canary is
		// broken.
		{"queue-unsafe-04d53c940648a612.trace", explore.StatusStuck},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			tr, err := explore.ReadTraceFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			sc, ok := scenarios.ByName(tr.Scenario)
			if !ok {
				t.Fatalf("trace names unknown scenario %q", tr.Scenario)
			}
			o := explore.Replay(sc, tr, explore.Options{})
			if o.Status != tc.want {
				t.Fatalf("replay: status %v (err=%v), want %v", o.Status, o.Err, tc.want)
			}
			if got := len(o.Trace.Actions); got != len(tr.Actions) {
				t.Fatalf("replay executed %d decisions, recording has %d", got, len(tr.Actions))
			}
		})
	}
}
