// Degraded-mode tests: transient wal.FS faults ride through the bounded
// retry budget, permanent faults still fail-stop, and torn writes never
// corrupt what was acked. External test package: the chaos harness
// imports wal for the FS seam, so these tests cannot live in package
// wal without a cycle.
package wal_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"factorwindows/internal/chaos"
	"factorwindows/internal/wal"
)

func openChaosLog(t *testing.T, dir string, inj *chaos.Injector, attempts int) *wal.Log {
	t.Helper()
	log, err := wal.Open(wal.Options{
		Dir:           dir,
		Fsync:         wal.FsyncEvery,
		FS:            chaos.WrapFS(nil, inj),
		RetryAttempts: attempts,
		RetryBackoff:  50 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return log
}

func TestTransientWriteFaultRidesThrough(t *testing.T) {
	inj := chaos.NewInjector(1, chaos.Spec{})
	log := openChaosLog(t, t.TempDir(), inj, 3)
	defer log.Close(false)

	inj.ForceFail("write", 2)
	c, err := log.AppendControl([]byte("payload"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	durable, err := c.Wait()
	if err != nil {
		t.Fatalf("commit failed despite retry budget: %v", err)
	}
	if !durable {
		t.Fatal("FsyncEvery commit not durable")
	}
	if got := log.Stats().Retries; got != 2 {
		t.Fatalf("Stats().Retries = %d, want 2", got)
	}
	if err := log.Err(); err != nil {
		t.Fatalf("log fail-stopped on a transient fault: %v", err)
	}
}

func TestTransientSyncFaultRidesThrough(t *testing.T) {
	inj := chaos.NewInjector(2, chaos.Spec{})
	log := openChaosLog(t, t.TempDir(), inj, 2)
	defer log.Close(false)

	inj.ForceFail("sync", 1)
	c, err := log.AppendControl([]byte("payload"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatalf("commit failed despite retry budget: %v", err)
	}
	if got := log.Stats().Retries; got != 1 {
		t.Fatalf("Stats().Retries = %d, want 1", got)
	}
}

// TestRetryBudgetExhaustionFailStops also pins the order of the
// fail-stop: the sticky error is set before any ticket is failed, so
// Err() reports it the moment a waiter sees its commit fail. Many runs
// give the committer every chance to ack first.
func TestRetryBudgetExhaustionFailStops(t *testing.T) {
	for i := 0; i < 200; i++ {
		inj := chaos.NewInjector(3, chaos.Spec{})
		log := openChaosLog(t, t.TempDir(), inj, 2)

		inj.ForceFail("write", 10)
		c, err := log.AppendControl([]byte("payload"))
		if err != nil {
			t.Fatalf("run %d: append: %v", i, err)
		}
		if _, err := c.Wait(); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("run %d: commit err = %v, want the injected fault", i, err)
		}
		if err := log.Err(); err == nil {
			t.Fatalf("run %d: commit failed but Err() is nil", i)
		}
		// The fail-stop gate is sticky: later appends are rejected outright.
		if _, err := log.AppendControl([]byte("after")); err == nil {
			t.Fatalf("run %d: append accepted after fail-stop", i)
		}
		log.Close(false)
	}
}

func TestZeroAttemptsPreservesFailFast(t *testing.T) {
	inj := chaos.NewInjector(4, chaos.Spec{})
	log := openChaosLog(t, t.TempDir(), inj, 0)
	defer log.Close(false)

	inj.ForceFail("write", 1)
	c, err := log.AppendControl([]byte("payload"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := c.Wait(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("commit err = %v, want immediate injected failure", err)
	}
	if got := log.Stats().Retries; got != 0 {
		t.Fatalf("Stats().Retries = %d with a zero budget, want 0", got)
	}
}

// TestTornWritesNeverCorruptAckedRecords is the crash-consistency
// property under random torn writes: run a log under probabilistic
// write/sync faults (partial writes included) with a retry budget,
// then reopen the directory with a clean filesystem. Recovery must
// verify, and every record that was acked durable must replay, in
// offset order, with its exact payload. Seeds are committed; the same
// seed always replays the same fault schedule.
func TestTornWritesNeverCorruptAckedRecords(t *testing.T) {
	for _, seed := range []int64{5, 21, 1234, 987654321} {
		inj := chaos.NewInjector(seed, chaos.Spec{
			FailProb:    0.25,
			PartialProb: 0.7,
			Ops:         map[string]bool{"write": true, "sync": true},
		})
		dir := t.TempDir()
		log, err := wal.Open(wal.Options{
			Dir:           dir,
			Fsync:         wal.FsyncEvery,
			SegmentBytes:  256, // force rotations mid-chaos
			FS:            chaos.WrapFS(nil, inj),
			RetryAttempts: 12,
			RetryBackoff:  20 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}

		var acked [][]byte
		for i := 0; i < 60; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, 8+i)
			c, err := log.AppendControl(payload)
			if err != nil {
				break // fail-stopped: everything acked so far must survive
			}
			durable, err := c.Wait()
			if err != nil {
				break
			}
			if !durable {
				t.Fatalf("seed %d: FsyncEvery ack not durable", seed)
			}
			acked = append(acked, payload)
		}
		log.Close(false) // may fail under injection; recovery is the check

		clean, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatalf("seed %d: recovery open failed: %v", seed, err)
		}
		var got [][]byte
		err = clean.Replay(0, func(r wal.Record) error {
			if int64(len(got)) != r.Offset {
				t.Fatalf("seed %d: replay offset %d at position %d", seed, r.Offset, len(got))
			}
			got = append(got, append([]byte(nil), r.Frame.Control()...))
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		clean.Close(false)
		if len(got) < len(acked) {
			t.Fatalf("seed %d: %d acked records, only %d replayed", seed, len(acked), len(got))
		}
		for i, want := range acked {
			if !bytes.Equal(got[i], want) {
				t.Fatalf("seed %d: record %d payload mismatch", seed, i)
			}
		}
		if inj.Injected("") == 0 {
			t.Fatalf("seed %d: schedule injected no faults; property vacuous", seed)
		}
	}
}

func TestStagedPeakReported(t *testing.T) {
	log, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer log.Close(false)
	c, err := log.AppendControl(bytes.Repeat([]byte{1}, 100))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := log.Stats().StagedPeak; got < 100 {
		t.Fatalf("Stats().StagedPeak = %d, want >= 100", got)
	}
}
