package blockdev_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// The driver's recovery policy is fixed: a CommandTimeout deadline, a
// quarantine of twice that, MaxRetries resubmissions starting at
// RetryBackoff. Fault delays below are scaled to it in virtual time.
const (
	timeout    = blockdev.CommandTimeout
	quarantine = 2 * blockdev.CommandTimeout
	slack      = sim.Millisecond // device latency and driver costs on top of the recovery timing
)

// faultBed is bed() with a fault plan injected at the device. Checks
// inside a simulated process report with t.Error and return: t.Fatal's
// Goexit would strand the run token and hang the test.
func faultBed(plan *fault.Plan) (*sim.Env, *blockdev.NVMeBlockDev, *device.MemStore, *sim.Thread) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	store := device.NewMemStore(512)
	dev := device.New(env, p, store)
	dev.InjectFaults(plan.Injector("device"))
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), cpu, 3, blockdev.DefaultCosts())
	return env, bdev, store, cpu.ThreadOn(0, "test")
}

// A dropped completion must trigger the deadline, and the bounded retry
// must succeed once the fault budget is exhausted.
func TestTimeoutRetrySucceeds(t *testing.T) {
	env, bdev, _, th := faultBed(fault.NewPlan(1).WithDrops(1, 2))
	runP(t, env, func(p *sim.Proc) {
		start := p.Now()
		st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 8, Data: make([]byte, 4096)})
		if !st.OK() {
			t.Errorf("write after retries: %v", st)
			return
		}
		// Two deadlines and two backoffs (1x, 2x) before the third attempt,
		// each deadline firing on time even while a quarantine is pending.
		lo := 2*timeout + 3*blockdev.RetryBackoff
		if el := p.Now().Sub(start); el < lo || el > lo+slack {
			t.Errorf("write finished after %v, want %v..%v", el, lo, lo+slack)
			return
		}
	})
	if bdev.Timeouts != 2 || bdev.Retries != 2 {
		t.Fatalf("timeouts=%d retries=%d, want 2/2", bdev.Timeouts, bdev.Retries)
	}
	if bdev.Aborts != 0 || bdev.Completed != 1 {
		t.Fatalf("aborts=%d completed=%d", bdev.Aborts, bdev.Completed)
	}
}

// With every completion dropped, the bio must fail with AbortRequested
// after MaxRetries resubmissions — never hang.
func TestTimeoutExhaustsRetries(t *testing.T) {
	env, bdev, _, th := faultBed(fault.NewPlan(1).WithDrops(1, 0))
	runP(t, env, func(p *sim.Proc) {
		start := p.Now()
		st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 8, Data: make([]byte, 4096)})
		if st != nvme.SCAbortRequested {
			t.Errorf("status %v, want AbortRequested", st)
			return
		}
		// MaxRetries+1 deadlines and the backoffs between them (1x, 2x, 4x).
		lo := (blockdev.MaxRetries+1)*timeout + 7*blockdev.RetryBackoff
		if el := p.Now().Sub(start); el < lo || el > lo+slack {
			t.Errorf("write aborted after %v, want %v..%v", el, lo, lo+slack)
			return
		}
		// Let every quarantine window run out.
		p.Sleep(2 * quarantine)
	})
	if bdev.Timeouts != blockdev.MaxRetries+1 || bdev.Retries != blockdev.MaxRetries || bdev.Aborts != 1 {
		t.Fatalf("timeouts=%d retries=%d aborts=%d, want %d/%d/1",
			bdev.Timeouts, bdev.Retries, bdev.Aborts, blockdev.MaxRetries+1, blockdev.MaxRetries)
	}
	if bdev.Reclaimed != blockdev.MaxRetries+1 {
		t.Fatalf("reclaimed=%d, want every lost tag (%d) back", bdev.Reclaimed, blockdev.MaxRetries+1)
	}
}

// A stuck completion arrives after the deadline: the retry completes the
// bio, and the late original is absorbed by the CID quarantine rather than
// being misattributed.
func TestStuckCompletionCountedStale(t *testing.T) {
	env, bdev, _, th := faultBed(fault.NewPlan(1).WithStuck(1, 1, timeout+quarantine/2))
	runP(t, env, func(p *sim.Proc) {
		st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 8, Data: make([]byte, 4096)})
		if !st.OK() {
			t.Errorf("read: %v", st)
			return
		}
		// Let the stuck original surface, and the quarantine run out.
		p.Sleep(2 * quarantine)
	})
	if bdev.Timeouts != 1 || bdev.Retries != 1 {
		t.Fatalf("timeouts=%d retries=%d, want 1/1", bdev.Timeouts, bdev.Retries)
	}
	if bdev.Stale != 1 || bdev.Reclaimed != 0 {
		t.Fatalf("stale=%d reclaimed=%d, want 1/0", bdev.Stale, bdev.Reclaimed)
	}
}

// A completion surfacing after its CID was quarantined AND reclaimed —
// with the tag already reissued to a new command — must be counted
// StaleReclaimed and dropped, never delivered to the tag's new occupant.
// The generation stamp carried in the command (and echoed in the
// completion) is what disambiguates the two uses of the tag.
func TestReclaimedTagNotMisattributed(t *testing.T) {
	// The write's first attempt is held past its deadline and its whole
	// quarantine: it times out at 100 ms, its retry completes, and its CID
	// is reclaimed at 300 ms — long before the held completion surfaces.
	const hold = 350 * sim.Millisecond
	env, bdev, store, th := faultBed(fault.NewPlan(1).WithStuck(1, 1, hold))
	onDisk := bytes.Repeat([]byte{0x5a}, 4096)
	store.WriteBlocks(64, onDisk)
	runP(t, env, func(p *sim.Proc) {
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 8, Data: make([]byte, 4096)}); !st.OK() {
			t.Errorf("stuck write: %v", st)
			return
		}
		// Reissue the reclaimed tag, timed so the read is in flight when the
		// held completion for the tag's previous occupant finally surfaces.
		p.Sleep(hold - p.Now().Sub(0) - 20*sim.Microsecond)
		got := make([]byte, 4096)
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 64, Data: got}); !st.OK() {
			t.Errorf("read on reused tag: %v", st)
			return
		}
		if !bytes.Equal(got, onDisk) {
			t.Error("read on the reused tag returned data that is not on disk")
			return
		}
		p.Sleep(quarantine)
	})
	if bdev.Timeouts != 1 || bdev.Retries != 1 || bdev.Reclaimed != 1 {
		t.Fatalf("timeouts=%d retries=%d reclaimed=%d, want 1/1/1", bdev.Timeouts, bdev.Retries, bdev.Reclaimed)
	}
	if bdev.StaleReclaimed != 1 {
		t.Fatalf("stale_reclaimed=%d, want 1: the held completion was not absorbed", bdev.StaleReclaimed)
	}
	if bdev.Stale != 0 {
		t.Fatalf("stale=%d: the held completion matched a live quarantine entry", bdev.Stale)
	}
	if bdev.Completed != 2 {
		t.Fatalf("completed=%d, want exactly the write and the read", bdev.Completed)
	}
}

// Media errors are final statuses, not lost completions: they propagate to
// the issuer without consuming the retry budget.
func TestMediaErrorPropagates(t *testing.T) {
	env, bdev, _, th := faultBed(fault.NewPlan(1).WithMediaErrors(1))
	runP(t, env, func(p *sim.Proc) {
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 0, Data: make([]byte, 4096)}); st != nvme.SCUnrecoveredRead {
			t.Errorf("read: %v", st)
			return
		}
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 0, Data: make([]byte, 4096)}); st != nvme.SCWriteFault {
			t.Errorf("write: %v", st)
			return
		}
	})
	if bdev.Timeouts != 0 || bdev.Retries != 0 {
		t.Fatalf("media errors consumed recovery: timeouts=%d retries=%d", bdev.Timeouts, bdev.Retries)
	}
}

// Deadlines cost one timer per device, not one event per command: 2000
// fault-free QD1 reads must leave the event queue near-empty throughout.
func TestDeadlinesKeepQueueShort(t *testing.T) {
	env, _, bdev, _, th := bed()
	peak := 0
	runP(t, env, func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := 0; i < 2000; i++ {
			if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: uint64(i%512) * 8, Data: buf}); !st.OK() {
				t.Errorf("read %d: %v", i, st)
				return
			}
			peak = max(peak, env.QueueLen())
		}
	})
	if bdev.Timeouts != 0 {
		t.Fatalf("%d timeouts on a fault-free device", bdev.Timeouts)
	}
	if peak > 8 {
		t.Fatalf("event queue peaked at %d events, want <= 8", peak)
	}
}
