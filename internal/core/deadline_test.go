package core_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// A fast-path completion that surfaces after its host tag timed out, was
// reclaimed and was reissued must not complete the tag's new occupant: the
// generation echoed in DW0 no longer matches, so the router counts it
// stale and the reissued read returns the data on disk. Checks inside the
// simulated process use t.Error and return, so a failure cannot strand the
// run token.
func TestReclaimedHostTagNotMisattributed(t *testing.T) {
	const hold = 3 * sim.Millisecond
	r := newRig(1)
	// Deadline 200 µs, so the write's tag is reclaimed 400 µs after it
	// times out — long before its completion, held for 3 ms, surfaces.
	r.router.SetFastPathDeadline(200 * sim.Microsecond)
	r.dev.InjectFaults(fault.NewPlan(1).WithStuck(1, 1, hold).Injector("device"))
	v, _, disk := r.addVM(0, device.WholeNamespace(r.dev, 1))
	onDisk := bytes.Repeat([]byte{0x5a}, 4096)
	r.store.WriteBlocks(64, onDisk)
	r.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 8, make([]byte, 4096)); st.OK() {
			t.Error("stuck write completed OK, want an abort at its deadline")
			return
		}
		// The read reuses the reclaimed tag and is in flight when the held
		// completion for the tag's previous occupant surfaces.
		p.Sleep(hold - p.Now().Sub(0) - 20*sim.Microsecond)
		got := make([]byte, 4096)
		if st := doIO(p, v, disk, vm.OpRead, 64, got); !st.OK() {
			t.Errorf("read on reused tag: %v", st)
			return
		}
		if !bytes.Equal(got, onDisk) {
			t.Error("read on the reused host tag returned data that is not on disk")
		}
	})
	if r.router.HQTimeouts != 1 || r.router.HTagsReclaimed != 1 {
		t.Fatalf("hq_timeouts=%d htags_reclaimed=%d, want 1/1", r.router.HQTimeouts, r.router.HTagsReclaimed)
	}
	if r.router.StaleComps != 1 {
		t.Fatalf("stale_comps=%d, want 1: the held completion was not counted", r.router.StaleComps)
	}
}

// Queue pairs copy the fast-path deadline when they are created, so
// changing it once a controller is attached would silently do nothing;
// the router refuses instead.
func TestFastPathDeadlineFixedAtAttach(t *testing.T) {
	r := newRig(1)
	defer r.env.Close()
	r.addVM(0, device.WholeNamespace(r.dev, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetFastPathDeadline after Attach did not panic")
		}
	}()
	r.router.SetFastPathDeadline(0)
}
