package core_test

import (
	"fmt"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/metrics"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// addTenants attaches n VMs (IDs 1..n), each over a whole namespace of its
// own — the promotable layout: a whole namespace keeps the default pure
// fast-path classifier.
func (r *rig) addTenants(n int) ([]*vm.VM, []*core.Controller, []*vm.NVMeDisk) {
	var vms []*vm.VM
	var vcs []*core.Controller
	var disks []*vm.NVMeDisk
	for i := 0; i < n; i++ {
		nsid := uint32(1)
		if i > 0 {
			nsid = r.dev.NextNSID()
			r.dev.AddNamespace(nsid, 1<<18, device.NewMemStore(512))
		}
		v, vc, disk := r.addVM(i+1, device.WholeNamespace(r.dev, nsid))
		vms, vcs, disks = append(vms, v), append(vcs, vc), append(disks, disk)
	}
	return vms, vcs, disks
}

// TestPlacementBalanced: round-robin placement spreads tenants evenly.
func TestPlacementBalanced(t *testing.T) {
	r := newRig(4)
	defer r.env.Close()
	r.addTenants(10)
	min, max := 10, 0
	for _, si := range r.router.ShardInfos() {
		if n := len(si.VMs); n < min {
			min = n
		}
		if n := len(si.VMs); n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced placement: min=%d max=%d", min, max)
	}
	if r.router.Workers() != 4 {
		t.Fatalf("Workers = %d", r.router.Workers())
	}
}

// TestPromotionElidesClassification: with promotion on, tenants running
// the default (statically constant) classifier collapse to the direct
// SQ→HSQ mapping — promoted ops count up while classifications stay flat
// — and the same workload finishes strictly faster than when routed.
func TestPromotionElidesClassification(t *testing.T) {
	const ops = 64
	elapsed := func(promote bool) (sim.Duration, *core.Router) {
		r := newRig(2)
		defer r.env.Close()
		vms, _, disks := r.addTenants(2)
		if promote {
			r.router.EnablePromotion()
		}
		var dt sim.Duration
		r.run(t, func(p *sim.Proc) {
			t0 := r.env.Now()
			for i := 0; i < ops; i++ {
				if st := doIO(p, vms[i%2], disks[i%2], vm.OpRead, uint64(i), make([]byte, 4096)); !st.OK() {
					t.Fatalf("read %d: %v", i, st)
				}
			}
			dt = r.env.Now().Sub(t0)
		})
		return dt, r.router
	}

	routedT, routed := elapsed(false)
	promotedT, promoted := elapsed(true)

	if routed.PromotedOps != 0 || routed.Promotions != 0 {
		t.Fatalf("promotion fired while disabled: %+v", routed.Promotions)
	}
	if promoted.Promotions != 2 {
		t.Fatalf("Promotions = %d, want 2 (one per tenant)", promoted.Promotions)
	}
	if promoted.PromotedOps != ops {
		t.Fatalf("PromotedOps = %d, want %d", promoted.PromotedOps, ops)
	}
	if promoted.Classifications != 0 {
		t.Fatalf("Classifications = %d under full promotion, want 0", promoted.Classifications)
	}
	if routed.Classifications != ops {
		t.Fatalf("routed Classifications = %d, want %d", routed.Classifications, ops)
	}
	if promotedT >= routedT {
		t.Fatalf("promoted run not faster: %v vs %v", promotedT, routedT)
	}
}

// TestHotSwapDemotionFence: swapping a classifier demotes the tenant
// before the new classifier can see a single command — every command
// submitted after the swap is classified, none rides the stale direct
// mapping — and restoring a provably constant classifier re-promotes.
func TestHotSwapDemotionFence(t *testing.T) {
	const pre, post = 50, 50
	r := newRig(2)
	defer r.env.Close()
	vms, vcs, disks := r.addTenants(1)
	r.router.EnablePromotion()
	v, vc, disk := vms[0], vcs[0], disks[0]
	read := func(p *sim.Proc, lba uint64) error {
		if st := doIO(p, v, disk, vm.OpRead, lba, make([]byte, 512)); !st.OK() {
			return fmt.Errorf("read %d: %v", lba, st)
		}
		return nil
	}

	classified := 0
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < pre; i++ {
			if err := read(p, uint64(i)); err != nil {
				t.Fatalf("pre %v", err)
			}
		}
		if !vc.Promoted() {
			t.Fatal("tenant not promoted after warm traffic")
		}
		opsAtSwap := r.router.PromotedOps

		// Hot-swap: a native classifier is opaque to static analysis, so
		// installing it must demote synchronously.
		vc.SetNativeClassifier(func(ctx []byte) uint64 {
			classified++
			return core.ActSendHQ | core.ActWillCompleteHQ
		})
		if vc.Promoted() {
			t.Fatal("still promoted after hot-swap")
		}
		if r.router.Demotions != 1 {
			t.Fatalf("Demotions = %d, want 1", r.router.Demotions)
		}
		for i := 0; i < post; i++ {
			if err := read(p, uint64(i)); err != nil {
				t.Fatalf("post %v", err)
			}
		}
		if classified != post {
			t.Fatalf("new classifier saw %d commands, want %d (a command bypassed the fence)",
				classified, post)
		}
		if r.router.PromotedOps != opsAtSwap {
			t.Fatalf("PromotedOps advanced across the fence: %d -> %d", opsAtSwap, r.router.PromotedOps)
		}

		// Restore the eBPF classifier: the stored static verdict still
		// holds, so the tenant re-promotes (through the control inbox).
		vc.SetNativeClassifier(nil)
		for i := 0; i < 4; i++ {
			if err := read(p, uint64(i)); err != nil {
				t.Fatalf("restore %v", err)
			}
		}
		if !vc.Promoted() || r.router.Promotions != 2 {
			t.Fatalf("re-promotion failed: promoted=%v promotions=%d", vc.Promoted(), r.router.Promotions)
		}
	})
}

// TestAttachUIFDemotes: attaching a notify consumer fences the direct
// mapping like a hot-swap; detaching restores it.
func TestAttachUIFDemotes(t *testing.T) {
	r := newRig(1)
	defer r.env.Close()
	vms, vcs, disks := r.addTenants(1)
	r.router.EnablePromotion()
	v, vc, disk := vms[0], vcs[0], disks[0]
	r.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpRead, 0, make([]byte, 512)); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !vc.Promoted() {
			t.Fatal("not promoted")
		}
		vc.AttachUIF(64)
		if vc.Promoted() {
			t.Fatal("promoted with a UIF attached")
		}
		vc.DetachUIF()
		for i := 0; i < 4; i++ {
			if st := doIO(p, v, disk, vm.OpRead, 0, make([]byte, 512)); !st.OK() {
				t.Fatalf("read: %v", st)
			}
		}
		if !vc.Promoted() {
			t.Fatal("not re-promoted after DetachUIF")
		}
	})
}

// TestQoSMergePerShard: per-shard arbiters hold disjoint tenant sets and
// the router-wide snapshot/counter merge covers every tenant exactly once,
// with admission counts matching the per-tenant workload.
func TestQoSMergePerShard(t *testing.T) {
	const nvms, perVM = 6, 10
	r := newRig(3)
	defer r.env.Close()
	vms, _, disks := r.addTenants(nvms)
	r.router.EnableQoS(qos.Config{})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < nvms; i++ {
			for j := 0; j < perVM; j++ {
				if st := doIO(p, vms[i], disks[i], vm.OpRead, uint64(j), make([]byte, 512)); !st.OK() {
					t.Fatalf("vm%d read %d: %v", i, j, st)
				}
			}
		}
	})

	arbs := r.router.QoSArbiters()
	if len(arbs) != 3 {
		t.Fatalf("QoSArbiters = %d, want 3", len(arbs))
	}
	perShard := 0
	for _, a := range arbs {
		perShard += len(a.Snapshot(r.env.Now()))
	}
	if perShard != nvms {
		t.Fatalf("per-shard tenants sum to %d, want %d", perShard, nvms)
	}

	snap := r.router.QoSSnapshot(r.env.Now())
	seen := map[string]bool{}
	for _, ts := range snap {
		if seen[ts.Name] {
			t.Fatalf("tenant %s appears twice in merged snapshot", ts.Name)
		}
		seen[ts.Name] = true
		if ts.Admitted != perVM {
			t.Fatalf("tenant %s admitted %d, want %d", ts.Name, ts.Admitted, perVM)
		}
	}
	if len(snap) != nvms {
		t.Fatalf("merged snapshot has %d tenants, want %d", len(snap), nvms)
	}

	var cs metrics.CounterSet
	r.router.CollectQoS(&cs)
	total := uint64(0)
	for i := 1; i <= nvms; i++ {
		total += cs.Get(fmt.Sprintf("qos_vm%d_admitted", i))
	}
	if total != nvms*perVM {
		t.Fatalf("merged admitted counters sum to %d, want %d", total, nvms*perVM)
	}
}
