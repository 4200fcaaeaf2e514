package core_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// BenchmarkRouterHop measures host wall-clock per guest I/O driven through
// the full router fast path (VSQ poll, classification, HQ dispatch, HCQ
// completion) on the compiled classifier tier. It tracks the simulator's
// own overhead, not virtual time.
func BenchmarkRouterHop(b *testing.B) {
	r := newRig(1)
	v, _, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))
	benchReads(b, r, []*vm.VM{v}, []*vm.NVMeDisk{disk})
}

// BenchmarkShardDispatch measures one 4 KiB read round trip through a
// two-shard router, routed (classifier executes every command) against
// promoted (direct SQ→HSQ mapping, classifier elided) — the host-side cost
// the promotion tier removes.
func BenchmarkShardDispatch(b *testing.B) {
	for _, tier := range []string{"routed", "promoted"} {
		b.Run(tier, func(b *testing.B) {
			r := newRig(2)
			vms, _, disks := r.addTenants(2)
			if tier == "promoted" {
				r.router.EnablePromotion()
			}
			benchReads(b, r, vms, disks)
		})
	}
}

// benchReads issues b.N sequential 4 KiB reads, alternating over the given
// VMs, and fails the benchmark if any read fails or the run stalls. It
// reports the DES events dispatched per read as events/op.
func benchReads(b *testing.B, r *rig, vms []*vm.VM, disks []*vm.NVMeDisk) {
	bases := make([]uint64, len(vms))
	pages := make([][]uint64, len(vms))
	for i, v := range vms {
		base, pg, err := v.Mem.AllocBuffer(4096)
		if err != nil {
			b.Fatal(err)
		}
		bases[i], pages[i] = base, pg
	}
	done := false
	var events uint64
	r.env.Go("bench", func(p *sim.Proc) {
		b.ResetTimer()
		events = r.env.Dispatched()
		for i := 0; i < b.N; i++ {
			t := i % len(vms)
			req := &vm.Req{Op: vm.OpRead, LBA: uint64(i%1024) * 8, Blocks: 8, Buf: bases[t], BufPages: pages[t]}
			if st := vm.SubmitAndWait(p, disks[t], vms[t].VCPU(0), req); !st.OK() {
				b.Fatalf("io %d failed: %v", i, st)
			}
		}
		b.StopTimer()
		events = r.env.Dispatched() - events
		done = true
		r.env.Stop()
	})
	r.env.RunUntil(sim.Time(1 << 62))
	if !done {
		b.Fatal("benchmark did not finish")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
