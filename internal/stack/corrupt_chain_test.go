package stack_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/virtio"
	"nvmetro/internal/vm"
)

// TestBaselinesRejectCorruptChains: a guest that publishes a descriptor
// chain whose Next index is past the descriptor table, or loops back on
// itself, must not crash the virtio backend. The bad head goes back on the
// used ring and is counted, and later valid requests still complete.
func TestBaselinesRejectCorruptChains(t *testing.T) {
	corruptions := []struct {
		name string
		next func(size, head uint16) uint16
	}{
		{"next-past-table", func(size, head uint16) uint16 { return size }},
		{"loop", func(size, head uint16) uint16 { return head }},
	}
	for _, sol := range []string{"QEMU", "Vhost", "SPDK"} {
		for _, c := range corruptions {
			t.Run(sol+"/"+c.name, func(t *testing.T) {
				env, _, v, disk := build(allSolutions[sol], device.NewMemStore(512))
				defer env.Close()
				q := disk.(interface{ Queues() []*virtio.Queue }).Queues()[0]
				finished := false
				env.Go("guest", func(p *sim.Proc) {
					defer env.Stop()
					hdr := v.Mem.MustAllocPages(1)
					head, ok := q.Ring.AddChain([]virtio.Buffer{
						{Addr: hdr, Len: 16},
						{Addr: hdr + 256, Len: 1, DevWrit: true},
					})
					if !ok {
						t.Error("no descriptors for the corrupt chain")
						return
					}
					q.Ring.WriteDesc(head, virtio.Desc{Addr: hdr, Len: 16, Flags: virtio.DescNext, Next: c.next(q.Ring.Size(), head)})
					base, pages, _ := v.Mem.AllocBuffer(4096)
					for i := 0; i < 4; i++ {
						r := &vm.Req{Op: vm.OpRead, LBA: uint64(i) * 8, Blocks: 8, Buf: base, BufPages: pages}
						if st := vm.SubmitAndWait(p, disk, v.VCPU(0), r); !st.OK() {
							t.Errorf("read %d after the corrupt chain: %v", i, st)
							return
						}
					}
					finished = true
				})
				env.RunUntil(sim.Time(sim.Second))
				if !finished {
					t.Fatal("valid requests did not complete after the corrupt chain")
				}
				if q.Rejected != 1 {
					t.Fatalf("rejected chains = %d, want 1", q.Rejected)
				}
			})
		}
	}
}
