package stack_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

// TestCloneRoundTrip provisions two VMs on clones of one golden image
// (namespaces 2 and 3 of the device) and checks, through the full router
// fast path: golden content is visible to both, a write by one tenant is
// guest-durable for it, invisible to the other, and absent from the golden
// image.
func TestCloneRoundTrip(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	p := stack.DefaultParams()
	p.Device.JitterPct, p.Device.TailProb = 0, 0
	h := stack.NewHost(env, 12, 4, p, device.NewMemStore(512))

	const blocks = 4096
	img := stack.NewGoldenImage(h, blocks, 64)
	payload := make([]byte, blocks*512)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	img.Master().WriteBlocks(0, payload)
	img.Seal()
	goldCRC := img.ContentCRC()
	baseCRC := img.BaseCRC()

	v1 := h.NewVM(1, 16<<20)
	v2 := h.NewVM(1, 16<<20)
	s1 := stack.NewNVMetro(h)
	s2 := stack.NewNVMetro(h)
	d1 := s1.Provision(v1, img.Clone())
	d2 := s2.Provision(v2, img.Clone())
	if s1.ControllerFor(v1).Partition().NSID < 2 || s2.ControllerFor(v2).Partition().NSID < 2 {
		t.Fatal("clones not on fresh namespaces")
	}

	finished := false
	env.Go("test", func(pr *sim.Proc) {
		defer env.Stop()
		readBack := func(v *vm.VM, d vm.Disk, lba uint64) []byte {
			base, pages, _ := v.Mem.AllocBuffer(4096)
			r := &vm.Req{Op: vm.OpRead, LBA: lba, Blocks: 8, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(pr, d, v.VCPU(0), r); !st.OK() {
				t.Errorf("read: %v", st)
			}
			got := make([]byte, 4096)
			v.Mem.ReadAt(got, base)
			return got
		}
		// Both tenants see the golden bytes.
		if !bytes.Equal(readBack(v1, d1, 256), payload[256*512:256*512+4096]) {
			t.Error("tenant 1 does not see golden content")
		}
		if !bytes.Equal(readBack(v2, d2, 256), payload[256*512:256*512+4096]) {
			t.Error("tenant 2 does not see golden content")
		}
		// Tenant 1 writes; only tenant 1 sees it.
		mine := make([]byte, 4096)
		for i := range mine {
			mine[i] = 0xAB
		}
		base, pages, _ := v1.Mem.AllocBuffer(4096)
		v1.Mem.WriteAt(mine, base)
		w := &vm.Req{Op: vm.OpWrite, LBA: 256, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(pr, d1, v1.VCPU(0), w); !st.OK() {
			t.Errorf("write: %v", st)
		}
		if !bytes.Equal(readBack(v1, d1, 256), mine) {
			t.Error("tenant 1 write not durable")
		}
		if !bytes.Equal(readBack(v2, d2, 256), payload[256*512:256*512+4096]) {
			t.Error("tenant 1 write leaked into tenant 2")
		}
		finished = true
	})
	env.RunUntil(sim.Time(30 * sim.Second))
	if !finished {
		t.Fatal("did not finish")
	}

	// CoW accounting and isolation invariants.
	c1, c2 := s1.Wiring(v1).Clone, s2.Wiring(v2).Clone
	if c1.CowBreaks == 0 {
		t.Error("tenant write did not CoW-break")
	}
	if c2.CowBreaks != 0 {
		t.Error("idle tenant CoW-broke")
	}
	if c1.DivergenceCRC() == 0 || c2.DivergenceCRC() != 0 {
		t.Errorf("divergence CRCs wrong: %08x / %08x", c1.DivergenceCRC(), c2.DivergenceCRC())
	}
	if img.BaseCRC() != baseCRC || img.ContentCRC() != goldCRC {
		t.Error("golden image changed under tenant writes")
	}
	// Cross-tenant sharing visible to the shared cache.
	if img.Index().Cache().Hits() == 0 {
		t.Error("no shared-cache hits across tenants")
	}
}
