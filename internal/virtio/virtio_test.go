package virtio

import (
	"bytes"
	"testing"
	"testing/quick"

	"nvmetro/internal/guestmem"
)

func newRing(size uint16) (*Vring, *guestmem.Memory) {
	mem := guestmem.New(8 << 20)
	return NewVring(mem, size), mem
}

func TestVringAddPopChain(t *testing.T) {
	v, mem := newRing(16)
	dataAddr := mem.MustAllocPages(1)
	mem.WriteAt([]byte("hello"), dataAddr)
	head, ok := v.AddChain([]Buffer{
		{Addr: 0x100, Len: 16},
		{Addr: dataAddr, Len: 5},
		{Addr: 0x200, Len: 1, DevWrit: true},
	})
	if !ok {
		t.Fatal("add failed")
	}
	if !v.AvailPending() || v.AvailCount() != 1 {
		t.Fatal("avail not visible")
	}
	got, ok := v.PopAvail()
	if !ok || got != head {
		t.Fatalf("pop %d want %d", got, head)
	}
	chain, err := v.ReadChain(head)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[1].Len != 5 || chain[2].Flags&DescWrite == 0 {
		t.Fatalf("chain %+v", chain)
	}
	buf := make([]byte, 5)
	mem.ReadAt(buf, chain[1].Addr)
	if string(buf) != "hello" {
		t.Fatal("data addr wrong")
	}
}

func TestVringUsedRoundTripAndFreeList(t *testing.T) {
	v, _ := newRing(8)
	for round := 0; round < 40; round++ { // force many wraps
		head, ok := v.AddChain([]Buffer{{Addr: 0x1000, Len: 16}, {Addr: 0x2000, Len: 1, DevWrit: true}})
		if !ok {
			t.Fatalf("round %d: ring exhausted (free list leak)", round)
		}
		got, ok := v.PopAvail()
		if !ok || got != head {
			t.Fatalf("round %d: pop avail", round)
		}
		v.PushUsed(head, 1)
		uh, ok := v.PopUsed()
		if !ok || uh != head {
			t.Fatalf("round %d: pop used", round)
		}
		if v.NumFree() != 8 {
			t.Fatalf("round %d: free %d, want 8", round, v.NumFree())
		}
	}
}

func TestVringExhaustion(t *testing.T) {
	v, _ := newRing(4)
	if _, ok := v.AddChain([]Buffer{{Addr: 1, Len: 1}, {Addr: 2, Len: 1}, {Addr: 3, Len: 1}, {Addr: 4, Len: 1}, {Addr: 5, Len: 1}}); ok {
		t.Fatal("oversized chain accepted")
	}
	for i := 0; i < 2; i++ {
		if _, ok := v.AddChain([]Buffer{{Addr: 1, Len: 1}, {Addr: 2, Len: 1}}); !ok {
			t.Fatal("add failed")
		}
	}
	if _, ok := v.AddChain([]Buffer{{Addr: 1, Len: 1}}); ok {
		t.Fatal("add to full ring accepted")
	}
}

func TestVringMultipleOutstanding(t *testing.T) {
	v, _ := newRing(32)
	var heads []uint16
	for i := 0; i < 10; i++ {
		h, ok := v.AddChain([]Buffer{{Addr: uint64(i) * 0x1000, Len: 64}})
		if !ok {
			t.Fatal("add")
		}
		heads = append(heads, h)
	}
	// Device consumes in order.
	for i := 0; i < 10; i++ {
		h, ok := v.PopAvail()
		if !ok || h != heads[i] {
			t.Fatalf("pop %d", i)
		}
	}
	// Completes out of order.
	for _, i := range []int{3, 0, 9, 5, 1, 2, 4, 6, 7, 8} {
		v.PushUsed(heads[i], 0)
	}
	seen := map[uint16]bool{}
	for i := 0; i < 10; i++ {
		h, ok := v.PopUsed()
		if !ok {
			t.Fatal("pop used")
		}
		seen[h] = true
	}
	if len(seen) != 10 {
		t.Fatalf("saw %d distinct heads", len(seen))
	}
}

// Property: any sequence of add/complete cycles preserves descriptor count.
func TestVringDescriptorConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		v, _ := newRing(16)
		outstanding := []uint16{}
		for _, op := range ops {
			if op%2 == 0 && v.NumFree() >= 2 {
				h, ok := v.AddChain([]Buffer{{Addr: 0x1000, Len: 8}, {Addr: 0x2000, Len: 8, DevWrit: true}})
				if !ok {
					return false
				}
				if got, ok := v.PopAvail(); !ok || got != h {
					return false
				}
				outstanding = append(outstanding, h)
			} else if len(outstanding) > 0 {
				h := outstanding[0]
				outstanding = outstanding[1:]
				v.PushUsed(h, 8)
				if got, ok := v.PopUsed(); !ok || got != h {
					return false
				}
			}
		}
		return v.NumFree() == 16-2*len(outstanding)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseChainAndData(t *testing.T) {
	mem := guestmem.New(8 << 20)
	ring := NewVring(mem, 16)
	q := &Queue{Index: 0, VMID: 7, Ring: ring, Mem: mem}
	hdr := mem.MustAllocPages(1)
	data := mem.MustAllocPages(1)
	status := hdr + 512
	payload := bytes.Repeat([]byte{0xab}, 600)
	mem.WriteAt(payload, data)
	head, _ := ring.AddChain([]Buffer{
		{Addr: hdr, Len: 16},
		{Addr: data, Len: 600},
		{Addr: status, Len: 1, DevWrit: true},
	})
	ring.PopAvail()
	r, err := ParseChain(q, head)
	if err != nil {
		t.Fatal(err)
	}
	if r.HdrAddr != hdr || r.StatusAddr != status || r.DataLen() != 600 {
		t.Fatalf("parse %+v", r)
	}
	buf := make([]byte, 600)
	r.ReadData(q, buf)
	if !bytes.Equal(buf, payload) {
		t.Fatal("ReadData")
	}
	// WriteData writes back.
	resp := bytes.Repeat([]byte{0x11}, 600)
	r.WriteData(q, resp)
	mem.ReadAt(buf, data)
	if !bytes.Equal(buf, resp) {
		t.Fatal("WriteData")
	}
	// Complete sets status and pushes used.
	r.Complete(q, 0x55)
	var st [1]byte
	mem.ReadAt(st[:], status)
	if st[0] != 0x55 {
		t.Fatal("status byte")
	}
	if h, ok := ring.PopUsed(); !ok || h != head {
		t.Fatal("used")
	}
}

// TestReadChainRejectsBadIndices: head and Next indices are guest-written,
// so an index outside the descriptor table must be refused rather than
// read past the table.
func TestReadChainRejectsBadIndices(t *testing.T) {
	v, _ := newRing(16)
	if _, err := v.ReadChain(v.Size()); err == nil {
		t.Fatal("head past the table accepted")
	}
	head, _ := v.AddChain([]Buffer{{Addr: 0x100, Len: 16}, {Addr: 0x200, Len: 1, DevWrit: true}})
	v.WriteDesc(head, Desc{Addr: 0x100, Len: 16, Flags: DescNext, Next: 0xffff})
	if _, err := v.ReadChain(head); err == nil {
		t.Fatal("Next past the table accepted")
	}
	v.WriteDesc(head, Desc{Addr: 0x100, Len: 16, Flags: DescNext, Next: head})
	if _, err := v.ReadChain(head); err == nil {
		t.Fatal("looping chain accepted")
	}
}
