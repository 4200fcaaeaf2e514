package virtio

import (
	"encoding/binary"
	"fmt"

	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/scsi"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// virtio-blk request types.
const (
	BlkTIn      uint32 = 0 // read
	BlkTOut     uint32 = 1 // write
	BlkTFlush   uint32 = 4
	BlkTDiscard uint32 = 11
)

// Queue couples a vring with its index and owner, for backend wiring.
type Queue struct {
	Index int
	VMID  int
	Ring  *Vring
	Mem   *guestmem.Memory

	// Rejected counts malformed chains the backend returned unprocessed
	// (see Reject).
	Rejected uint64
}

// Transport is how the driver reaches its backend: notification (kick) and
// completion interrupt registration. Backends model their own costs —
// a QEMU kick is a vmexit on the vCPU, a vhost kick is an eventfd write,
// and a polled vhost-user backend suppresses kicks entirely.
type Transport interface {
	Kick(p *sim.Proc, vcpu *sim.Thread, q *Queue)
	SetIRQ(q *Queue, fn func())
}

// slot is preallocated per-request metadata space in guest memory.
type slot struct {
	hdrAddr    uint64 // header (out)
	statusAddr uint64 // status byte (in)
	req        *vm.Req
}

// queueState is the driver-side state of one virtqueue.
type queueState struct {
	q       *Queue
	vcpu    *sim.Thread
	slots   []slot
	free    []int
	byHead  map[uint16]int
	slotCnd *sim.Cond
	irqCnd  *sim.Cond
}

// driverBase is shared machinery between the blk and scsi drivers.
type driverBase struct {
	v      *vm.VM
	tr     Transport
	costs  vm.DriverCosts
	qs     map[*sim.Thread]*queueState
	order  []*queueState
	info   nvme.NamespaceInfo
	encode func(s *slot, r *vm.Req) []Buffer
	status func(st *queueState, s *slot) nvme.Status
}

func (d *driverBase) init(name string, v *vm.VM, tr Transport, queueSize uint16, depth int, costs vm.DriverCosts, vmid int) {
	d.v = v
	d.tr = tr
	d.costs = costs
	d.qs = make(map[*sim.Thread]*queueState)
	for i := 0; i < v.NumVCPUs(); i++ {
		vcpu := v.VCPU(i)
		st := &queueState{
			q:       &Queue{Index: i, VMID: vmid, Ring: NewVring(v.Mem, queueSize), Mem: v.Mem},
			vcpu:    vcpu,
			byHead:  make(map[uint16]int),
			slotCnd: sim.NewCond(v.Env),
			irqCnd:  sim.NewCond(v.Env),
		}
		for j := 0; j < depth; j++ {
			page := v.Mem.MustAllocPages(1)
			st.slots = append(st.slots, slot{hdrAddr: page, statusAddr: page + 256})
			st.free = append(st.free, j)
		}
		tr.SetIRQ(st.q, func() { st.irqCnd.Signal(nil) })
		d.qs[vcpu] = st
		d.order = append(d.order, st)
		v.Env.Go(fmt.Sprintf("vm%d/%s-irq-q%d", v.ID, name, i), func(p *sim.Proc) { d.irqLoop(p, st) })
	}
}

// Queues exposes the virtqueues for backend attachment.
func (d *driverBase) Queues() []*Queue {
	out := make([]*Queue, len(d.order))
	for i, st := range d.order {
		out[i] = st.q
	}
	return out
}

// BlockSize implements vm.Disk.
func (d *driverBase) BlockSize() uint32 { return d.info.BlockSize() }

// Blocks implements vm.Disk.
func (d *driverBase) Blocks() uint64 { return d.info.Size }

// Submit implements vm.Disk.
func (d *driverBase) Submit(p *sim.Proc, vcpu *sim.Thread, r *vm.Req) {
	st := d.qs[vcpu]
	if st == nil {
		st = d.order[0]
	}
	r.Submitted = p.Now()
	vcpu.Exec(p, d.costs.Submit)
	for len(st.free) == 0 {
		st.slotCnd.Wait()
	}
	si := st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	s := &st.slots[si]
	s.req = r

	bufs := d.encode(s, r)
	head, ok := st.q.Ring.AddChain(bufs)
	for !ok {
		st.slotCnd.Wait()
		head, ok = st.q.Ring.AddChain(bufs)
	}
	st.byHead[head] = si
	if !st.q.Ring.SuppressKick {
		d.tr.Kick(p, vcpu, st.q)
	}
}

func (d *driverBase) irqLoop(p *sim.Proc, st *queueState) {
	for {
		st.irqCnd.Wait()
		st.vcpu.Exec(p, d.v.Costs.GuestIRQ)
		for {
			head, ok := st.q.Ring.PopUsed()
			if !ok {
				break
			}
			st.vcpu.Exec(p, d.costs.Complete)
			si, ok := st.byHead[head]
			if !ok {
				continue // a chain this driver never published
			}
			delete(st.byHead, head)
			s := &st.slots[si]
			r := s.req
			s.req = nil
			status := d.status(st, s)
			st.free = append(st.free, si)
			st.slotCnd.Signal(nil)
			r.Complete(d.v.Env, status)
		}
	}
}

func readByte(mem *guestmem.Memory, addr uint64) byte {
	var b [1]byte
	mem.ReadAt(b[:], addr)
	return b[0]
}

// --- virtio-blk driver ----------------------------------------------------

// BlkDisk is the guest virtio-blk driver (one virtqueue per vCPU).
type BlkDisk struct {
	driverBase
}

// NewBlkDisk creates the driver over tr for a disk of the given geometry.
func NewBlkDisk(v *vm.VM, tr Transport, info nvme.NamespaceInfo, queueSize uint16, costs vm.DriverCosts) *BlkDisk {
	d := &BlkDisk{}
	d.info = info
	d.encode = d.encodeReq
	d.status = d.readStatus
	d.init("vblk", v, tr, queueSize, int(queueSize)/2, costs, v.ID)
	return d
}

func (d *BlkDisk) encodeReq(s *slot, r *vm.Req) []Buffer {
	var hdr [16]byte
	t := BlkTIn
	switch r.Op {
	case vm.OpWrite:
		t = BlkTOut
	case vm.OpFlush:
		t = BlkTFlush
	case vm.OpTrim:
		t = BlkTDiscard
	}
	binary.LittleEndian.PutUint32(hdr[0:4], t)
	sector := r.LBA * uint64(d.info.BlockSize()) / 512
	binary.LittleEndian.PutUint64(hdr[8:16], sector)
	d.v.Mem.WriteAt(hdr[:], s.hdrAddr)

	bufs := []Buffer{{Addr: s.hdrAddr, Len: 16}}
	switch r.Op {
	case vm.OpRead, vm.OpWrite:
		nbytes := r.Bytes(d.info.BlockSize())
		rem := nbytes
		for _, pg := range r.BufPages {
			l := uint32(guestmem.PageSize)
			if rem < l {
				l = rem
			}
			bufs = append(bufs, Buffer{Addr: pg, Len: l, DevWrit: r.Op == vm.OpRead})
			rem -= l
			if rem == 0 {
				break
			}
		}
	case vm.OpTrim:
		// Discard segment {sector u64, num u32, flags u32} after the header.
		var seg [16]byte
		binary.LittleEndian.PutUint64(seg[0:8], sector)
		binary.LittleEndian.PutUint32(seg[8:12], r.Blocks*d.info.BlockSize()/512)
		d.v.Mem.WriteAt(seg[:], s.hdrAddr+16)
		bufs = append(bufs, Buffer{Addr: s.hdrAddr + 16, Len: 16})
	}
	return append(bufs, Buffer{Addr: s.statusAddr, Len: 1, DevWrit: true})
}

func (d *BlkDisk) readStatus(st *queueState, s *slot) nvme.Status {
	if readByte(d.v.Mem, s.statusAddr) == 0 {
		return nvme.SCSuccess
	}
	return nvme.SCInternal
}

// --- virtio-scsi driver ---------------------------------------------------

// scsiHdrSize is the simplified virtio-scsi request header: LUN+tag+attrs
// plus a 32-byte CDB area.
const scsiHdrSize = 64

// SCSIDisk is the guest virtio-scsi driver.
type SCSIDisk struct {
	driverBase
}

// NewSCSIDisk creates the driver.
func NewSCSIDisk(v *vm.VM, tr Transport, info nvme.NamespaceInfo, queueSize uint16, costs vm.DriverCosts) *SCSIDisk {
	d := &SCSIDisk{}
	d.info = info
	d.encode = d.encodeReq
	d.status = d.readStatus
	// CDB construction adds a little work per request versus virtio-blk.
	costs.Submit += 300 * sim.Nanosecond
	d.init("vscsi", v, tr, queueSize, int(queueSize)/2, costs, v.ID)
	return d
}

func (d *SCSIDisk) encodeReq(s *slot, r *vm.Req) []Buffer {
	var cdb scsi.CDB
	lba := r.LBA * uint64(d.info.BlockSize()) / 512
	blocks := r.Blocks * d.info.BlockSize() / 512
	switch r.Op {
	case vm.OpRead:
		cdb = scsi.Read16(lba, blocks)
	case vm.OpWrite:
		cdb = scsi.Write16(lba, blocks)
	case vm.OpFlush:
		cdb = scsi.SyncCache()
	case vm.OpTrim:
		cdb = scsi.Unmap(lba, blocks)
	}
	var hdr [scsiHdrSize]byte
	copy(hdr[32:], cdb)
	hdr[30] = uint8(len(cdb))
	d.v.Mem.WriteAt(hdr[:], s.hdrAddr)

	bufs := []Buffer{{Addr: s.hdrAddr, Len: scsiHdrSize}}
	if r.Op == vm.OpRead || r.Op == vm.OpWrite {
		nbytes := r.Bytes(d.info.BlockSize())
		rem := nbytes
		for _, pg := range r.BufPages {
			l := uint32(guestmem.PageSize)
			if rem < l {
				l = rem
			}
			bufs = append(bufs, Buffer{Addr: pg, Len: l, DevWrit: r.Op == vm.OpRead})
			rem -= l
			if rem == 0 {
				break
			}
		}
	}
	return append(bufs, Buffer{Addr: s.statusAddr, Len: 1, DevWrit: true})
}

func (d *SCSIDisk) readStatus(st *queueState, s *slot) nvme.Status {
	if readByte(d.v.Mem, s.statusAddr) == scsi.StatusGood {
		return nvme.SCSuccess
	}
	return nvme.SCInternal
}

// ParseSCSICDB extracts the CDB from a request header (backend side).
func ParseSCSICDB(mem *guestmem.Memory, hdrAddr uint64) (scsi.Cmd, error) {
	var hdr [scsiHdrSize]byte
	mem.ReadAt(hdr[:], hdrAddr)
	n := int(hdr[30])
	if n == 0 || n > 32 {
		return scsi.Cmd{}, scsi.ErrBadCDB
	}
	return scsi.Decode(scsi.CDB(hdr[32 : 32+n]))
}
