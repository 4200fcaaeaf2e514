// Package virtio implements the split virtqueue (vring) and the virtio-blk
// and virtio-scsi guest drivers used by the QEMU, vhost-scsi and SPDK
// vhost-user baselines. The rings live in guest memory and are accessed on
// both sides through DMA reads/writes, exactly like the real transport:
// descriptor table, available ring and used ring, with kick suppression for
// polling backends.
package virtio

import (
	"encoding/binary"
	"fmt"

	"nvmetro/internal/guestmem"
)

// Descriptor flags.
const (
	DescNext  uint16 = 1 // chain continues in .Next
	DescWrite uint16 = 2 // device writes this buffer (device->driver)
)

// Desc is one descriptor table entry.
type Desc struct {
	Addr  uint64
	Len   uint32
	Flags uint16
	Next  uint16
}

const descSize = 16

// Vring is a split virtqueue. Driver-side state (free list, last-seen used
// index) and device-side state (last-seen avail index) are both kept here
// for convenience; the ring contents themselves live in guest memory.
type Vring struct {
	mem  *guestmem.Memory
	size uint16

	descAddr  uint64
	availAddr uint64
	usedAddr  uint64

	// Driver side.
	free     []uint16
	availIdx uint16
	lastUsed uint16

	// Device side.
	lastAvail uint16
	usedIdx   uint16

	// SuppressKick mirrors VRING_USED_F_NO_NOTIFY: a polling backend sets
	// it so the driver skips the (expensive) notification.
	SuppressKick bool
}

// NewVring allocates a virtqueue of the given size in guest memory.
func NewVring(mem *guestmem.Memory, size uint16) *Vring {
	descBytes := int(size) * descSize
	availBytes := 4 + 2*int(size)
	usedBytes := 4 + 8*int(size)
	total := descBytes + availBytes + usedBytes
	pages := (total + guestmem.PageSize - 1) / guestmem.PageSize
	base := mem.MustAllocPages(pages)
	v := &Vring{
		mem: mem, size: size,
		descAddr:  base,
		availAddr: base + uint64(descBytes),
		usedAddr:  base + uint64(descBytes+availBytes),
	}
	for i := uint16(0); i < size; i++ {
		v.free = append(v.free, i)
	}
	return v
}

// Size returns the ring size.
func (v *Vring) Size() uint16 { return v.size }

// NumFree returns available descriptors on the driver side.
func (v *Vring) NumFree() int { return len(v.free) }

func (v *Vring) readU16(addr uint64) uint16 {
	var b [2]byte
	v.mem.ReadAt(b[:], addr)
	return binary.LittleEndian.Uint16(b[:])
}

func (v *Vring) writeU16(addr uint64, x uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], x)
	v.mem.WriteAt(b[:], addr)
}

// WriteDesc stores descriptor i of the table (driver side). The device
// side must treat whatever a driver wrote there as untrusted.
func (v *Vring) WriteDesc(i uint16, d Desc) {
	var b [descSize]byte
	binary.LittleEndian.PutUint64(b[0:8], d.Addr)
	binary.LittleEndian.PutUint32(b[8:12], d.Len)
	binary.LittleEndian.PutUint16(b[12:14], d.Flags)
	binary.LittleEndian.PutUint16(b[14:16], d.Next)
	v.mem.WriteAt(b[:], v.descAddr+uint64(i)*descSize)
}

func (v *Vring) readDesc(i uint16) Desc {
	var b [descSize]byte
	v.mem.ReadAt(b[:], v.descAddr+uint64(i)*descSize)
	return Desc{
		Addr:  binary.LittleEndian.Uint64(b[0:8]),
		Len:   binary.LittleEndian.Uint32(b[8:12]),
		Flags: binary.LittleEndian.Uint16(b[12:14]),
		Next:  binary.LittleEndian.Uint16(b[14:16]),
	}
}

// Buffer is one segment of a descriptor chain.
type Buffer struct {
	Addr    uint64
	Len     uint32
	DevWrit bool // device-writable (driver reads the result)
}

// AddChain publishes a descriptor chain, returning the head descriptor
// index, or ok=false if the ring lacks descriptors.
func (v *Vring) AddChain(bufs []Buffer) (uint16, bool) {
	if len(bufs) == 0 || len(v.free) < len(bufs) {
		return 0, false
	}
	idxs := make([]uint16, len(bufs))
	for i := range bufs {
		idxs[i] = v.free[len(v.free)-1-i]
	}
	v.free = v.free[:len(v.free)-len(bufs)]
	for i, b := range bufs {
		d := Desc{Addr: b.Addr, Len: b.Len}
		if b.DevWrit {
			d.Flags |= DescWrite
		}
		if i < len(bufs)-1 {
			d.Flags |= DescNext
			d.Next = idxs[i+1]
		}
		v.WriteDesc(idxs[i], d)
	}
	// Publish in the avail ring.
	slot := v.availAddr + 4 + uint64(v.availIdx%v.size)*2
	v.writeU16(slot, idxs[0])
	v.availIdx++
	v.writeU16(v.availAddr+2, v.availIdx)
	return idxs[0], true
}

// PopAvail consumes the next available chain head (device side).
func (v *Vring) PopAvail() (uint16, bool) {
	avail := v.readU16(v.availAddr + 2)
	if v.lastAvail == avail {
		return 0, false
	}
	slot := v.availAddr + 4 + uint64(v.lastAvail%v.size)*2
	head := v.readU16(slot)
	v.lastAvail++
	return head, true
}

// AvailPending reports whether unconsumed chains exist (device side poll).
func (v *Vring) AvailPending() bool {
	return v.readU16(v.availAddr+2) != v.lastAvail
}

// AvailCount returns the number of unconsumed available chains.
func (v *Vring) AvailCount() uint16 {
	return v.readU16(v.availAddr+2) - v.lastAvail
}

// ReadChain walks the descriptor chain from head (device side). The head
// and every Next index are guest-written, so an index outside the
// descriptor table or a chain that loops is an error.
func (v *Vring) ReadChain(head uint16) ([]Desc, error) {
	var out []Desc
	i := head
	for n := 0; ; n++ {
		if i >= v.size {
			return nil, fmt.Errorf("virtio: descriptor index %d out of range (ring size %d)", i, v.size)
		}
		if n > int(v.size) {
			return nil, fmt.Errorf("virtio: descriptor loop at %d", head)
		}
		d := v.readDesc(i)
		out = append(out, d)
		if d.Flags&DescNext == 0 {
			return out, nil
		}
		i = d.Next
	}
}

// PushUsed returns a chain to the driver with the written length
// (device side).
func (v *Vring) PushUsed(head uint16, length uint32) {
	slot := v.usedAddr + 4 + uint64(v.usedIdx%v.size)*8
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(head))
	binary.LittleEndian.PutUint32(b[4:8], length)
	v.mem.WriteAt(b[:], slot)
	v.usedIdx++
	v.writeU16(v.usedAddr+2, v.usedIdx)
}

// PopUsed consumes one used element (driver side), freeing its chain.
func (v *Vring) PopUsed() (uint16, bool) {
	used := v.readU16(v.usedAddr + 2)
	if v.lastUsed == used {
		return 0, false
	}
	slot := v.usedAddr + 4 + uint64(v.lastUsed%v.size)*8
	var b [8]byte
	v.mem.ReadAt(b[:], slot)
	head := uint16(binary.LittleEndian.Uint32(b[0:4]))
	v.lastUsed++
	// Return the chain's descriptors to the free list.
	chain, err := v.ReadChain(head)
	if err == nil {
		i := head
		for range chain {
			d := v.readDesc(i)
			v.free = append(v.free, i)
			i = d.Next
		}
	}
	return head, true
}
