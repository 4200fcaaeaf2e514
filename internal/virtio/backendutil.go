package virtio

import (
	"encoding/binary"
	"fmt"
)

// DeviceReq is a parsed request chain as seen by a backend: header
// descriptor, data descriptors and the trailing status byte.
type DeviceReq struct {
	Head       uint16
	HdrAddr    uint64
	HdrLen     uint32
	Data       []Desc
	StatusAddr uint64
}

// ParseChain walks a chain popped from the avail ring into its parts.
func ParseChain(q *Queue, head uint16) (DeviceReq, error) {
	chain, err := q.Ring.ReadChain(head)
	if err != nil {
		return DeviceReq{}, err
	}
	if len(chain) < 2 {
		return DeviceReq{}, fmt.Errorf("virtio: chain too short (%d)", len(chain))
	}
	r := DeviceReq{
		Head:       head,
		HdrAddr:    chain[0].Addr,
		HdrLen:     chain[0].Len,
		StatusAddr: chain[len(chain)-1].Addr,
	}
	r.Data = chain[1 : len(chain)-1]
	return r, nil
}

// Reject hands a chain that failed to parse back to the driver unprocessed:
// the head returns on the used ring with length 0, is counted in
// q.Rejected, and irq (if non-nil) notifies the driver. Backends call it
// instead of failing on guest-written descriptors.
func Reject(q *Queue, head uint16, irq func()) {
	q.Ring.PushUsed(head, 0)
	q.Rejected++
	if irq != nil {
		irq()
	}
}

// BlkHeader decodes the virtio-blk header (type + sector).
func (r *DeviceReq) BlkHeader(q *Queue) (reqType uint32, sector uint64) {
	var hdr [16]byte
	q.Mem.ReadAt(hdr[:], r.HdrAddr)
	return binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint64(hdr[8:16])
}

// DiscardSegment decodes a virtio-blk discard segment.
func (r *DeviceReq) DiscardSegment(q *Queue) (sector uint64, nsect uint32) {
	if len(r.Data) == 0 {
		return 0, 0
	}
	var seg [16]byte
	q.Mem.ReadAt(seg[:], r.Data[0].Addr)
	return binary.LittleEndian.Uint64(seg[0:8]), binary.LittleEndian.Uint32(seg[8:12])
}

// DataLen sums the data descriptors.
func (r *DeviceReq) DataLen() int {
	n := 0
	for _, d := range r.Data {
		n += int(d.Len)
	}
	return n
}

// ReadData copies the request's data out of guest memory.
func (r *DeviceReq) ReadData(q *Queue, buf []byte) {
	off := 0
	for _, d := range r.Data {
		q.Mem.ReadAt(buf[off:off+int(d.Len)], d.Addr)
		off += int(d.Len)
	}
}

// WriteData copies buf into the request's (device-writable) data pages.
func (r *DeviceReq) WriteData(q *Queue, buf []byte) {
	off := 0
	for _, d := range r.Data {
		q.Mem.WriteAt(buf[off:off+int(d.Len)], d.Addr)
		off += int(d.Len)
	}
}

// Complete writes the status byte and returns the chain via the used ring.
// The caller is responsible for the completion notification (IRQ).
func (r *DeviceReq) Complete(q *Queue, status byte) {
	q.Mem.WriteAt([]byte{status}, r.StatusAddr)
	q.Ring.PushUsed(r.Head, uint32(r.DataLen())+1)
}
