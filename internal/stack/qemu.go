package stack

import (
	"fmt"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/virtio"
	"nvmetro/internal/vm"
)

// QEMU is the userspace virtio-blk baseline: guest kicks trap to the VMM,
// iothreads run QEMU's coroutine block layer and submit to the host kernel
// via io_uring. Per-request userspace costs are high, but several iothreads
// share the work and the block layer merges adjacent sequential requests —
// which is how QEMU regains throughput at high queue depths in Fig. 3 while
// remaining the worst performer at low QD and in latency (Fig. 4).
type QEMU struct {
	h      *Host
	lastVM *qemuVM // test observability
}

// NewQEMU creates the solution.
func NewQEMU(h *Host) *QEMU { return &QEMU{h: h} }

// Name implements Solution.
func (s *QEMU) Name() string { return "QEMU" }

// Provision implements Solution.
func (s *QEMU) Provision(v *vm.VM, part device.Partition) vm.Disk {
	q := &qemuVM{
		h:         s.h,
		v:         v,
		bdev:      blockdev.NewNVMeBlockDev(s.h.Env, part, s.h.CPU, s.h.guestCores, s.h.Params.Block),
		irqs:      make(map[*virtio.Queue]func()),
		plugSince: make(map[*virtio.Queue]sim.Time),
	}
	disk := virtio.NewBlkDisk(v, q, part.Info(), 256, s.h.Params.Driver)
	q.queues = disk.Queues()
	for i := 0; i < s.h.Params.QEMUIOThreads; i++ {
		it := &qemuIOThread{
			th:   s.h.HostThread("qemu"),
			ring: blockdev.NewURing(s.h.Env, q.bdev, s.h.Params.URing),
			wake: sim.NewCond(s.h.Env),
		}
		// io_uring completions wake the iothread that owns the ring.
		it.ring.OnComp = func() {
			if it.asleep {
				it.asleep = false
				it.wake.Signal(nil)
			}
		}
		q.threads = append(q.threads, it)
		s.h.Env.Go(fmt.Sprintf("qemu-iothread%d-vm%d", i, v.ID), func(p *sim.Proc) {
			q.iothread(p, it)
		})
	}
	s.lastVM = q
	return disk
}

// qemuVM is one QEMU process: iothreads work-steal across all virtqueues.
type qemuVM struct {
	h         *Host
	v         *vm.VM
	bdev      *blockdev.NVMeBlockDev
	queues    []*virtio.Queue
	threads   []*qemuIOThread
	irqs      map[*virtio.Queue]func()
	plugSince map[*virtio.Queue]sim.Time
	busy      int // iothreads currently processing (kick suppression)
	inflightN int // merged submissions in flight across all iothreads

	// Stats
	Requests, Merged uint64
	Sleeps, Turns    uint64
}

// qemuIOThread is one event-loop thread with its own io_uring.
type qemuIOThread struct {
	th     *sim.Thread
	ring   *blockdev.URing
	wake   *sim.Cond
	asleep bool
}

// Kick implements virtio.Transport: an ioeventfd MMIO write traps the vCPU
// out of guest mode. Notification is suppressed (EVENT_IDX) while an
// iothread is already busy.
func (q *qemuVM) Kick(p *sim.Proc, vcpu *sim.Thread, vq *virtio.Queue) {
	if q.busy > 0 {
		return
	}
	vcpu.Exec(p, q.v.Costs.VMExit)
	q.hintAny()
}

// SetIRQ implements virtio.Transport.
func (q *qemuVM) SetIRQ(vq *virtio.Queue, fn func()) { q.irqs[vq] = fn }

// hintAny wakes one sleeping iothread to pick up new vring work.
func (q *qemuVM) hintAny() {
	for _, it := range q.threads {
		if it.asleep {
			it.asleep = false
			it.wake.Signal(nil)
			return
		}
	}
}

// inflight tracks one merged submission.
type qemuInflight struct {
	reqs []virtio.DeviceReq
	vq   *virtio.Queue
	read bool
	buf  []byte
}

func (q *qemuVM) iothread(p *sim.Proc, it *qemuIOThread) {
	th, ring := it.th, it.ring
	par := q.h.Params
	inflight := make(map[uint64]*qemuInflight)
	var nextID uint64
	var idleSpin sim.Duration
	turnDue := true
	var lastWork sim.Time
	pollWorthwhile := false

	// The event-loop turn (ppoll return, fd dispatch, bottom halves) is
	// paid when a sleeping thread wakes to process work; a thread in the
	// adaptive-polling window picks work up without it.
	payTurn := func() {
		if turnDue {
			turnDue = false
			q.Turns++
			th.Exec(p, par.QEMUBatch)
		}
	}

	for {
		did := false
		plugged := false
		q.busy++

		// Reap io_uring completions: copy read data into guest pages,
		// complete chains, inject the interrupt.
		reaped := ring.Reap(p, th, 32)
		if len(reaped) > 0 {
			payTurn()
		}
		for _, cqe := range reaped {
			fl := inflight[cqe.UserData]
			delete(inflight, cqe.UserData)
			q.inflightN--
			// One completion dispatch per (merged) request, plus a small
			// per-element cost to unmap and return each chain.
			th.Exec(p, par.QEMUComplete+sim.Microsecond*sim.Duration(len(fl.reqs)))
			status := byte(0)
			if !cqe.Status.OK() {
				status = 1
			}
			off := 0
			for i := range fl.reqs {
				r := &fl.reqs[i]
				if fl.read && status == 0 {
					r.WriteData(fl.vq, fl.buf[off:off+r.DataLen()])
				}
				off += r.DataLen()
				r.Complete(fl.vq, status)
			}
			th.Exec(p, par.QEMUInject) // KVM interrupt injection ioctl
			if fn := q.irqs[fl.vq]; fn != nil {
				fn()
			}
			did = true
		}

		// Pop available chains, merging sequential neighbours. Under load
		// (a deep device pipeline) plug briefly so sequential requests
		// accumulate and merge, as QEMU's blk_io_plug does.
		for _, vq := range q.queues {
			avail := int(vq.Ring.AvailCount())
			if avail == 0 {
				continue
			}
			if par.QEMUMerge && q.inflightN >= 1 && avail < 6 {
				since, seen := q.plugSince[vq]
				if !seen {
					q.plugSince[vq] = p.Now()
					plugged = true
					continue
				}
				if p.Now().Sub(since) < 10*sim.Microsecond {
					plugged = true
					continue
				}
			}
			delete(q.plugSince, vq)
			var batch []virtio.DeviceReq
			var sectors []uint64
			var types []uint32
			for len(batch) < 32 {
				head, ok := vq.Ring.PopAvail()
				if !ok {
					break
				}
				r, err := virtio.ParseChain(vq, head)
				if err != nil {
					virtio.Reject(vq, head, q.irqs[vq])
					continue
				}
				t, sector := r.BlkHeader(vq)
				batch = append(batch, r)
				sectors = append(sectors, sector)
				types = append(types, t)
			}
			if len(batch) == 0 {
				continue
			}
			did = true
			q.Requests += uint64(len(batch))
			payTurn()
			th.Exec(p, par.QEMUElem*sim.Duration(len(batch)))

			for i := 0; i < len(batch); {
				r := batch[i]
				t := types[i]
				switch t {
				case virtio.BlkTFlush:
					fr := r
					fvq := vq
					bio := &blockdev.Bio{Op: blockdev.BioFlush, OnDone: func(st nvme.Status) {
						status := byte(0)
						if !st.OK() {
							status = 1
						}
						fr.Complete(fvq, status)
						if fn := q.irqs[fvq]; fn != nil {
							fn()
						}
					}}
					q.bdev.SubmitBio(p, th, bio)
					i++
					continue
				case virtio.BlkTDiscard:
					sector, nsect := r.DiscardSegment(vq)
					fr := r
					fvq := vq
					bio := &blockdev.Bio{Op: blockdev.BioDiscard, Sector: sector, NSect: nsect, OnDone: func(st nvme.Status) {
						fr.Complete(fvq, 0)
						if fn := q.irqs[fvq]; fn != nil {
							fn()
						}
					}}
					q.bdev.SubmitBio(p, th, bio)
					i++
					continue
				}
				// Merge run of adjacent same-type requests.
				j := i + 1
				total := r.DataLen()
				if par.QEMUMerge {
					for j < len(batch) && types[j] == t &&
						sectors[j] == sectors[j-1]+uint64(batch[j-1].DataLen())/512 &&
						total+batch[j].DataLen() <= par.QEMUMergeMax {
						total += batch[j].DataLen()
						j++
					}
				}
				fl := &qemuInflight{reqs: batch[i:j], vq: vq, read: t == virtio.BlkTIn, buf: make([]byte, total)}
				if t == virtio.BlkTOut {
					off := 0
					for k := i; k < j; k++ {
						batch[k].ReadData(vq, fl.buf[off:off+batch[k].DataLen()])
						off += batch[k].DataLen()
					}
				}
				if j > i+1 {
					q.Merged += uint64(j - i - 1)
				}
				nextID++
				inflight[nextID] = fl
				q.inflightN++
				th.Exec(p, par.QEMUSubmit) // block layer, per merged request
				op := blockdev.BioRead
				if t == virtio.BlkTOut {
					op = blockdev.BioWrite
				}
				ring.Submit(p, th, op, sectors[i], fl.buf, nextID)
				i = j
			}
		}

		q.busy--
		if !did {
			// Adaptive polling (iothread poll-max-ns): spin only while
			// recent event spacing suggests polling will succeed;
			// otherwise block in ppoll and pay the wake-up plus a fresh
			// event-loop turn — the QD1 regime.
			if plugged || (pollWorthwhile && idleSpin < par.QEMUPollNS) {
				// Keep polling: either a plug timer is running or event
				// spacing suggests more work is imminent.
				th.Exec(p, sim.Microsecond)
				if !plugged {
					idleSpin += sim.Microsecond
				}
				continue
			}
			pollWorthwhile = false
			it.asleep = true
			q.Sleeps++
			wakeWait(p, it.wake, par.WakeLat)
			it.asleep = false
			turnDue = true
			idleSpin = 0
		} else {
			if gap := p.Now().Sub(lastWork); gap < par.QEMUPollNS {
				pollWorthwhile = true
			}
			lastWork = p.Now()
			idleSpin = 0
		}
	}
}

func (q *qemuVM) anyAvail() bool {
	for _, vq := range q.queues {
		if vq.Ring.AvailPending() {
			return true
		}
	}
	return false
}
