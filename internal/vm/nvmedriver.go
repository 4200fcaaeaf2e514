package vm

import (
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Port is what the guest NVMe driver plugs into: a virtual or physical NVMe
// controller exposing queue pairs. Implementations are the passthrough
// device binding, MDev-NVMe, and NVMetro's virtual controller.
type Port interface {
	// Namespace geometry seen by the guest.
	Namespace() nvme.NamespaceInfo
	// CreateQP allocates an I/O queue pair of the given depth. The returned
	// queues live in memory shared between guest and controller.
	CreateQP(depth uint32) *nvme.QueuePair
	// Ring is the submission doorbell for a queue. For mediated,
	// shadow-doorbell controllers it may be a no-op (the host polls).
	Ring(qid uint16)
	// SetIRQ registers the guest's completion interrupt callback for a
	// queue. The port is responsible for modeling delivery cost and delay;
	// fn runs in callback context (non-blocking).
	SetIRQ(qid uint16, fn func())
}

// DriverCosts models the guest NVMe driver's per-command CPU costs
// (block layer + driver submission path, and per-CQE completion handling).
type DriverCosts struct {
	Submit   sim.Duration
	Complete sim.Duration
}

// DefaultDriverCosts returns the calibrated guest driver cost model.
func DefaultDriverCosts() DriverCosts {
	return DriverCosts{Submit: 800 * sim.Nanosecond, Complete: 700 * sim.Nanosecond}
}

// qpState is a per-queue-pair driver context: tag allocation, outstanding
// request tracking and the completion handler.
type qpState struct {
	qp        *nvme.QueuePair
	vcpu      *sim.Thread
	reqs      *nvme.TagTable[*Req] // CID -> outstanding request
	listPages [][]uint64           // preallocated PRP list pages by CID
	slotCond  *sim.Cond            // waiters for a free slot
	irqCond   *sim.Cond            // completion notification
}

// NVMeDisk is the guest NVMe driver: it implements Disk on top of a Port,
// with one queue pair per vCPU (NVMe's lockless per-CPU queue model).
type NVMeDisk struct {
	vm    *VM
	port  Port
	costs DriverCosts
	info  nvme.NamespaceInfo
	qps   map[*sim.Thread]*qpState
	order []*qpState
}

// NewNVMeDisk initializes the driver: creates one queue pair of the given
// depth per vCPU and starts the completion handlers.
func NewNVMeDisk(v *VM, port Port, depth uint32, costs DriverCosts) *NVMeDisk {
	d := &NVMeDisk{vm: v, port: port, costs: costs, info: port.Namespace(), qps: make(map[*sim.Thread]*qpState)}
	for i := 0; i < v.NumVCPUs(); i++ {
		vcpu := v.VCPU(i)
		st := &qpState{
			qp:       port.CreateQP(depth),
			vcpu:     vcpu,
			reqs:     nvme.NewTagTable[*Req](nil, int(depth), 0),
			slotCond: sim.NewCond(v.Env),
			irqCond:  sim.NewCond(v.Env),
		}
		st.listPages = make([][]uint64, depth)
		for cid := range st.listPages {
			// One PRP list page per slot supports transfers to 2 MiB.
			st.listPages[cid] = []uint64{v.Mem.MustAllocPages(1)}
		}
		port.SetIRQ(st.qp.SQ.ID, func() { st.irqCond.Signal(nil) })
		d.qps[vcpu] = st
		d.order = append(d.order, st)
		v.Env.Go(fmt.Sprintf("vm%d/nvme-irq-q%d", v.ID, st.qp.SQ.ID), func(p *sim.Proc) { d.completionLoop(p, st) })
	}
	return d
}

// BlockSize implements Disk.
func (d *NVMeDisk) BlockSize() uint32 { return d.info.BlockSize() }

// Blocks implements Disk.
func (d *NVMeDisk) Blocks() uint64 { return d.info.Size }

func (d *NVMeDisk) qpFor(vcpu *sim.Thread) *qpState {
	if st := d.qps[vcpu]; st != nil {
		return st
	}
	// Foreign thread (e.g. host-side test): use the first queue.
	return d.order[0]
}

// Submit implements Disk. It builds the NVMe command (including the PRP
// chain written into guest memory), pushes it to the per-vCPU submission
// queue and rings the doorbell. If the queue or tag space is full the
// calling process waits — matching a guest block layer with a bounded
// device queue.
func (d *NVMeDisk) Submit(p *sim.Proc, vcpu *sim.Thread, r *Req) {
	st := d.qpFor(vcpu)
	r.Submitted = p.Now()
	vcpu.Exec(p, d.costs.Submit)

	for st.reqs.Free() == 0 || st.qp.SQ.Full() {
		st.slotCond.Wait()
	}
	cid, _, _ := st.reqs.Acquire(r)

	var cmd nvme.Command
	switch r.Op {
	case OpFlush:
		cmd = nvme.NewFlush(cid, 1)
	case OpTrim:
		cmd = nvme.Command{}
		cmd.SetOpcode(nvme.OpDSM)
		cmd.SetCID(cid)
		cmd.SetNSID(1)
		cmd.SetSLBA(r.LBA)
		cmd.SetNLB(uint16(r.Blocks - 1))
	default:
		op := nvme.OpRead
		if r.Op == OpWrite {
			op = nvme.OpWrite
		}
		lp := st.listPages[cid]
		li := 0
		alloc := func() uint64 {
			if li >= len(lp) {
				panic("vm: transfer exceeds preallocated PRP list pages")
			}
			a := lp[li]
			li++
			return a
		}
		prp1, prp2, err := nvme.BuildPRP(d.vm.Mem, r.BufPages, alloc)
		if err != nil {
			panic(err)
		}
		cmd = nvme.NewRW(op, cid, 1, r.LBA, r.Blocks, prp1, prp2)
	}

	if !st.qp.SQ.Push(&cmd) {
		panic("vm: SQ full after slot reservation")
	}
	d.port.Ring(st.qp.SQ.ID)
}

func (d *NVMeDisk) completionLoop(p *sim.Proc, st *qpState) {
	var e nvme.Completion
	for {
		st.irqCond.Wait()
		// Interrupt handler entry on the owning vCPU.
		st.vcpu.Exec(p, d.vm.Costs.GuestIRQ)
		for st.qp.CQ.Pop(&e) {
			st.vcpu.Exec(p, d.costs.Complete)
			r, ok := st.reqs.Release(e.CID())
			if !ok {
				panic(fmt.Sprintf("vm: completion for idle cid %d", e.CID()))
			}
			st.slotCond.Signal(nil)
			r.Complete(d.vm.Env, e.Status())
		}
	}
}
