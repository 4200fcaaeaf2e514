package stack

import (
	"fmt"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/dm"
	"nvmetro/internal/nvme"
	"nvmetro/internal/scsi"
	"nvmetro/internal/sim"
	"nvmetro/internal/virtio"
	"nvmetro/internal/vm"
)

// VhostSCSI is the in-kernel paravirtual baseline: a virtio-scsi guest
// driver served by a kernel vhost worker thread that decodes CDBs and
// submits bios to the host block layer. Backend may be the raw device or a
// device-mapper stack (dm-crypt, dm-mirror), giving the paper's encrypted
// and mirrored baselines.
type VhostSCSI struct {
	h *Host
	// Backend builds the block device a VM's LUN maps to; nil = raw device
	// partition.
	Backend func(part device.Partition) blockdev.BlockDevice
	name    string
}

// NewVhostSCSI creates the plain configuration.
func NewVhostSCSI(h *Host) *VhostSCSI { return &VhostSCSI{h: h, name: "Vhost"} }

// NewVhostDMCrypt stacks dm-crypt under vhost-scsi (the paper's encryption
// baseline).
func NewVhostDMCrypt(h *Host, key []byte) *VhostSCSI {
	return &VhostSCSI{h: h, name: "dm-crypt", Backend: func(part device.Partition) blockdev.BlockDevice {
		lower := blockdev.NewNVMeBlockDev(h.Env, part, h.CPU, h.guestCores, h.Params.Block)
		crypt, err := dm.NewCrypt(h.Env, lower, key, h.Params.Crypt, h.CPU)
		if err != nil {
			panic(err)
		}
		return crypt
	}}
}

// NewVhostDMMirror stacks dm-mirror under vhost-scsi (the replication
// baseline); secondary provides the remote leg.
func NewVhostDMMirror(h *Host, secondary func(part device.Partition) blockdev.BlockDevice) *VhostSCSI {
	return &VhostSCSI{h: h, name: "dm-mirror", Backend: func(part device.Partition) blockdev.BlockDevice {
		lower := blockdev.NewNVMeBlockDev(h.Env, part, h.CPU, h.guestCores, h.Params.Block)
		return &dm.Mirror{Primary: lower, Secondary: secondary(part)}
	}}
}

// Name implements Solution.
func (s *VhostSCSI) Name() string { return s.name }

// Provision implements Solution.
func (s *VhostSCSI) Provision(v *vm.VM, part device.Partition) vm.Disk {
	var bdev blockdev.BlockDevice
	if s.Backend != nil {
		bdev = s.Backend(part)
	} else {
		bdev = blockdev.NewNVMeBlockDev(s.h.Env, part, s.h.CPU, s.h.guestCores, s.h.Params.Block)
	}
	w := &vhostVM{
		h: s.h, v: v, bdev: bdev,
		wake: sim.NewCond(s.h.Env),
		irqs: make(map[*virtio.Queue]func()),
	}
	disk := virtio.NewSCSIDisk(v, w, part.Info(), 256, s.h.Params.Driver)
	w.queues = disk.Queues()
	for i := 0; i < s.h.Params.VhostWorkers; i++ {
		th := s.h.HostThread("vhost")
		s.h.Env.Go(fmt.Sprintf("vhost-%d-vm%d", i, v.ID), func(p *sim.Proc) { w.worker(p, th) })
	}
	return disk
}

type vhostVM struct {
	h      *Host
	v      *vm.VM
	bdev   blockdev.BlockDevice
	queues []*virtio.Queue
	wake   *sim.Cond
	irqs   map[*virtio.Queue]func()
	asleep int
	busy   int

	completions []vhostDone
	inflight    int
}

type vhostDone struct {
	req    virtio.DeviceReq
	vq     *virtio.Queue
	status byte
	read   bool
	buf    []byte
}

// Kick implements virtio.Transport: an ioeventfd exit, cheaper than a full
// trap-and-emulate but still a guest-mode exit.
func (w *vhostVM) Kick(p *sim.Proc, vcpu *sim.Thread, vq *virtio.Queue) {
	vcpu.Exec(p, w.h.Params.VhostKick)
	if w.asleep > 0 {
		w.wake.Signal(nil)
	}
}

// SetIRQ implements virtio.Transport.
func (w *vhostVM) SetIRQ(vq *virtio.Queue, fn func()) { w.irqs[vq] = fn }

func (w *vhostVM) hint() {
	if w.asleep > 0 {
		w.wake.Signal(nil)
	}
}

func (w *vhostVM) worker(p *sim.Proc, th *sim.Thread) {
	par := w.h.Params
	for {
		did := false

		// Deliver finished commands back to the guest.
		for len(w.completions) > 0 {
			d := w.completions[0]
			w.completions = w.completions[1:]
			th.Exec(p, par.VhostComplete)
			if d.read && d.status == scsi.StatusGood {
				d.req.WriteData(d.vq, d.buf)
			}
			d.req.Complete(d.vq, d.status)
			th.Exec(p, par.VhostInject)
			if fn := w.irqs[d.vq]; fn != nil {
				fn()
			}
			w.inflight--
			did = true
		}

		// Service new requests.
		for _, vq := range w.queues {
			for {
				head, ok := vq.Ring.PopAvail()
				if !ok {
					break
				}
				did = true
				r, err := virtio.ParseChain(vq, head)
				if err != nil {
					virtio.Reject(vq, head, w.irqs[vq])
					continue
				}
				th.Exec(p, par.VhostParse)
				cmd, err := virtio.ParseSCSICDB(vq.Mem, r.HdrAddr)
				if err != nil {
					w.finish(vhostDone{req: r, vq: vq, status: scsi.StatusCheckCondition})
					continue
				}
				w.inflight++
				w.dispatch(p, th, vq, r, cmd)
			}
		}

		if !did {
			if w.inflight == 0 && len(w.completions) == 0 {
				w.asleep++
				wakeWait(p, w.wake, par.WakeLat)
				w.asleep--
			} else {
				// Block until bio completions arrive (finish() hints),
				// paying the full scheduler wake-up like a real kthread.
				w.asleep++
				wakeWait(p, w.wake, par.WakeLat)
				w.asleep--
			}
		}
	}
}

func (w *vhostVM) finish(d vhostDone) {
	w.completions = append(w.completions, d)
	w.hint()
}

func (w *vhostVM) dispatch(p *sim.Proc, th *sim.Thread, vq *virtio.Queue, r virtio.DeviceReq, cmd scsi.Cmd) {
	toStatus := func(st nvme.Status) byte {
		if st.OK() {
			return scsi.StatusGood
		}
		return scsi.StatusCheckCondition
	}
	switch {
	case cmd.IsRead():
		buf := make([]byte, r.DataLen())
		bio := &blockdev.Bio{Op: blockdev.BioRead, Sector: cmd.LBA, Data: buf}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st), read: true, buf: buf})
		}
		w.bdev.SubmitBio(p, th, bio)
	case cmd.IsWrite():
		buf := make([]byte, r.DataLen())
		r.ReadData(vq, buf)
		bio := &blockdev.Bio{Op: blockdev.BioWrite, Sector: cmd.LBA, Data: buf}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st)})
		}
		w.bdev.SubmitBio(p, th, bio)
	case cmd.Op == scsi.OpSyncCache10:
		bio := &blockdev.Bio{Op: blockdev.BioFlush}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st)})
		}
		w.bdev.SubmitBio(p, th, bio)
	case cmd.Op == scsi.OpUnmap:
		bio := &blockdev.Bio{Op: blockdev.BioDiscard, Sector: cmd.LBA, NSect: cmd.Blocks}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st)})
		}
		w.bdev.SubmitBio(p, th, bio)
	default:
		w.finish(vhostDone{req: r, vq: vq, status: scsi.StatusGood})
	}
}
