package blockdev

import (
	"fmt"

	"nvmetro/internal/device"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// dmaPool hands out page-aligned DMA buffers in host kernel memory with
// per-size free lists, so steady-state I/O allocates nothing.
type dmaPool struct {
	mem  *guestmem.Memory
	free map[int][][]uint64 // npages -> list of page sets
}

func newDMAPool(mem *guestmem.Memory) *dmaPool {
	return &dmaPool{mem: mem, free: make(map[int][][]uint64)}
}

func (p *dmaPool) get(npages int) []uint64 {
	l := p.free[npages]
	if n := len(l); n > 0 {
		pages := l[n-1]
		p.free[npages] = l[:n-1]
		return pages
	}
	base := p.mem.MustAllocPages(npages)
	pages := make([]uint64, npages)
	for i := range pages {
		pages[i] = base + uint64(i)*guestmem.PageSize
	}
	return pages
}

func (p *dmaPool) put(pages []uint64) {
	p.free[len(pages)] = append(p.free[len(pages)], pages)
}

// The host driver's error-recovery policy, the sim equivalent of the
// kernel's nvme_timeout/abort/reset ladder. The deadline sits far above
// any loaded-device latency (bandwidth-bound sequential writes at QD512
// legitimately queue ~20 ms in the model), so it only fires on genuinely
// lost completions. A timed-out CID stays quarantined for twice the
// deadline (nvme.TagTable).
const (
	CommandTimeout = 100 * sim.Millisecond // per-command deadline
	MaxRetries     = 3                     // resubmissions after a timeout before failing the bio
	RetryBackoff   = 100 * sim.Microsecond // first retry delay; doubles per attempt
)

// NVMeBlockDev is the host NVMe driver's block device: bios are translated
// to NVMe commands on a dedicated host queue pair, data is bounced through
// kernel DMA buffers, and completions are handled in a simulated interrupt
// context thread.
type NVMeBlockDev struct {
	env     *sim.Env
	dev     *device.Device
	nsid    uint32
	part    device.Partition
	costs   Costs
	qp      *nvme.QueuePair
	hostmem *guestmem.Memory
	pool    *dmaPool
	irq     *sim.Thread
	irqCond *sim.Cond
	tags    *nvme.TagTable[*pendingBio]
	waitCID *sim.Cond
	shift   uint8

	timer   *sim.Cond // wakes the deadline timer when push arms an earlier deadline
	timerAt sim.Time  // when the deadline timer next wakes by itself; 0 while parked

	// Stats
	Submitted, Completed uint64
	Timeouts             uint64 // commands that hit their deadline
	Retries              uint64 // resubmissions after a timeout
	Aborts               uint64 // bios failed after exhausting retries
	Stale                uint64 // late completions for quarantined CIDs
	StaleReclaimed       uint64 // late completions for already-reclaimed tags
	Reclaimed            uint64 // quarantined CIDs recycled without a completion
	PRPErrors            uint64 // bios failed at PRP build
	GuardErrors          uint64 // reads failing protection-info verification

	verifier ReadVerifier
}

// ReadVerifier checks read payloads against per-block protection info at
// the driver's completion boundary (satisfied by *integrity.SectorGuard).
type ReadVerifier interface {
	VerifySectors(sector uint64, data []byte) bool
}

type pendingBio struct {
	bio       *Bio
	pages     []uint64
	listPages []uint64
	cmd       nvme.Command // retryable command image (CID rewritten per attempt)
	attempts  int          // submissions so far
}

// NewNVMeBlockDev creates the host block device over a partition of the
// physical device. irqCore hosts the interrupt handler context.
func NewNVMeBlockDev(env *sim.Env, part device.Partition, cpu *sim.CPU, irqCore int, costs Costs) *NVMeBlockDev {
	hostmem := guestmem.New(512 << 20)
	d := &NVMeBlockDev{
		env:     env,
		dev:     part.Dev,
		nsid:    part.NSID,
		part:    part,
		costs:   costs,
		hostmem: hostmem,
		pool:    newDMAPool(hostmem),
		irq:     cpu.ThreadOn(irqCore, "kernel/irq"),
		irqCond: sim.NewCond(env),
		tags:    nvme.NewTagTable[*pendingBio](env, 1023, CommandTimeout),
		waitCID: sim.NewCond(env),
		shift:   part.Dev.Params().LBAShift,

		timer: sim.NewCond(env),
	}
	d.qp = part.Dev.CreateQueuePair(1024, hostmem)
	d.qp.CQ.OnPost = func() { d.irqCond.Signal(nil) }
	env.Go(fmt.Sprintf("kernel/nvme-irq-ns%d", part.NSID), d.irqLoop)
	env.Go(fmt.Sprintf("kernel/nvme-timer-ns%d", part.NSID), d.timerLoop)
	return d
}

// SetVerifier installs a protection-info verifier on the read completion
// path (nil detaches). A read whose payload fails verification completes
// with a guard-check media error instead of delivering wrong data.
func (d *NVMeBlockDev) SetVerifier(v ReadVerifier) { d.verifier = v }

// Partition returns the device partition this block device covers.
func (d *NVMeBlockDev) Partition() device.Partition { return d.part }

// NumSectors implements BlockDevice.
func (d *NVMeBlockDev) NumSectors() uint64 {
	return d.part.Blocks << d.shift / SectorSize
}

// lba converts a 512-byte sector to a device LBA within the partition.
func (d *NVMeBlockDev) lba(sector uint64) uint64 {
	return d.part.Start + sector*SectorSize>>d.shift
}

// SubmitBio implements BlockDevice.
func (d *NVMeBlockDev) SubmitBio(p *sim.Proc, thread *sim.Thread, b *Bio) {
	thread.Exec(p, d.costs.Submit)
	// The CID is assigned per attempt, in push.
	pend := &pendingBio{bio: b}
	var cmd nvme.Command
	switch b.Op {
	case BioFlush:
		cmd = nvme.NewFlush(0, d.nsid)
	case BioDiscard:
		cmd.SetOpcode(nvme.OpDSM)
		cmd.SetNSID(d.nsid)
		cmd.SetSLBA(d.lba(b.Sector))
		cmd.SetNLB(uint16(uint64(b.NSect)*SectorSize>>d.shift - 1))
	case BioRead, BioWrite:
		npages := (len(b.Data) + guestmem.PageSize - 1) / guestmem.PageSize
		pend.pages = d.pool.get(npages)
		op := nvme.OpRead
		if b.Op == BioWrite {
			op = nvme.OpWrite
			// Copy data into the DMA buffer (kernel bounce).
			for i, pg := range pend.pages {
				off := i * guestmem.PageSize
				d.hostmem.WriteAt(b.Data[off:min(off+guestmem.PageSize, len(b.Data))], pg)
			}
		}
		blocks := uint32(len(b.Data)) >> d.shift
		prp1, prp2, err := nvme.BuildPRP(d.hostmem, pend.pages, func() uint64 {
			pg := d.pool.get(1)
			pend.listPages = append(pend.listPages, pg[0])
			return pg[0]
		})
		if err != nil {
			// A malformed transfer fails this one bio, not the whole sim.
			d.PRPErrors++
			d.releaseDMA(pend)
			if b.OnDone != nil {
				b.OnDone(nvme.SCInternal)
			}
			return
		}
		cmd = nvme.NewRW(op, 0, d.nsid, d.lba(b.Sector), blocks, prp1, prp2)
	}
	pend.cmd = cmd
	d.push(pend)
}

// push waits for a free CID and SQ slot, installs pend under the CID and
// submits its command; the tag table arms the deadline. Every attempt is
// stamped with a fresh generation so the irq handler can match
// completions to the attempt that earned them. Deadlines are uniform, so
// the timer needs waking only while parked or waiting out a quarantine.
func (d *NVMeBlockDev) push(pend *pendingBio) {
	for d.tags.Free() == 0 || d.qp.SQ.Full() {
		d.waitCID.Wait()
	}
	pend.attempts++
	cid, gen, _ := d.tags.Acquire(pend)
	pend.cmd.SetCID(cid)
	pend.cmd.SetCDW(nvme.GenDW, gen)
	d.qp.SQ.Push(&pend.cmd)
	d.Submitted++
	d.dev.Ring(d.qp.SQ.ID)
	if due := d.env.Now().Add(CommandTimeout); d.timerAt == 0 || due < d.timerAt {
		d.timer.Signal(nil)
	}
}

// timerLoop is the device's one deadline timer: it waits until the tag
// table's next due time, recycles expired quarantines and times out
// overdue commands, and parks while nothing is armed. push wakes it early
// when it arms a deadline before that time. At most one live timer event
// is ever queued, however many commands are in flight.
func (d *NVMeBlockDev) timerLoop(p *sim.Proc) {
	for {
		at, ok := d.tags.NextDue()
		switch {
		case !ok:
			d.timerAt = 0
			d.timer.Wait()
		case at > p.Now():
			d.timerAt = at
			d.timer.WaitTimeout(at.Sub(p.Now()))
		default:
			for n := d.tags.Reclaim(); n > 0; n-- {
				d.Reclaimed++
				d.waitCID.Signal(nil)
			}
			for pend, ok := d.tags.Expire(); ok; pend, ok = d.tags.Expire() {
				d.onTimeout(pend)
			}
		}
	}
}

// onTimeout fails a command that missed its deadline once its retries
// are spent; otherwise a retry process resubmits it after exponential
// backoff under a new CID (the tag table quarantined the old one).
func (d *NVMeBlockDev) onTimeout(pend *pendingBio) {
	d.Timeouts++
	if pend.attempts > MaxRetries {
		d.Aborts++
		d.finishBio(pend, nvme.SCAbortRequested)
		return
	}
	d.env.Go(fmt.Sprintf("kernel/nvme-retry-ns%d", d.nsid), func(p *sim.Proc) {
		p.Sleep(RetryBackoff << (pend.attempts - 1))
		d.irq.Exec(p, d.costs.Submit)
		d.Retries++
		d.push(pend)
	})
}

func (d *NVMeBlockDev) irqLoop(p *sim.Proc) {
	var e nvme.Completion
	for {
		d.irqCond.Wait()
		for d.qp.CQ.Pop(&e) {
			d.irq.Exec(p, d.costs.Complete)
			// The device echoes the submission generation in DW0; a
			// timed-out attempt's late completion is counted, never
			// delivered.
			pend, m := d.tags.Complete(e.CID(), e.Result())
			switch m {
			case nvme.TagLive:
				d.waitCID.Signal(nil)
				d.finishBio(pend, e.Status())
			case nvme.TagStale:
				d.Stale++
				d.waitCID.Signal(nil)
			default:
				d.StaleReclaimed++
			}
		}
	}
}

// finishBio copies read data back, releases DMA resources and reports the
// final status. Safe from both process and callback context.
func (d *NVMeBlockDev) finishBio(pend *pendingBio, st nvme.Status) {
	if pend.bio.Op == BioRead && st.OK() {
		for i, pg := range pend.pages {
			off := i * guestmem.PageSize
			d.hostmem.ReadAt(pend.bio.Data[off:min(off+guestmem.PageSize, len(pend.bio.Data))], pg)
		}
		if d.verifier != nil && !d.verifier.VerifySectors(pend.bio.Sector, pend.bio.Data) {
			// The device returned data that contradicts its protection
			// info: surface a guard error instead of wrong data. The
			// payload stays in bio.Data for layers (the scrubber) that
			// diagnose the damage.
			d.GuardErrors++
			st = nvme.SCGuardCheck
		}
	}
	d.releaseDMA(pend)
	d.Completed++
	if pend.bio.OnDone != nil {
		pend.bio.OnDone(st)
	}
}

// releaseDMA returns the pending bio's bounce and PRP-list pages.
func (d *NVMeBlockDev) releaseDMA(pend *pendingBio) {
	if pend.pages != nil {
		d.pool.put(pend.pages)
		pend.pages = nil
	}
	for _, lp := range pend.listPages {
		d.pool.put([]uint64{lp})
	}
	pend.listPages = nil
}
