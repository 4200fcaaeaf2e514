package main

import (
	"bytes"
	"encoding/binary"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/qos"
	"nvmetro/internal/shard"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

// workload is one benchmark input: how to build it and how much virtual
// time to measure exactly.
type workload struct {
	name string
	// warm is the virtual warm-up between the end of set-up and the
	// first measured operation.
	warm sim.Duration
	// window is the fixed virtual window after warm-up whose outputs are
	// exact: the virtual-time metrics and the determinism digest.
	window sim.Duration
	build  func(w workload, seed int64, traced bool) *instance
}

var workloads = []workload{
	{name: "poll-qd1", warm: 2 * sim.Millisecond, window: 60 * sim.Millisecond, build: buildPollQD1},
	{name: "fleet-rw", warm: 2 * sim.Millisecond, window: 20 * sim.Millisecond, build: buildFleetRW},
	{name: "ycsb-enc", warm: 5 * sim.Millisecond, window: 300 * sim.Millisecond, build: buildYCSBEnc},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one built workload: a simulation whose set-up is done, ready
// for its measured run.
type instance struct {
	env     *sim.Env
	cpu     *sim.CPU
	pat     *pattern
	log     *opLog
	chk     *tally
	disks   []*checkDisk
	routers []*core.Router
	store   *storeStats // nil unless traced
	kv      []*kvJob    // ycsb-enc only
	// tenants are the QoS tenants of fleet-rw, grouped by shard.
	tenants []tenant

	measFrom sim.Time
	run      func()      // drives the simulation until the pacer stops it
	stop     func()      // stops the workload's generators
	idle     func() bool // reports whether everything has drained
	verify   func()      // post-run output checks, into chk
}

// tenant is one fleet-rw QoS tenant.
type tenant struct {
	disk   *checkDisk
	shard  int
	weight float64
}

const (
	ioSize    = 4096
	lbaSize   = 512
	ioLBAs    = ioSize / lbaSize
	guardIOs  = 16 // pattern blocks past the working set the workload never touches
	neverStop = sim.Duration(1 << 50)
)

// wrapStore returns st, timed when tracing.
func (in *instance) wrapStore(st device.Store) device.Store {
	if in.store == nil {
		return st
	}
	return &timedStore{inner: st, st: in.store}
}

func newInstance(seed int64, traced bool) *instance {
	in := &instance{env: sim.New(seed), pat: newPattern(seed), log: &opLog{}, chk: &tally{}}
	if traced {
		in.store = &storeStats{}
	}
	return in
}

// pattern generates the benchmark's data: pre-fill blocks and KV values.
// Each piece is a slice of a seeded pool of random bytes at an offset
// hashed from its identity, stamped with that hash in its first 8 bytes,
// so every piece is distinct but costs one copy rather than a stream of
// random numbers (which would otherwise dominate set-up time).
type pattern struct {
	pool []byte
	seed uint64
}

const patternPool = 64 << 10

func newPattern(seed int64) *pattern {
	p := &pattern{pool: make([]byte, patternPool), seed: uint64(seed)}
	x := p.seed
	for i := 0; i < len(p.pool); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(p.pool[i:], x)
	}
	return p
}

// splitmix is one step of the SplitMix64 generator.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fill writes piece number piece of stream stream into buf, which must be
// at least 8 and at most patternPool bytes.
func (p *pattern) fill(buf []byte, stream, piece int) {
	h := splitmix(p.seed ^ uint64(stream)<<40 ^ uint64(piece))
	off := int(h%uint64(len(p.pool)-len(buf)+1)) &^ 7
	copy(buf, p.pool[off:])
	binary.LittleEndian.PutUint64(buf, h)
}

// prefill writes the pattern of every block of m straight into the
// namespace store; devLBA is the device LBA of the model's first block.
func prefill(st device.Store, devLBA uint64, m *blockModel) {
	buf := make([]byte, int(m.per)*lbaSize)
	for i := range m.blocks {
		m.pat.fill(buf, m.stream, i)
		st.WriteBlocks(devLBA+uint64(i)*uint64(m.per), buf)
	}
}

// fioPhase wires a closed-loop fio run over the instance's disks: the run
// starts now, warms up for w.warm and measures until the pacer stops it.
func (in *instance) fioPhase(w workload, cfg fio.Config, targets []fio.Target) {
	cfg.Warmup = w.warm
	cfg.Duration = neverStop
	in.measFrom = in.env.Now().Add(w.warm)
	in.run = func() { fio.Run(in.env, in.cpu, targets, cfg) }
	in.stop = func() {} // fio.Run stops its jobs when it returns
	in.idle = func() bool {
		for _, d := range in.disks {
			if d.inflight > 0 {
				return false
			}
		}
		return true
	}
	in.verify = func() {}
}

// buildPollQD1: four single-vCPU VMs, each on its own NVMetro router over
// a partition of one namespace (so the partition classifier runs on every
// command), each running closed-loop QD1 4 KiB random reads over a
// pre-filled 16 MiB working set. Every read is checked against the pattern.
func buildPollQD1(w workload, seed int64, traced bool) *instance {
	const vms, workSet = 4, 16 << 20
	in := newInstance(seed, traced)
	store := device.NewMemStore(lbaSize)
	h := stack.NewHost(in.env, 12, vms, stack.DefaultParams(), in.wrapStore(store))
	in.cpu = h.CPU
	sol := stack.NewNVMetro(h)
	var targets []fio.Target
	for i, part := range device.Carve(h.Dev, 1, vms) {
		v := h.NewVM(1, 16<<20)
		disk := sol.Provision(v, part)
		m := newBlockModel(0, ioLBAs, workSet/ioSize+guardIOs, in.pat, i)
		prefill(store, part.Start, m)
		cd := &checkDisk{inner: disk, mem: v.Mem, model: m, log: in.log, chk: in.chk}
		in.disks = append(in.disks, cd)
		in.routers = append(in.routers, sol.ControllerFor(v).Router())
		targets = append(targets, fio.Target{Disk: cd, VM: v, VCPU: v.VCPU(0)})
	}
	in.fioPhase(w, fio.Config{Mode: fio.RandRead, BlockSize: ioSize, QD: 1, WorkSet: workSet, SharedOffsets: true}, targets)
	return in
}

// buildFleetRW: 32 single-vCPU tenants on a two-shard NVMetro fleet with
// WFQ QoS (weights cycling 1:2:3, no rate caps). Each tenant owns a whole
// namespace on its shard's device, so every tenant is promoted, and runs
// closed-loop QD32 4 KiB random I/O, 70% reads, over a pre-filled 16 MiB
// working set. Reads are checked while the run lasts; afterwards a
// read-back checks sampled written blocks and the untouched guard blocks.
func buildFleetRW(w workload, seed int64, traced bool) *instance {
	const tenants, shards, workSet = 32, 2, 16 << 20
	const nsBlocks = 1 << 17 // 64 MiB per tenant namespace
	in := newInstance(seed, traced)
	p := stack.DefaultParams()
	stores := []*device.MemStore{device.NewMemStore(lbaSize), device.NewMemStore(lbaSize)}
	h := stack.NewHost(in.env, tenants+shards+2, tenants, p, in.wrapStore(stores[0]))
	in.cpu = h.CPU
	devs := []*device.Device{h.Dev, device.New(in.env, p.Device, in.wrapStore(stores[1]))}
	sol := stack.NewNVMetroSharded(h, shards).WithQoS(qos.Config{})
	var targets []fio.Target
	var vms []*vm.VM
	for i := 0; i < tenants; i++ {
		dev := devs[i%shards]
		nsid, store := uint32(1), stores[i%shards]
		if i >= shards {
			nsid = dev.NextNSID()
			store = device.NewMemStore(lbaSize)
			dev.AddNamespace(nsid, nsBlocks, in.wrapStore(store))
		}
		v := h.NewVM(1, 16<<20)
		disk := sol.Provision(v, device.WholeNamespace(dev, nsid))
		weight := float64(1 + i%3)
		sol.SetQoS(v, qos.TenantConfig{Weight: weight})
		m := newBlockModel(0, ioLBAs, workSet/ioSize+guardIOs, in.pat, i)
		prefill(store, 0, m)
		cd := &checkDisk{inner: disk, mem: v.Mem, model: m, log: in.log, chk: in.chk}
		in.disks = append(in.disks, cd)
		targets = append(targets, fio.Target{Disk: cd, VM: v, VCPU: v.VCPU(0)})
		vms = append(vms, v)
		in.tenants = append(in.tenants, tenant{disk: cd, weight: weight})
	}
	fl := sol.Fleet()
	in.routers = []*core.Router{fl.Router()}
	placeTenants(in, fl, vms)
	in.fioPhase(w, fio.Config{Mode: fio.RandRW, WritePct: 30, BlockSize: ioSize, QD: 32, WorkSet: workSet, SharedOffsets: true}, targets)
	in.verify = func() { readBack(in, vms, workSet/ioSize) }
	return in
}

// placeTenants records which shard each fleet tenant landed on.
func placeTenants(in *instance, fl *shard.Fleet, vms []*vm.VM) {
	shardOf := make(map[int]int)
	for _, si := range fl.Info() {
		for _, id := range si.VMs {
			shardOf[id] = si.ID
		}
	}
	for i, v := range vms {
		in.tenants[i].shard = shardOf[v.ID]
	}
}

// readBack re-reads, through each tenant's disk, every 64th written block
// of the working set and all guard blocks; the disk's block model checks
// the data. ws is the working set in model blocks.
func readBack(in *instance, vms []*vm.VM, ws int) {
	const stride = 64
	done := false
	in.env.Go("perfbench-readback", func(p *sim.Proc) {
		for i, d := range in.disks {
			d.log = nil // read-back requests are checks, not workload ops
			base, pages, err := vms[i].Mem.AllocBuffer(ioSize)
			if err != nil {
				in.chk.fail("read-back buffer: %v", err)
				continue
			}
			written := 0
			for b := range d.model.blocks {
				guard := b >= ws
				if !guard {
					if d.model.blocks[b].gen == 0 {
						continue
					}
					written++
					if written%stride != 1 {
						continue
					}
				}
				before := in.chk.failed
				r := &vm.Req{Op: vm.OpRead, LBA: uint64(b) * ioLBAs, Blocks: ioLBAs, Buf: base, BufPages: pages}
				vm.SubmitAndWait(p, d, vms[i].VCPU(0), r)
				if in.chk.failed == before {
					in.chk.ok()
				}
			}
		}
		done = true
	})
	for deadline := in.env.Now().Add(10 * sim.Second); !done && in.env.Now() < deadline; {
		in.env.RunUntil(in.env.Now().Add(sim.Millisecond))
	}
	if !done {
		in.chk.fail("read-back did not finish")
	}
}

// routerCounts sums the public counters of a set of routers.
type routerCounts struct {
	classify, fast, notify, kernel, immediate uint64
	backpressure, promoted, guestErrors       uint64
}

func sumRouters(rs []*core.Router) routerCounts {
	var c routerCounts
	for _, r := range rs {
		c.classify += r.Classifications
		c.fast += r.FastPath
		c.notify += r.NotifyPath
		c.kernel += r.KernelPath
		c.immediate += r.Immediate
		c.backpressure += r.Backpressure
		c.promoted += r.PromotedOps
		c.guestErrors += r.GuestErrors
	}
	return c
}

func (c routerCounts) minus(o routerCounts) routerCounts {
	return routerCounts{
		classify: c.classify - o.classify, fast: c.fast - o.fast, notify: c.notify - o.notify,
		kernel: c.kernel - o.kernel, immediate: c.immediate - o.immediate,
		backpressure: c.backpressure - o.backpressure, promoted: c.promoted - o.promoted,
		guestErrors: c.guestErrors - o.guestErrors,
	}
}

func (c routerCounts) words() []uint64 {
	return []uint64{c.classify, c.fast, c.notify, c.kernel, c.immediate, c.backpressure, c.promoted, c.guestErrors}
}

// qosDeferred sums the arbiter's deferral counter over every tenant.
func qosDeferred(in *instance) uint64 {
	var n uint64
	for _, r := range in.routers {
		for _, t := range r.QoSSnapshot(in.env.Now()) {
			n += t.Deferred
		}
	}
	return n
}

var encryptionKey = bytes.Repeat([]byte{0x42, 0x17}, 32)
