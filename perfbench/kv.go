package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"nvmetro/internal/device"
	"nvmetro/internal/extfs"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/lsm"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
	"nvmetro/internal/xts"
)

const (
	kvJobs     = 2
	kvKeys     = 4000 // over both jobs
	kvValueLen = 1000
)

// kvJob is one YCSB-A client: an lsm.DB on its own extfs window, driven
// by the benchmark's seeded generator, with a shadow copy of the last
// value Put under every key.
type kvJob struct {
	id   int
	pat  *pattern
	db   *lsm.DB
	disk *checkDisk
	keys []string
	vals [][]byte // shadow: last value Put per key
	zip  *zipfGen
	rng  *rand.Rand
	log  *opLog
	chk  *tally

	puts     int
	selfVirt sim.Duration // op spans minus the disk-I/O spans they cover
	stop     bool
	loaded   bool
	done     bool
}

// value returns a fresh value for the job's next Put.
func (j *kvJob) value() []byte {
	v := make([]byte, kvValueLen)
	j.pat.fill(v, 1000+j.id, j.puts)
	j.puts++
	return v
}

// body mounts the job's filesystem, opens the DB, runs the load phase and
// then, once start is broadcast, the YCSB-A mix until stopped.
func (j *kvJob) body(v *vm.VM, vcpu *sim.Thread, window uint64, start *sim.Cond) func(*sim.Proc) {
	return func(p *sim.Proc) {
		defer func() { j.done = true }()
		fs, err := extfs.MountAt(p, v, j.disk, vcpu, extfs.DefaultParams(), uint64(j.id)*window, window)
		if err != nil {
			j.chk.fail("job %d mount: %v", j.id, err)
			return
		}
		if j.db, err = lsm.Open(p, fs, vcpu, lsm.DefaultParams()); err != nil {
			j.chk.fail("job %d open: %v", j.id, err)
			return
		}
		for k, key := range j.keys {
			j.vals[k] = j.value()
			if err := j.db.Put(p, key, j.vals[k]); err != nil {
				j.chk.fail("job %d load %s: %v", j.id, key, err)
				return
			}
		}
		if err := j.db.Flush(p); err != nil {
			j.chk.fail("job %d load flush: %v", j.id, err)
			return
		}
		j.loaded = true
		start.Wait()
		for !j.stop {
			if !j.op(p) {
				return
			}
		}
	}
}

// op runs one YCSB-A operation (50% Get, 50% Put over zipfian keys) and
// checks a Get against the shadow. It reports false on failure.
func (j *kvJob) op(p *sim.Proc) bool {
	k := j.zip.next(j.rng)
	key := j.keys[k]
	t0, io0 := p.Now(), j.disk.ioVirt
	if j.rng.Intn(2) == 0 {
		got, err := j.db.Get(p, key)
		if err != nil {
			j.chk.fail("job %d get %s: %v", j.id, key, err)
			return false
		}
		if !bytes.Equal(got, j.vals[k]) {
			j.chk.fail("job %d get %s: value differs from the last put", j.id, key)
			return false
		}
	} else {
		val := j.value()
		if err := j.db.Put(p, key, val); err != nil {
			j.chk.fail("job %d put %s: %v", j.id, key, err)
			return false
		}
		j.vals[k] = val
	}
	span := p.Now().Sub(t0)
	j.selfVirt += span - (j.disk.ioVirt - io0)
	j.chk.ok()
	j.log.record(p.Now(), span)
	return true
}

// zipfGen is YCSB's scrambled zipfian generator (theta 0.99) over [0, n).
type zipfGen struct {
	n                   int
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n int) *zipfGen {
	const theta = 0.99
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfGen{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfGen) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	idx := 0
	switch {
	case uz < 1:
	case uz < z.half:
		idx = 1
	default:
		idx = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if idx >= z.n {
			idx = z.n - 1
		}
	}
	// Scramble so hot keys spread over the keyspace, as YCSB does.
	return int(uint64(idx) * 2654435761 % uint64(z.n))
}

// writeSampler keeps the plaintext of every 64th write the guest issues,
// the latest few of them, and notes when a later write overlaps one.
type writeSampler struct {
	n       int
	samples []*writeSample
}

type writeSample struct {
	lba         uint64
	data        []byte
	overwritten bool
}

const (
	sampleEvery = 64
	sampleKeep  = 8
)

func (s *writeSampler) note(mem *guestmem.Memory, r *vm.Req, bs uint32) {
	n := uint64(r.Blocks)
	for _, w := range s.samples {
		wn := uint64(len(w.data)) / uint64(bs)
		if r.LBA < w.lba+wn && w.lba < r.LBA+n {
			w.overwritten = true
		}
	}
	s.n++
	if s.n%sampleEvery != 0 {
		return
	}
	w := &writeSample{lba: r.LBA, data: make([]byte, r.Bytes(bs))}
	if err := mem.ReadAt(w.data, r.Buf); err != nil {
		panic(err) // the buffer came from the guest's own allocator
	}
	if len(s.samples) == sampleKeep {
		s.samples = s.samples[1:]
	}
	s.samples = append(s.samples, w)
}

// buildYCSBEnc: one 4-vCPU VM on NVMetro with the XTS encryption UIF
// (notify path). Two jobs each run an lsm.DB on their own extfs window and
// a YCSB-A mix over their half of the keys; the load phase is set-up.
func buildYCSBEnc(w workload, seed int64, traced bool) *instance {
	in := newInstance(seed, traced)
	store := device.NewMemStore(lbaSize)
	h := stack.NewHost(in.env, 12, 4, stack.DefaultParams(), in.wrapStore(store))
	in.cpu = h.CPU
	v := h.NewVM(4, 512<<20)
	sol := stack.NewNVMetro(h).WithEncryption(encryptionKey, false)
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
	in.routers = append(in.routers, sol.ControllerFor(v).Router())

	start := sim.NewCond(in.env)
	window := disk.Blocks() / kvJobs
	sampler := &writeSampler{}
	for id := 0; id < kvJobs; id++ {
		j := &kvJob{id: id, pat: in.pat, log: in.log, chk: in.chk, zip: newZipf(kvKeys / kvJobs),
			rng: rand.New(rand.NewSource(seed*kvJobs + int64(id)))}
		j.disk = &checkDisk{inner: disk, mem: v.Mem, chk: in.chk, writes: sampler}
		for k := 0; k < kvKeys/kvJobs; k++ {
			j.keys = append(j.keys, fmt.Sprintf("user%012d", id*kvKeys/kvJobs+k))
		}
		j.vals = make([][]byte, len(j.keys))
		in.kv = append(in.kv, j)
		in.disks = append(in.disks, j.disk)
		in.env.Go(fmt.Sprintf("perfbench-kv%d", id), j.body(v, v.VCPU(id), window, start))
	}
	// The load phase is set-up: drive it to completion.
	for !in.kvLoaded() {
		in.env.RunUntil(in.env.Now().Add(10 * sim.Millisecond))
		if in.env.Now() > sim.Time(100*sim.Second) {
			in.chk.fail("ycsb load did not finish")
			break
		}
	}
	in.measFrom = in.env.Now().Add(w.warm)
	in.run = func() {
		start.Broadcast()
		in.env.RunUntil(sim.Time(neverStop))
	}
	in.stop = func() {
		for _, j := range in.kv {
			j.stop = true
		}
	}
	in.idle = func() bool {
		for _, j := range in.kv {
			if !j.done {
				return false
			}
		}
		return true
	}
	in.verify = func() { checkCiphertext(in, store, sampler) }
	return in
}

func (in *instance) kvLoaded() bool {
	for _, j := range in.kv {
		if !j.loaded && !j.done {
			return false
		}
	}
	return true
}

// checkCiphertext reads the raw device bytes of the sampled writes: they
// must differ from the guest's plaintext and, where no later write
// overlapped the sample, decrypt back to it.
func checkCiphertext(in *instance, store device.Store, s *writeSampler) {
	c, err := xts.New(encryptionKey)
	if err != nil {
		in.chk.fail("xts key: %v", err)
		return
	}
	if len(s.samples) == 0 {
		in.chk.fail("no write was sampled")
		return
	}
	for _, w := range s.samples {
		raw := make([]byte, len(w.data))
		store.ReadBlocks(w.lba, raw)
		if bytes.Equal(raw, w.data) {
			in.chk.fail("device bytes at lba %d equal the guest plaintext", w.lba)
			continue
		}
		if !w.overwritten {
			plain := make([]byte, len(raw))
			if err := c.DecryptBlocks(plain, raw, w.lba, lbaSize); err != nil || !bytes.Equal(plain, w.data) {
				in.chk.fail("device bytes at lba %d do not decrypt to the guest plaintext", w.lba)
				continue
			}
		}
		in.chk.ok()
	}
}
