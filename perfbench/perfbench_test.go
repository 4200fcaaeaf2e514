package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"nvmetro/internal/device"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// fakeDisk records what reaches it and completes each request after a
// fixed delay with a preset status, optionally writing data into the
// request's guest buffer first.
type fakeDisk struct {
	env    *sim.Env
	mem    *guestmem.Memory
	status nvme.Status
	data   []byte // copied into read buffers when set

	procs []*sim.Proc
	vcpus []*sim.Thread
	reqs  []*vm.Req
	seen  []vm.Req // field values as submitted
}

func (f *fakeDisk) BlockSize() uint32 { return lbaSize }
func (f *fakeDisk) Blocks() uint64    { return 1 << 20 }

func (f *fakeDisk) Submit(p *sim.Proc, vcpu *sim.Thread, r *vm.Req) {
	f.procs = append(f.procs, p)
	f.vcpus = append(f.vcpus, vcpu)
	f.reqs = append(f.reqs, r)
	f.seen = append(f.seen, *r)
	r.Submitted = p.Now()
	f.env.After(10*sim.Microsecond, func() {
		if r.Op == vm.OpRead && f.data != nil {
			f.mem.WriteAt(f.data, r.Buf)
		}
		r.Complete(f.env, f.status)
	})
}

// submitOne pushes one request through d from a simulated process and
// runs the simulation until it completes.
func submitOne(t *testing.T, env *sim.Env, d vm.Disk, vcpu *sim.Thread, r *vm.Req) {
	t.Helper()
	env.Go("submit", func(p *sim.Proc) { d.Submit(p, vcpu, r) })
	env.RunUntil(env.Now().Add(sim.Millisecond))
	if !r.Done() {
		t.Fatal("request did not complete")
	}
}

func TestCheckDiskForwardsUnchanged(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	mem := guestmem.New(1 << 20)
	base, pages, err := mem.AllocBuffer(ioSize)
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeDisk{env: env, mem: mem, status: nvme.SCSuccess}
	chk := &tally{}
	log := &opLog{to: sim.Time(1 << 40)}
	d := &checkDisk{inner: inner, mem: mem, chk: chk, log: log}
	vcpu := sim.NewCPU(env, 1).ThreadOn(0, "vm0/guest")

	if d.BlockSize() != inner.BlockSize() || d.Blocks() != inner.Blocks() {
		t.Fatalf("geometry %d/%d, want %d/%d", d.BlockSize(), d.Blocks(), inner.BlockSize(), inner.Blocks())
	}
	var calls int
	var got *vm.Req
	onDone := func(r *vm.Req) { calls++; got = r }
	r := &vm.Req{Op: vm.OpWrite, LBA: 24, Blocks: ioLBAs, Buf: base, BufPages: pages, OnDone: onDone}
	submitOne(t, env, d, vcpu, r)

	if len(inner.reqs) != 1 || inner.reqs[0] != r || inner.vcpus[0] != vcpu || inner.procs[0] == nil {
		t.Fatalf("inner disk saw %d requests; want the caller's request, vCPU and process", len(inner.reqs))
	}
	s := inner.seen[0]
	if s.Op != r.Op || s.LBA != r.LBA || s.Blocks != r.Blocks || s.Buf != r.Buf || &s.BufPages[0] != &pages[0] {
		t.Fatalf("inner disk saw %+v, want the submitted fields unchanged", s)
	}
	if calls != 1 || got != r {
		t.Fatalf("caller's OnDone ran %d times with %p, want once with %p", calls, got, r)
	}
	if r.OnDone == nil {
		t.Fatal("caller's OnDone was not restored")
	}
	if r.Status != nvme.SCSuccess {
		t.Fatalf("status %v, want the inner disk's", r.Status)
	}
	if d.ios != 1 || d.subs != 1 || d.inflight != 0 || d.ioVirt != 10*sim.Microsecond {
		t.Fatalf("counters ios=%d subs=%d inflight=%d virt=%v", d.ios, d.subs, d.inflight, d.ioVirt)
	}
	if log.ops != 1 || len(log.lat) != 1 || log.lat[0] != int64(10*sim.Microsecond) {
		t.Fatalf("op log %+v, want one 10us op", log)
	}
	if chk.attempted != 1 || chk.failed != 0 {
		t.Fatalf("tally %+v", chk)
	}

	// A failed request is forwarded unchanged too, and counted as failed.
	inner.status = nvme.SCInternal
	r2 := &vm.Req{Op: vm.OpRead, LBA: 8, Blocks: ioLBAs, Buf: base, BufPages: pages, OnDone: onDone}
	submitOne(t, env, d, vcpu, r2)
	if calls != 2 || got != r2 || r2.Status != nvme.SCInternal {
		t.Fatalf("failed request: OnDone calls=%d status=%v", calls, r2.Status)
	}
	if chk.failed != 1 || log.ops != 1 {
		t.Fatalf("failed request counted as tally %+v, ops %d", chk, log.ops)
	}
}

func TestCheckDiskModelChecksReads(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	mem := guestmem.New(1 << 20)
	base, pages, err := mem.AllocBuffer(ioSize)
	if err != nil {
		t.Fatal(err)
	}
	pat := newPattern(7)
	good := make([]byte, ioSize)
	pat.fill(good, 5, 3)
	m := newBlockModel(0, ioLBAs, 8, pat, 5)
	inner := &fakeDisk{env: env, mem: mem, status: nvme.SCSuccess, data: good}
	chk := &tally{}
	d := &checkDisk{inner: inner, mem: mem, chk: chk, model: m, log: &opLog{}}
	vcpu := sim.NewCPU(env, 1).ThreadOn(0, "vm0/guest")

	submitOne(t, env, d, vcpu, &vm.Req{Op: vm.OpRead, LBA: 3 * ioLBAs, Blocks: ioLBAs, Buf: base, BufPages: pages})
	if chk.failed != 0 {
		t.Fatalf("matching read failed: %s", chk.firstErr)
	}
	inner.data = bytes.Repeat([]byte{1}, ioSize)
	submitOne(t, env, d, vcpu, &vm.Req{Op: vm.OpRead, LBA: 3 * ioLBAs, Blocks: ioLBAs, Buf: base, BufPages: pages})
	if chk.failed != 1 {
		t.Fatal("corrupt read passed the check")
	}

	// An acknowledged write becomes the block's expected content.
	mem.WriteAt(inner.data, base)
	submitOne(t, env, d, vcpu, &vm.Req{Op: vm.OpWrite, LBA: 3 * ioLBAs, Blocks: ioLBAs, Buf: base, BufPages: pages})
	submitOne(t, env, d, vcpu, &vm.Req{Op: vm.OpRead, LBA: 3 * ioLBAs, Blocks: ioLBAs, Buf: base, BufPages: pages})
	if chk.failed != 1 {
		t.Fatalf("read after write failed: %s", chk.firstErr)
	}
}

// fakeStore records every call it receives.
type fakeStore struct {
	ops  []string
	lbas []uint64
	bufs [][]byte
	n    []uint32
}

func (s *fakeStore) ReadBlocks(lba uint64, buf []byte) {
	s.ops, s.lbas, s.bufs = append(s.ops, "read"), append(s.lbas, lba), append(s.bufs, buf)
	for i := range buf {
		buf[i] = byte(i)
	}
}

func (s *fakeStore) WriteBlocks(lba uint64, buf []byte) {
	s.ops, s.lbas, s.bufs = append(s.ops, "write"), append(s.lbas, lba), append(s.bufs, buf)
}

func (s *fakeStore) TrimBlocks(lba uint64, blocks uint32) {
	s.ops, s.lbas, s.n = append(s.ops, "trim"), append(s.lbas, lba), append(s.n, blocks)
}

func TestTimedStoreForwardsUnchanged(t *testing.T) {
	inner := &fakeStore{}
	st := &storeStats{}
	var s device.Store = &timedStore{inner: inner, st: st}
	rb, wb := make([]byte, 1024), make([]byte, 512)
	s.ReadBlocks(5, rb)
	s.WriteBlocks(9, wb)
	s.TrimBlocks(11, 3)

	if want := []string{"read", "write", "trim"}; len(inner.ops) != 3 || inner.ops[0] != want[0] || inner.ops[1] != want[1] || inner.ops[2] != want[2] {
		t.Fatalf("inner store saw %v", inner.ops)
	}
	if inner.lbas[0] != 5 || inner.lbas[1] != 9 || inner.lbas[2] != 11 || inner.n[0] != 3 {
		t.Fatalf("inner store saw lbas %v blocks %v", inner.lbas, inner.n)
	}
	if &inner.bufs[0][0] != &rb[0] || len(inner.bufs[0]) != len(rb) || &inner.bufs[1][0] != &wb[0] || len(inner.bufs[1]) != len(wb) {
		t.Fatal("inner store did not get the caller's buffers")
	}
	if rb[7] != 7 {
		t.Fatal("read data did not reach the caller's buffer")
	}
	if st.calls != 3 || st.bytes != 1536 || st.hostNs < 0 {
		t.Fatalf("stats %+v, want 3 calls and 1536 bytes", st)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nvmetro/internal/core.(*worker).run":       "core",
		"nvmetro/internal/shard/ring.(*MPSC).Drain": "shard",
		"nvmetro/internal/extfs.(*FS).rawWrite":     "lsm",
		"nvmetro/internal/xts.(*Cipher).bulk":       "xts",
		"nvmetro/internal/storfn.(*Encryptor).Work": "xts",
		"nvmetro/internal/metrics.(*Histogram).Add": "fio",
		"nvmetro/internal/nvme.(*CQ).Pop":           "other",
		"main.(*checkDisk).Submit":                  "bench",
		"runtime.mcall":                             "",
		"slices.pdqsortCmpFunc[go.shape.struct {}]": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestReadProfileAttributesCPU(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		newPattern(1)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lp, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lp.total <= 0 || lp.ns["bench"] <= 0 {
		t.Fatalf("profile attributed %v of %d ns; want the spin loop under bench", lp.ns, lp.total)
	}
}

// TestWorkloadsSmoke runs every workload over a short virtual window and
// checks that its outputs verify and its digest repeats.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w.window = 5 * sim.Millisecond
		t.Run(w.name, func(t *testing.T) {
			ph, err := measure(w, 3, runOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if ph.chk.failed != 0 || ph.chk.attempted == 0 {
				t.Fatalf("checks: %d of %d failed; first: %s", ph.chk.failed, ph.chk.attempted, ph.chk.firstErr)
			}
			if ph.winOps == 0 || ph.end.ops <= ph.start.ops {
				t.Fatalf("no ops measured: window %d, run %d", ph.winOps, ph.end.ops-ph.start.ops)
			}
			again, err := measure(w, 3, runOpts{traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if again.digest != ph.digest {
				t.Fatalf("traced digest %s differs from untraced %s", again.digest, ph.digest)
			}
		})
	}
}
