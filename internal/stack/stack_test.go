package stack_test

import (
	"bytes"
	"strings"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

// build creates a testbed with one 4-vCPU VM provisioned by the given
// solution constructor.
func build(mk func(h *stack.Host) stack.Solution, backing device.Store) (*sim.Env, *stack.Host, *vm.VM, vm.Disk) {
	env := sim.New(1)
	p := stack.DefaultParams()
	p.Device.JitterPct, p.Device.TailProb = 0, 0
	h := stack.NewHost(env, 12, 4, p, backing)
	v := h.NewVM(4, 64<<20)
	sol := mk(h)
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
	return env, h, v, disk
}

var allSolutions = map[string]func(h *stack.Host) stack.Solution{
	"NVMetro":     func(h *stack.Host) stack.Solution { return stack.NewNVMetro(h) },
	"MDev":        func(h *stack.Host) stack.Solution { return stack.NewMDev(h) },
	"Passthrough": func(h *stack.Host) stack.Solution { return stack.NewPassthrough(h) },
	"QEMU":        func(h *stack.Host) stack.Solution { return stack.NewQEMU(h) },
	"Vhost":       func(h *stack.Host) stack.Solution { return stack.NewVhostSCSI(h) },
	"SPDK":        func(h *stack.Host) stack.Solution { return stack.NewSPDK(h) },
}

// TestAllSolutionsDataIntegrity writes and reads back through every stack.
func TestAllSolutionsDataIntegrity(t *testing.T) {
	for name, mk := range allSolutions {
		t.Run(name, func(t *testing.T) {
			env, _, v, disk := build(mk, device.NewMemStore(512))
			defer env.Close()
			finished := false
			env.Go("test", func(p *sim.Proc) {
				defer env.Stop()
				data := make([]byte, 8192)
				for i := range data {
					data[i] = byte(i * 3)
				}
				base, pages, _ := v.Mem.AllocBuffer(8192)
				v.Mem.WriteAt(data, base)
				w := &vm.Req{Op: vm.OpWrite, LBA: 128, Blocks: 16, Buf: base, BufPages: pages}
				if st := vm.SubmitAndWait(p, disk, v.VCPU(0), w); !st.OK() {
					t.Errorf("write: %v", st)
					return
				}
				v.Mem.WriteAt(make([]byte, 8192), base)
				r := &vm.Req{Op: vm.OpRead, LBA: 128, Blocks: 16, Buf: base, BufPages: pages}
				if st := vm.SubmitAndWait(p, disk, v.VCPU(0), r); !st.OK() {
					t.Errorf("read: %v", st)
					return
				}
				got := make([]byte, 8192)
				v.Mem.ReadAt(got, base)
				if !bytes.Equal(got, data) {
					t.Error("round trip mismatch")
				}
				// Flush must be supported everywhere.
				f := &vm.Req{Op: vm.OpFlush}
				if st := vm.SubmitAndWait(p, disk, v.VCPU(0), f); !st.OK() {
					t.Errorf("flush: %v", st)
				}
				finished = true
			})
			env.RunUntil(sim.Time(30 * sim.Second))
			if !finished {
				t.Fatal("did not finish")
			}
		})
	}
}

// runFio runs a short fio config against one solution.
func runFio(t *testing.T, mk func(h *stack.Host) stack.Solution, cfg fio.Config, jobs int) fio.Result {
	t.Helper()
	env, h, v, disk := build(mk, device.NullStore{})
	defer env.Close()
	var targets []fio.Target
	for i := 0; i < jobs; i++ {
		targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(i)})
	}
	return fioRun(env, h, targets, cfg)
}

func fioRun(env *sim.Env, h *stack.Host, targets []fio.Target, cfg fio.Config) fio.Result {
	return fio.Run(env, h.CPU, targets, cfg)
}

func TestFioThroughputOrderingQD1(t *testing.T) {
	cfg := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 1,
		Warmup: 2 * sim.Millisecond, Duration: 20 * sim.Millisecond}
	iops := map[string]float64{}
	for name, mk := range allSolutions {
		r := runFio(t, mk, cfg, 1)
		if r.Errors > 0 {
			t.Fatalf("%s: %d errors", name, r.Errors)
		}
		if r.Ops < 20 {
			t.Fatalf("%s: only %d ops completed", name, r.Ops)
		}
		iops[name] = r.IOPS()
		t.Logf("%-12s %8.1f kIOPS p50=%5.1fus p99=%5.1fus cpu=%.2f",
			name, r.KIOPS(), float64(r.Lat.Median())/1e3, float64(r.Lat.P99())/1e3, r.CPUCores)
	}
	// Paper Fig. 3 @512B RR QD1: NVMetro ~ MDev ~ SPDK ~ Passthrough;
	// QEMU much slower (NVMetro ~2.7x QEMU); vhost in between.
	if iops["NVMetro"] < iops["QEMU"]*2.0 {
		t.Errorf("NVMetro (%.0f) should be >=2x QEMU (%.0f) at QD1", iops["NVMetro"], iops["QEMU"])
	}
	if iops["NVMetro"] < iops["MDev"]*0.93 {
		t.Errorf("NVMetro (%.0f) should be within 7%% of MDev (%.0f)", iops["NVMetro"], iops["MDev"])
	}
	if iops["Vhost"] > iops["NVMetro"] {
		t.Errorf("vhost (%.0f) should not beat NVMetro (%.0f)", iops["Vhost"], iops["NVMetro"])
	}
}

func TestFioLatencyOrderingAtFixedRate(t *testing.T) {
	cfg := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 1, RateIOPS: 10000,
		Warmup: 2 * sim.Millisecond, Duration: 20 * sim.Millisecond}
	med := map[string]int64{}
	for name, mk := range allSolutions {
		r := runFio(t, mk, cfg, 1)
		med[name] = r.Lat.Median()
		t.Logf("%-12s p50=%6.1fus p99=%6.1fus", name, float64(r.Lat.Median())/1e3, float64(r.Lat.P99())/1e3)
	}
	// Fig. 4: polling cluster (NVMetro/MDev/SPDK) < passthrough < vhost < QEMU.
	if med["Passthrough"] <= med["NVMetro"] {
		t.Errorf("passthrough median (%d) should exceed NVMetro (%d)", med["Passthrough"], med["NVMetro"])
	}
	if med["Vhost"] <= med["NVMetro"] {
		t.Errorf("vhost median (%d) should exceed NVMetro (%d)", med["Vhost"], med["NVMetro"])
	}
	if med["QEMU"] <= med["Vhost"] {
		t.Errorf("QEMU median (%d) should exceed vhost (%d)", med["QEMU"], med["Vhost"])
	}
}

func TestFioHighQDThroughput(t *testing.T) {
	cfg := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 128,
		Warmup: 2 * sim.Millisecond, Duration: 20 * sim.Millisecond}
	for _, name := range []string{"NVMetro", "SPDK", "Passthrough"} {
		r := runFio(t, allSolutions[name], cfg, 4)
		if r.Errors > 0 {
			t.Fatalf("%s errors: %d", name, r.Errors)
		}
		// Device saturates around 615k IOPS; polling stacks should get
		// most of it with 4 jobs at QD128.
		if r.IOPS() < 350e3 {
			t.Errorf("%s: %.0f IOPS at QD128/4jobs, expected near device saturation", name, r.IOPS())
		}
		t.Logf("%-12s %8.1f kIOPS cpu=%.2f", name, r.KIOPS(), r.CPUCores)
	}
}

func TestSPDKBurnsMostCPU(t *testing.T) {
	cfg := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 1,
		Warmup: 2 * sim.Millisecond, Duration: 20 * sim.Millisecond}
	spdk := runFio(t, allSolutions["SPDK"], cfg, 1)
	pt := runFio(t, allSolutions["Passthrough"], cfg, 1)
	if spdk.CPUCores <= pt.CPUCores {
		t.Errorf("SPDK cpu (%.2f) should exceed passthrough (%.2f)", spdk.CPUCores, pt.CPUCores)
	}
	// SPDK reactors never sleep: at least SPDKReactors cores busy.
	if spdk.CPUCores < 1.9 {
		t.Errorf("SPDK cpu %.2f, want ~2 spinning reactors", spdk.CPUCores)
	}
}

func TestQEMUMergingHelpsSequential(t *testing.T) {
	cfg := fio.Config{Mode: fio.SeqRead, BlockSize: 16384, QD: 128,
		Warmup: 2 * sim.Millisecond, Duration: 20 * sim.Millisecond}
	qemu := runFio(t, allSolutions["QEMU"], cfg, 1)
	nvmetro := runFio(t, allSolutions["NVMetro"], cfg, 1)
	t.Logf("QEMU %.1f kIOPS vs NVMetro %.1f kIOPS", qemu.KIOPS(), nvmetro.KIOPS())
	// Fig. 3: QEMU overtakes NVMetro at 16K/QD128/1 job (19-32%).
	if qemu.IOPS() < nvmetro.IOPS()*1.05 {
		t.Errorf("QEMU (%.0f) should beat NVMetro (%.0f) at 16K/QD128/1job", qemu.IOPS(), nvmetro.IOPS())
	}
}

func TestNVMetroScalabilityWithSharedWorker(t *testing.T) {
	// Fig. 5 setup: small VMs, shared NVMetro worker, partitioned namespace.
	run := func(nvms int) float64 {
		env := sim.New(1)
		p := stack.DefaultParams()
		p.Device.JitterPct, p.Device.TailProb = 0, 0
		h := stack.NewHost(env, 12, 8, p, device.NullStore{})
		defer env.Close()
		sol := stack.NewNVMetroShared(h, 1)
		parts := device.Carve(h.Dev, 1, nvms)
		var targets []fio.Target
		for i := 0; i < nvms; i++ {
			v := h.NewVM(1, 16<<20)
			disk := sol.Provision(v, parts[i])
			targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(0)})
		}
		r := fio.Run(env, h.CPU, targets, fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 32,
			Warmup: 2 * sim.Millisecond, Duration: 15 * sim.Millisecond})
		if r.Errors > 0 {
			t.Fatalf("errors with %d VMs: %d", nvms, r.Errors)
		}
		return r.IOPS()
	}
	one := run(1)
	four := run(4)
	t.Logf("1 VM: %.0f IOPS, 4 VMs: %.0f IOPS", one, four)
	if four < one*1.5 {
		t.Errorf("throughput must scale with VM count (1 VM %.0f, 4 VMs %.0f)", one, four)
	}
}

// TestSharedRouterRejectsZeroWorkers: a shared router needs at least one
// worker; a zero count is rejected at construction instead of silently
// falling back to one router per VM (and, sharded, losing promotion).
func TestSharedRouterRejectsZeroWorkers(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NullStore{})
	for name, ctor := range map[string]func(*stack.Host, int) *stack.NVMetro{
		"NewNVMetroShared":  stack.NewNVMetroShared,
		"NewNVMetroSharded": stack.NewNVMetroSharded,
	} {
		for _, n := range []int{0, -1} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, name) || !strings.Contains(msg, "at least 1 worker") {
						t.Errorf("%s(h, %d): panic %q, want a worker-count rejection", name, n, msg)
					}
				}()
				ctor(h, n)
			}()
		}
	}
}

// TestWithQoSAfterProvision is the regression for WithQoS called after a
// router already exists: the arbiter must be enabled on the live router —
// not silently dropped — with already-provisioned VMs registered as
// tenants, so a later SetQoS works in either configuration.
func TestWithQoSAfterProvision(t *testing.T) {
	p := stack.DefaultParams()
	p.Device.JitterPct, p.Device.TailProb = 0, 0

	// Shared-worker configuration.
	env := sim.New(1)
	defer env.Close()
	h := stack.NewHost(env, 12, 4, p, device.NullStore{})
	sol := stack.NewNVMetroShared(h, 1)
	parts := device.Carve(h.Dev, 1, 2)
	v1 := h.NewVM(1, 16<<20)
	sol.Provision(v1, parts[0])
	sol.WithQoS(qos.Config{})
	if sol.QoSArbiter() == nil {
		t.Fatal("WithQoS after Provision left the shared router without an arbiter")
	}
	if n := len(sol.QoSArbiter().Tenants()); n != 1 {
		t.Fatalf("tenants = %d, want 1 (already-provisioned VM must register)", n)
	}
	sol.SetQoS(v1, qos.TenantConfig{Weight: 2}) // must not panic
	v2 := h.NewVM(1, 16<<20)
	sol.Provision(v2, parts[1])
	if n := len(sol.QoSArbiter().Tenants()); n != 2 {
		t.Fatalf("tenants = %d, want 2 after provisioning another VM", n)
	}

	// Router-per-VM configuration: the late WithQoS reaches the routers
	// already created for provisioned VMs through their controllers.
	env2 := sim.New(1)
	defer env2.Close()
	h2 := stack.NewHost(env2, 12, 4, p, device.NullStore{})
	solo := stack.NewNVMetro(h2)
	v3 := h2.NewVM(1, 16<<20)
	solo.Provision(v3, device.WholeNamespace(h2.Dev, 1))
	solo.WithQoS(qos.Config{})
	if solo.ControllerFor(v3).Tenant() == nil {
		t.Fatal("per-VM router tenant not registered by late WithQoS")
	}
	solo.SetQoS(v3, qos.TenantConfig{IOPS: 1000}) // must not panic
}

// TestEncryptedStacksAgree writes with NVMetro encryption and reads back
// with dm-crypt through vhost — they share the on-disk format.
func TestEncryptedStacksAgree(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 64)
	store := device.NewMemStore(512)

	// Write through NVMetro encryption.
	env1, _, v1, d1 := build(func(h *stack.Host) stack.Solution {
		return stack.NewNVMetro(h).WithEncryption(key, false)
	}, store)
	data := bytes.Repeat([]byte{0xaa, 0x11}, 1024)
	ok := false
	env1.Go("w", func(p *sim.Proc) {
		defer env1.Stop()
		base, pages, _ := v1.Mem.AllocBuffer(2048)
		v1.Mem.WriteAt(data, base)
		w := &vm.Req{Op: vm.OpWrite, LBA: 64, Blocks: 4, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, d1, v1.VCPU(0), w); !st.OK() {
			t.Errorf("nvmetro write: %v", st)
			return
		}
		ok = true
	})
	env1.RunUntil(sim.Time(10 * sim.Second))
	env1.Close()
	if !ok {
		t.Fatal("write did not finish")
	}

	// Read back through dm-crypt+vhost-scsi over the same store.
	env2 := sim.New(2)
	p2 := stack.DefaultParams()
	p2.Device.JitterPct, p2.Device.TailProb = 0, 0
	h2 := stack.NewHost(env2, 12, 4, p2, store)
	v2 := h2.NewVM(1, 32<<20)
	d2 := stack.NewVhostDMCrypt(h2, key).Provision(v2, device.WholeNamespace(h2.Dev, 1))
	ok = false
	env2.Go("r", func(p *sim.Proc) {
		defer env2.Stop()
		base, pages, _ := v2.Mem.AllocBuffer(2048)
		r := &vm.Req{Op: vm.OpRead, LBA: 64, Blocks: 4, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, d2, v2.VCPU(0), r); !st.OK() {
			t.Errorf("dm-crypt read: %v", st)
			return
		}
		got := make([]byte, 2048)
		v2.Mem.ReadAt(got, base)
		if !bytes.Equal(got, data) {
			t.Error("dm-crypt could not read NVMetro-encrypted data")
			return
		}
		ok = true
	})
	env2.RunUntil(sim.Time(10 * sim.Second))
	env2.Close()
	if !ok {
		t.Fatal("read did not finish")
	}
	if nvme.SCSuccess != 0 {
		t.Fatal("sanity")
	}
}
