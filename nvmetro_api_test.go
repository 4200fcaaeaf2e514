package nvmetro_test

import (
	"bytes"
	"strings"
	"testing"

	"nvmetro"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/vm"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	guest := sys.NewVM(2, 64<<20)
	disk := sys.Attach(sys.NewNVMetro(), guest, sys.WholeDisk())

	data := bytes.Repeat([]byte{0xfe, 0xed}, 1024)
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(data)))
		if err != nil {
			t.Error(err)
			return
		}
		guest.Mem.WriteAt(data, base)
		w := &nvmetro.Req{Op: vm.OpWrite, LBA: 0, Blocks: 4, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), w); !st.OK() {
			t.Errorf("write: %v", st)
			return
		}
		got := make([]byte, len(data))
		r := &nvmetro.Req{Op: vm.OpRead, LBA: 0, Blocks: 4, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r); !st.OK() {
			t.Errorf("read: %v", st)
			return
		}
		guest.Mem.ReadAt(got, base)
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
	if !ok {
		t.Fatal("did not finish")
	}
}

func TestPublicAPIEncryptionAndFIO(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	guest := sys.NewVM(2, 64<<20)
	key := bytes.Repeat([]byte{9}, 64)
	disk := sys.Attach(sys.NewNVMetro().WithEncryption(key, false), guest, sys.WholeDisk())
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandWrite, BlockSize: 4096, QD: 8,
		Warmup: nvmetro.Millisecond, Duration: 5 * nvmetro.Millisecond,
	}, disk.Targets(2))
	if res.Errors > 0 || res.Ops == 0 {
		t.Fatalf("encrypted fio: ops=%d errors=%d", res.Ops, res.Errors)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	for _, name := range []string{
		nvmetro.BaselineMDev, nvmetro.BaselinePassthrough, nvmetro.BaselineQEMU,
		nvmetro.BaselineVhostSCSI, nvmetro.BaselineSPDK,
	} {
		sys := nvmetro.NewSystem(nvmetro.Defaults())
		guest := sys.NewVM(1, 32<<20)
		sol, err := sys.Baseline(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		disk := sys.Attach(sol, guest, sys.WholeDisk())
		if disk.Ctrl != nil {
			t.Errorf("%s: baseline disk has an NVMetro controller", name)
		}
		res := sys.RunFIO(nvmetro.FIOConfig{
			Mode: nvmetro.RandRead, BlockSize: 512, QD: 4,
			Warmup: nvmetro.Millisecond, Duration: 4 * nvmetro.Millisecond,
		}, disk.Targets(1))
		if res.Ops == 0 || res.Errors > 0 {
			t.Errorf("%s: ops=%d errors=%d", name, res.Ops, res.Errors)
		}
		sys.Close()
	}
	if _, err := nvmetro.NewSystem(nvmetro.Defaults()).Baseline("bogus"); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestPublicAPIClassifierTools(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	part := sys.CarveDisk(2)[1]
	cfg := nvmetro.NewConfigMap(part)
	prog, err := nvmetro.AssembleClassifier(`
	mov r0, 0x410000
	exit
`, "trivial", map[string]ebpf.Map{"cfg": cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := nvmetro.VerifyClassifier(prog); err != nil {
		t.Fatal(err)
	}
	// A bad classifier must be rejected.
	bad, err := nvmetro.AssembleClassifier("ldxw r0, [r1+4096]\nexit", "bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nvmetro.VerifyClassifier(bad); err == nil {
		t.Fatal("verifier accepted an out-of-bounds classifier")
	}
}

func TestPublicAPIExperimentRegistry(t *testing.T) {
	ids := nvmetro.Experiments()
	if len(ids) != 21 {
		t.Fatalf("experiments: %v", ids)
	}
	var sb strings.Builder
	if err := nvmetro.RunExperiment("table1", true, 1, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Classifier") {
		t.Fatal("table1 output missing")
	}
	if err := nvmetro.RunExperiment("nope", true, 1, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestPublicAPIAttachConfigurations attaches every NVMetro configuration
// through the one Attach entry point and checks a 4 KiB write/read round
// trip plus which Wiring handles the configuration exposes.
func TestPublicAPIAttachConfigurations(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 64)
	pol := nvmetro.DefaultSupervisePolicy()
	scrub := nvmetro.DefaultScrubConfig()
	type handles struct{ sup, cacher, dom, scr, rs, clone bool }
	for _, tc := range []struct {
		name  string
		build func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition)
		want  handles
	}{
		{"plain", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro(), sys.WholeDisk()
		}, handles{}},
		{"encrypted", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithEncryption(key, false), sys.WholeDisk()
		}, handles{}},
		{"replicated", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithReplication(sys.NewRemoteHost(4).Secondary()), sys.WholeDisk()
		}, handles{}},
		{"cached", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithCache(nvmetro.DefaultCacheParams()), sys.WholeDisk()
		}, handles{cacher: true}},
		{"encrypted-supervised", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithEncryption(key, false).WithSupervision(pol), sys.WholeDisk()
		}, handles{sup: true}},
		{"replicated-supervised", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithReplication(sys.NewRemoteHost(4).Secondary()).WithSupervision(pol), sys.WholeDisk()
		}, handles{sup: true}},
		{"cached-supervised", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithCache(nvmetro.DefaultCacheParams()).WithSupervision(pol), sys.WholeDisk()
		}, handles{sup: true, cacher: true}},
		{"protected", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithIntegrity(scrub), sys.WholeDisk()
		}, handles{dom: true, scr: true}},
		{"replicated-protected", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithReplication(sys.NewRemoteHost(4).Secondary()).WithIntegrity(scrub), sys.WholeDisk()
		}, handles{dom: true, scr: true, rs: true}},
		{"clone", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro(), goldenImage(sys).Clone()
		}, handles{clone: true}},
		{"clone-protected", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetro().WithIntegrity(scrub), goldenImage(sys).Clone()
		}, handles{dom: true, scr: true, clone: true}},
		{"shared", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetroShared(1), sys.WholeDisk()
		}, handles{}},
		{"sharded", func(sys *nvmetro.System) (*nvmetro.NVMetro, nvmetro.Partition) {
			return sys.NewNVMetroSharded(2), sys.WholeDisk()
		}, handles{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := nvmetro.NewSystem(nvmetro.Defaults())
			defer sys.Close()
			guest := sys.NewVM(1, 32<<20)
			sol, part := tc.build(sys)
			disk := sys.Attach(sol, guest, part)
			if disk.Ctrl == nil {
				t.Fatal("NVMetro disk has no controller")
			}
			got := handles{
				sup:    disk.Supervisor != nil,
				cacher: disk.Cacher() != nil,
				dom:    disk.Domain != nil,
				scr:    disk.Scrubber != nil,
				rs:     disk.Resyncer != nil,
				clone:  disk.Clone != nil,
			}
			if got != tc.want {
				t.Fatalf("handles %+v, want %+v", got, tc.want)
			}
			roundTrip(t, sys, disk)
		})
	}
}

// goldenImage builds a small sealed golden image.
func goldenImage(sys *nvmetro.System) *nvmetro.GoldenImage {
	img := sys.NewGoldenImage(4096, 16)
	img.Master().WriteBlocks(0, bytes.Repeat([]byte{0x5a}, 4096*512))
	img.Seal()
	return img
}

// roundTrip writes 4 KiB at LBA 64 and reads it back.
func roundTrip(t *testing.T, sys *nvmetro.System, disk *nvmetro.AttachedDisk) {
	t.Helper()
	data := bytes.Repeat([]byte{0xc3, 0x3c, 0x01, 0x10}, 1024)
	guest := disk.VM
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(data)))
		if err != nil {
			t.Error(err)
			return
		}
		guest.Mem.WriteAt(data, base)
		w := &nvmetro.Req{Op: vm.OpWrite, LBA: 64, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), w); !st.OK() {
			t.Errorf("write: %v", st)
			return
		}
		guest.Mem.WriteAt(make([]byte, len(data)), base)
		r := &nvmetro.Req{Op: vm.OpRead, LBA: 64, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r); !st.OK() {
			t.Errorf("read: %v", st)
			return
		}
		got := make([]byte, len(data))
		guest.Mem.ReadAt(got, base)
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
	if !ok {
		t.Fatal("round trip did not finish")
	}
}
