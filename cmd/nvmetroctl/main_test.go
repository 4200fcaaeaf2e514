package main

import (
	"strings"
	"testing"

	"nvmetro"
	"nvmetro/internal/vm"
)

// TestDumpFormat: the shard dump names every shard and tenant.
func TestDumpFormat(t *testing.T) {
	cfg := nvmetro.Defaults()
	cfg.GuestCores = 3
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()
	sol := sys.NewNVMetroSharded(2)
	var disks []*nvmetro.AttachedDisk
	for i := 0; i < 3; i++ {
		disks = append(disks, sys.Attach(sol, sys.NewVM(1, 32<<20), sys.AddNamespace(1<<18)))
	}
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		for i, d := range disks {
			base, pages, err := d.VM.Mem.AllocBuffer(512)
			if err != nil {
				t.Error(err)
				return
			}
			r := &nvmetro.Req{Op: vm.OpRead, Blocks: 1, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(p, d.Disk, d.VM.VCPU(0), r); !st.OK() {
				t.Errorf("vm%d read: %v", i, st)
			}
		}
	})
	if !ok {
		t.Fatal("did not finish")
	}
	d := dumpShards(disks[0].Ctrl.Router())
	for _, want := range []string{"fleet: shards=2", "shard 0:", "shard 1:", "vm0", "vm1", "vm2", "promoted"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}
