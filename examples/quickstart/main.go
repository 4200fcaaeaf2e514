// Quickstart: bring up a simulated host, attach a VM to an NVMetro virtual
// NVMe controller, and do guest I/O through the fast path.
package main

import (
	"bytes"
	"fmt"
	"log"

	"nvmetro"
	"nvmetro/internal/vm"
)

func main() {
	// A deterministic testbed: 12-core host, one simulated NVMe SSD.
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()

	// One VM with 2 vCPUs and 64 MiB of guest memory, attached to the whole
	// device through NVMetro (virtual queues + eBPF-routed fast path).
	guest := sys.NewVM(2, 64<<20)
	disk := sys.Attach(sys.NewNVMetro(), guest, sys.WholeDisk())

	// Run a guest program: write a block, read it back, check integrity.
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		data := bytes.Repeat([]byte("nvmetro!"), 512) // 4 KiB
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(data)))
		if err != nil {
			log.Fatal(err)
		}
		guest.Mem.WriteAt(data, base)

		w := &nvmetro.Req{Op: vm.OpWrite, LBA: 2048, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), w); !st.OK() {
			log.Fatalf("write failed: %v", st)
		}
		fmt.Printf("wrote 4 KiB at LBA 2048 in %v\n", w.Latency())

		guest.Mem.WriteAt(make([]byte, len(data)), base) // scrub buffer
		r := &nvmetro.Req{Op: vm.OpRead, LBA: 2048, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r); !st.OK() {
			log.Fatalf("read failed: %v", st)
		}
		got := make([]byte, len(data))
		guest.Mem.ReadAt(got, base)
		if !bytes.Equal(got, data) {
			log.Fatal("data mismatch")
		}
		fmt.Printf("read it back in %v — data verified\n", r.Latency())
	})
	if !ok {
		log.Fatal("guest program did not finish")
	}

	// Then benchmark the same disk with the fio-equivalent harness.
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRead, BlockSize: 4096, QD: 32,
		Warmup: 2 * nvmetro.Millisecond, Duration: 20 * nvmetro.Millisecond,
	}, disk.Targets(2))
	fmt.Printf("fio 4K randread qd32 x2 jobs: %.1f kIOPS, p50=%.1fus, cpu=%.2f cores\n",
		res.KIOPS(), float64(res.Lat.Median())/1e3, res.CPUCores)
}
