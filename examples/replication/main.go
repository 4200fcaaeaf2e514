// Replication: the paper's live disk-replication storage function. The
// classifier serves reads from the local (primary) drive and multicasts
// writes to both the primary fast path and a UIF that forwards them over a
// simulated NVMe-oF fabric to a remote secondary drive. Mirroring is
// synchronous: a write completes only when both drives have it.
package main

import (
	"bytes"
	"fmt"
	"log"

	"nvmetro"
	"nvmetro/internal/vm"
)

func main() {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()

	remote := sys.NewRemoteHost(4)
	guest := sys.NewVM(2, 64<<20)
	sol := sys.NewNVMetro().WithReplication(remote.Secondary())
	disk := sys.Attach(sol, guest, sys.WholeDisk())

	payload := bytes.Repeat([]byte{0xC0, 0xDE}, 2048) // 4 KiB
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(payload)))
		if err != nil {
			log.Fatal(err)
		}
		guest.Mem.WriteAt(payload, base)
		w := &nvmetro.Req{Op: vm.OpWrite, LBA: 500, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), w); !st.OK() {
			log.Fatalf("write: %v", st)
		}
		fmt.Printf("mirrored write completed in %v (waits for BOTH drives)\n", w.Latency())

		// Verify both replicas.
		got := make([]byte, len(payload))
		sys.DeviceUnderTest().Namespace(1).Store.ReadBlocks(500, got)
		if !bytes.Equal(got, payload) {
			log.Fatal("primary replica missing data")
		}
		remote.Dev.Namespace(1).Store.ReadBlocks(500, got)
		if !bytes.Equal(got, payload) {
			log.Fatal("secondary replica missing data")
		}
		fmt.Println("primary and secondary drives both hold the data")

		// Reads are served locally — no fabric round trip.
		r := &nvmetro.Req{Op: vm.OpRead, LBA: 500, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r); !st.OK() {
			log.Fatalf("read: %v", st)
		}
		fmt.Printf("local read completed in %v (no remote hop)\n", r.Latency())
		fmt.Printf("fabric traffic so far: %v\n", remote.Link)
	})
	if !ok {
		log.Fatal("did not finish")
	}

	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRW, BlockSize: 4096, QD: 16,
		Warmup: 2 * nvmetro.Millisecond, Duration: 20 * nvmetro.Millisecond,
	}, disk.Targets(2))
	fmt.Printf("mirrored 4K randrw qd16: %.1f kIOPS, p99=%.1fus\n",
		res.KIOPS(), float64(res.Lat.P99())/1e3)
}
