// Caching: the classifier-steered host block cache. An eBPF classifier
// counts read heat per LBA bucket on the fast path; once a bucket goes
// hot, its reads divert to a caching UIF that serves them from host
// memory — no device round trip. Writes always pass through the UIF's
// invalidation window, so a cached block can never be read back stale.
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

	guest := sys.NewVM(2, 64<<20)
	cp := nvmetro.DefaultCacheParams() // 16 MiB ARC, hot on the 2nd access
	disk := sys.Attach(sys.NewNVMetro().WithCache(cp), guest, sys.WholeDisk())
	cacher := disk.Cacher()

	data := bytes.Repeat([]byte("hot block! "), 400)[:4096]
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(data)))
		if err != nil {
			log.Fatal(err)
		}
		guest.Mem.WriteAt(data, base)
		do := func(op vm.Op, lba uint64) *nvmetro.Req {
			r := &nvmetro.Req{Op: op, LBA: lba, Blocks: 8, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r); !st.OK() {
				log.Fatalf("%v @%d: %v", op, lba, st)
			}
			return r
		}
		do(vm.OpWrite, 2048)

		// A never-written bucket: the 1st read is cold and the device fast
		// path serves it; the 2nd crosses the hot threshold and the UIF
		// fills the cache from the backend; from the 3rd on it's a
		// host-memory hit.
		fmt.Printf("read 1 (cold, fast path): %v\n", do(vm.OpRead, 4096).Latency())
		fmt.Printf("read 2 (hot, cache fill): %v\n", do(vm.OpRead, 4096).Latency())
		fmt.Printf("read 3 (cache hit):       %v\n", do(vm.OpRead, 4096).Latency())

		// The written bucket: write-through already installed the data, so
		// the moment it goes hot its reads hit without ever filling.
		do(vm.OpRead, 2048) // heat 1: fast path
		fmt.Printf("re-read after write (hit, no fill): %v\n", do(vm.OpRead, 2048).Latency())

		// Coherence: overwrite the cached block, then read it back. The
		// write invalidates (and, write-through, re-installs) the entry;
		// the old bytes are unreachable from the moment the write lands.
		fresh := bytes.Repeat([]byte("NEW! "), 1024)[:4096]
		guest.Mem.WriteAt(fresh, base)
		do(vm.OpWrite, 2048)
		guest.Mem.WriteAt(make([]byte, len(fresh)), base)
		do(vm.OpRead, 2048)
		got := make([]byte, len(fresh))
		guest.Mem.ReadAt(got, base)
		if !bytes.Equal(got, fresh) {
			log.Fatal("stale read after overwrite — cache incoherent!")
		}
		fmt.Println("overwrite then re-read: fresh data (coherent)")
	})
	if !ok {
		log.Fatal("did not finish")
	}
	fmt.Printf("cache stats: %v\n", cacher.Cache())
	fmt.Printf("UIF stats: hits=%d fills=%d writes=%d\n",
		cacher.ReqHits, cacher.ReqFills, cacher.ReqWrites)

	// Benchmark: zipf-skewed re-reads — the cache's sweet spot.
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRead, BlockSize: 4096, QD: 8, Zipf: 1.2,
		WorkSet: 4 << 20,
		Warmup:  2 * nvmetro.Millisecond, Duration: 20 * nvmetro.Millisecond,
	}, disk.Targets(2))
	fmt.Printf("zipf 4K randread qd8: %.1f kIOPS, p50=%.1fus, hit ratio %.0f%%\n",
		res.KIOPS(), float64(res.Lat.Median())/1e3, cacher.Cache().HitRatio()*100)
}
