package harness

import (
	"fmt"

	hostcache "nvmetro/internal/cache"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
)

// The cache experiment measures the classifier-steered host block cache:
// a zipfian re-read workload heats LBA buckets until the classifier
// diverts their reads to the cache UIF, which serves hits from host
// memory without touching the device. A probe phase then measures the
// three read paths — cached hit, cold fast path, and miss fill — from
// the guest's point of view, and a coherence probe overwrites a cached
// block and re-reads it: the cache must never serve the old data.
func init() {
	register("cache", "Host block cache: classifier-steered hot reads from host memory", func(o Options) []*Table {
		return []*Table{cacheTable(o)}
	})
}

// cacheCfg is the cache workload: 4 KiB random reads over a 4 MiB
// per-job working set, zipf-skewed so a small hot set dominates.
func cacheCfg(o Options) fio.Config {
	warm, dur := o.windows()
	return fio.Config{
		Mode: fio.RandRead, BlockSize: 4096, QD: 8,
		Warmup: warm, Duration: dur,
		WorkSet: 4 << 20, Zipf: 1.2,
	}
}

// cacheRun is one cache workload outcome.
type cacheRun struct {
	res      fio.Result
	counters metrics.CounterSet
	hitRatio float64 // UIF reads served from cache (workload phase only)
	hitP50   sim.Duration
	fastP50  sim.Duration
	fillP50  sim.Duration
	coherent bool // overwrite of a cached block never read back stale
	drained  bool // every accepted guest command completed
}

// runCache runs the cache stack over a content-backed store, then probes
// per-path latency and write/read coherence directly from a guest program.
func runCache(o Options, cp storfn.CacheParams, cfg fio.Config, jobs int) cacheRun {
	env, h := newBed(o, device.NewMemStore(512))
	defer env.Close()
	v := h.NewVM(4, 512<<20)
	sol := stack.NewNVMetro(h).WithCache(cp)
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
	cacher := sol.Wiring(v).Cacher()
	vc := sol.ControllerFor(v)

	var targets []fio.Target
	for i := 0; i < jobs; i++ {
		targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(i % v.NumVCPUs())})
	}
	out := cacheRun{res: fio.Run(env, h.CPU, targets, cfg)}
	out.drained = drainOutstanding(env, vc.Outstanding)

	// Workload-phase hit ratio, before the probes skew the request mix.
	if reads := cacher.ReqHits + cacher.ReqFills; reads > 0 {
		out.hitRatio = float64(cacher.ReqHits) / float64(reads)
	}

	probeCache(env, v, disk, cp, cfg.BlockSize, &out)

	cacher.Collect(&out.counters)
	out.counters.Add("fio.errors", out.res.Errors)
	out.counters.Add("fio.ops", out.res.Ops)
	return out
}

// probeCache measures guest-visible latency per read path and checks
// coherence. The probe region sits at the top of the namespace, far above
// the fio job regions, so every probed bucket starts cold.
func probeCache(env *sim.Env, v *vm.VM, disk vm.Disk, cp storfn.CacheParams, ioBytes uint32, out *cacheRun) {
	const probes = 32
	hit, fast, fill := metrics.NewHistogram(), metrics.NewHistogram(), metrics.NewHistogram()
	done := false
	env.Go("cache-probe", func(p *sim.Proc) {
		defer func() { done = true }()
		perIO := uint64(ioBytes / disk.BlockSize())
		stride := uint64(1) << cp.BucketShift // blocks per heat bucket
		if perIO > stride {
			stride = perIO
		}
		base := disk.Blocks() - (3*probes+8)*stride
		vcpu := v.VCPU(0)
		bufBase, pages, err := v.Mem.AllocBuffer(ioBytes)
		if err != nil {
			panic(err)
		}
		read := func(lba uint64) sim.Duration {
			r := &vm.Req{Op: vm.OpRead, LBA: lba, Blocks: uint32(perIO), Buf: bufBase, BufPages: pages}
			if st := vm.SubmitAndWait(p, disk, vcpu, r); !st.OK() {
				panic(fmt.Sprintf("cache probe read @%d: %v", lba, st))
			}
			return r.Latency()
		}
		// Cold fast path: one first-touch read per untouched bucket.
		for i := uint64(0); i < probes; i++ {
			fast.Record(int64(read(base + i*stride)))
		}
		// Miss fill: warm a bucket's heat to the threshold; the read that
		// crosses it is diverted to the UIF and fills from the backend.
		for i := uint64(0); i < probes; i++ {
			lba := base + (probes+i)*stride
			for w := uint64(1); w < cp.HotThreshold; w++ {
				read(lba)
			}
			fill.Record(int64(read(lba)))
		}
		// Cached hit: one hot bucket, fill once, then re-read repeatedly.
		hot := base + 2*probes*stride
		for w := uint64(0); w < cp.HotThreshold; w++ {
			read(hot)
		}
		for i := 0; i < probes; i++ {
			hit.Record(int64(read(hot)))
		}
		// Coherence: overwrite the now-cached block and re-read. The write
		// passes the UIF's invalidation window, so the old bytes must be
		// gone no matter how the write raced the resident entry.
		pattern := make([]byte, ioBytes)
		for i := range pattern {
			pattern[i] = byte(i*13 + 7)
		}
		v.Mem.WriteAt(pattern, bufBase)
		w := &vm.Req{Op: vm.OpWrite, LBA: hot, Blocks: uint32(perIO), Buf: bufBase, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk, vcpu, w); !st.OK() {
			panic(fmt.Sprintf("cache probe write: %v", st))
		}
		v.Mem.WriteAt(make([]byte, ioBytes), bufBase)
		read(hot)
		got := make([]byte, ioBytes)
		v.Mem.ReadAt(got, bufBase)
		out.coherent = string(got) == string(pattern)
	})
	deadline := env.Now().Add(2 * sim.Second)
	for !done && env.Now() < deadline {
		env.RunUntil(env.Now().Add(sim.Millisecond))
	}
	out.hitP50 = sim.Duration(hit.Median())
	out.fastP50 = sim.Duration(fast.Median())
	out.fillP50 = sim.Duration(fill.Median())
}

// cacheTable sweeps workload mix and cache configuration: the zipf
// re-read sweet spot, mixed read/write under both write policies (write-
// through keeps overwritten blocks hot, write-around sheds them), and a
// deliberately undersized cache to exercise ARC eviction under pressure.
func cacheTable(o Options) *Table {
	t := &Table{
		ID:    "cache",
		Title: "Host block cache: hit ratio and per-path read latency",
		Cols:  []string{"kIOPS", "hit_ratio", "hit_p50_us", "fast_p50_us", "fill_p50_us", "evictions", "conflicts", "coherent"},
	}
	small := storfn.DefaultCacheParams()
	small.Cache.CapacityBlocks = 2048 // 1 MiB: forces eviction under the hot set
	wa := storfn.DefaultCacheParams()
	wa.Cache.WritePolicy = hostcache.WriteAround
	mixed := func(c fio.Config) fio.Config { c.Mode = fio.RandRW; return c }
	rows := []struct {
		name string
		cp   storfn.CacheParams
		cfg  fio.Config
	}{
		{"zipf re-read WT", storfn.DefaultCacheParams(), cacheCfg(o)},
		{"mixed RW WT", storfn.DefaultCacheParams(), mixed(cacheCfg(o))},
		{"mixed RW WA", wa, mixed(cacheCfg(o))},
		{"small cache WT", small, cacheCfg(o)},
	}
	// One shard per cache configuration; rows assemble in declaration order.
	g := o.group()
	runs := make([]*cacheRun, len(rows))
	for i, row := range rows {
		row := row
		runs[i] = shard(g, func() cacheRun { return runCache(o, row.cp, row.cfg, 4) })
	}
	g.Run()
	for i, row := range rows {
		cr := *runs[i]
		coherent := 0.0
		if cr.coherent && cr.drained {
			coherent = 1
		}
		t.Add(row.name,
			cr.res.KIOPS(),
			cr.hitRatio,
			float64(cr.hitP50)/1e3,
			float64(cr.fastP50)/1e3,
			float64(cr.fillP50)/1e3,
			float64(cr.counters.Get("cache.evictions")),
			float64(cr.counters.Get("cache.conflicts")),
			coherent)
	}
	t.Notes = "hit_ratio = cache hits / UIF reads during the fio phase; coherent = a probe overwrite of a cached block was never read back stale"
	return t
}
