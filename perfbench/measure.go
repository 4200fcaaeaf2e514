package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"nvmetro/internal/sim"
)

// snapshot is every counter the metrics are differences of, read at one
// instant of the measured run.
type snapshot struct {
	wall    time.Time
	cpuNs   int64   // process user+sys CPU
	alloc   uint64  // cumulative heap bytes allocated
	gcCPU   float64 // runtime/metrics GC CPU seconds
	usedCPU float64 // runtime/metrics non-idle CPU seconds

	ops       uint64 // guest operations completed
	subs      uint64 // guest disk requests submitted
	ios       uint64 // guest disk requests completed
	router    routerCounts
	deferred  uint64
	store     storeStats
	lsmSelf   sim.Duration
	tenantOps []uint64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func (in *instance) snap() snapshot {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	s := snapshot{
		wall:     time.Now(),
		cpuNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		alloc:    ms.TotalAlloc,
		gcCPU:    cpuMetrics[0].Value.Float64(),
		usedCPU:  cpuMetrics[1].Value.Float64() - cpuMetrics[2].Value.Float64(),
		ops:      in.log.ops,
		router:   sumRouters(in.routers),
		deferred: qosDeferred(in),
	}
	for _, d := range in.disks {
		s.subs += d.subs
		s.ios += d.ios
	}
	if in.store != nil {
		s.store = *in.store
	}
	for _, j := range in.kv {
		s.lsmSelf += j.selfVirt
	}
	for _, t := range in.tenants {
		s.tenantOps = append(s.tenantOps, t.disk.ios)
	}
	return s
}

// phase is the outcome of one measured run of one built instance.
type phase struct {
	setup  time.Duration // wall time from the start of set-up to the first measured op
	start  snapshot      // at the first measured op
	end    snapshot      // when the pacer stopped the run
	winOps uint64        // ops completed in the fixed virtual window
	lat    []int64       // their exact virtual latencies, sorted
	window sim.Duration
	// winBusy and busy are modelled CPU time by tag over the fixed window
	// and over the whole measured run.
	winBusy, busy sim.CPUUsage
	digest        string
	// peakRSS is the process's peak RSS (MiB) at the end of the fixed
	// window: set-ups plus a fixed amount of simulated work, so it does
	// not grow with how far the host got in the rest of the run.
	peakRSS float64
	chk     tally
	profile *layerProfile // traced phases only
	tenants []tenant      // fleet-rw QoS tenants
	kv      bool          // the ops are key-value calls, not disk requests
}

// pacerTick is how often, in virtual time, the pacer looks at the wall
// clock after the fixed window: a few milliseconds of wall time on every
// workload.
const pacerTick = 200 * sim.Microsecond

// runOpts selects how a phase is measured.
type runOpts struct {
	traced bool
	// wall is the minimum wall time to measure; the fixed virtual window
	// is always measured in full.
	wall time.Duration
	// setupOnly ends the phase at the first measured op.
	setupOnly bool
	// profile, when set, is the file the CPU profile of the measured run
	// is written to.
	profile string
}

// measure builds one instance of w, measures it, drains it and checks its
// outputs.
func measure(w workload, seed int64, o runOpts) (*phase, error) {
	t0 := time.Now()
	in := w.build(w, seed, o.traced)
	defer in.env.Close()
	in.log.from = in.measFrom
	in.log.to = in.measFrom.Add(w.window)

	ph := &phase{window: w.window, tenants: in.tenants, kv: in.kv != nil}
	var perr error
	var prof *os.File
	in.env.Go("perfbench-pacer", func(p *sim.Proc) {
		p.Sleep(in.measFrom.Sub(p.Now()))
		ph.setup = time.Since(t0)
		if o.profile != "" {
			if prof, perr = os.Create(o.profile); perr == nil {
				perr = pprof.StartCPUProfile(prof)
			}
		}
		cpu0 := in.cpu.Snapshot()
		ph.start = in.snap()
		if o.setupOnly {
			p.Sleep(1) // Stop must land inside fio's measuring RunUntil
			in.env.Stop()
			return
		}
		p.Sleep(w.window)
		ph.winBusy = in.cpu.Since(cpu0)
		ph.winOps = uint64(len(in.log.lat))
		ph.digest = digest(in, ph.winBusy)
		ph.peakRSS = peakRSSMB()
		for deadline := ph.start.wall.Add(o.wall); time.Now().Before(deadline); {
			p.Sleep(pacerTick)
		}
		ph.end = in.snap()
		ph.busy = in.cpu.Since(cpu0)
		if prof != nil && perr == nil {
			pprof.StopCPUProfile()
		}
		in.env.Stop()
	})
	in.run()
	if prof != nil {
		if err := prof.Close(); perr == nil {
			perr = err
		}
	}
	if perr != nil {
		return nil, fmt.Errorf("cpu profile: %w", perr)
	}
	in.stop()
	for deadline := in.env.Now().Add(sim.Second); !in.idle() && in.env.Now() < deadline; {
		in.env.RunUntil(in.env.Now().Add(sim.Millisecond))
	}
	if !in.idle() {
		in.chk.fail("outstanding requests did not drain")
	}
	if !o.setupOnly {
		in.verify()
	}
	ph.lat = in.log.lat
	sort.Slice(ph.lat, func(i, j int) bool { return ph.lat[i] < ph.lat[j] })
	ph.chk = *in.chk
	if o.profile != "" && !o.setupOnly {
		lp, err := readProfile(o.profile)
		if err != nil {
			return nil, err
		}
		ph.profile = lp
	}
	return ph, nil
}

// digest hashes the virtual-time outputs of the fixed window: the op
// count, every latency in completion order, modelled busy time by tag and
// the router counters at the window's end. Identical digests mean the two
// runs dispatched the same events in the same order.
func digest(in *instance, busy sim.CPUUsage) string {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(len(in.log.lat)))
	for _, l := range in.log.lat {
		word(uint64(l))
	}
	for _, tag := range busy.Tags() {
		h.Write([]byte(tag))
		word(uint64(busy.ByTag[tag]))
	}
	for _, c := range sumRouters(in.routers).words() {
		word(c)
	}
	for _, t := range in.tenants {
		word(t.disk.ios)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
