// Command perfbench is the repository benchmark. It runs one of three
// deterministic NVMetro workloads through the public stack, fio and lsm
// APIs for a given wall time, checks every output it can, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// run) as one JSON object on the last line of standard output.
//
// Build and run it from the repository root through perfbench/run.py,
// which keeps the Go build cache inside the checkout:
//
//	python3 perfbench/run.py --workload poll-qd1 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: poll-qd1, fleet-rw or ycsb-enc")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "wall seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced-run report and CPU profile")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		os.Exit(2)
	}
	// The simulator hands one run token between goroutines, so a single P
	// runs it without cross-thread wake-ups, and every host measures the
	// same shape. GC shares that P, so its cost shows in wall time.
	runtime.GOMAXPROCS(1)

	wall := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, wall, *out)
	} else {
		res, err = runPlain(w, *seed, wall)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setups is how many times an untraced run sets the workload up; setup_s
// is their median.
const setups = 9

// runPlain measures the end-to-end metrics with tracing off. Set-up runs
// several times; all but the last instance stop at their first measured
// op, and the last one is measured.
func runPlain(w workload, seed int64, wall time.Duration) (*result, error) {
	var chk tally
	var setupS []float64
	for i := 1; i < setups; i++ {
		ph, err := measure(w, seed, runOpts{setupOnly: true})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, ph.setup.Seconds())
		chk.add(ph.chk)
		runtime.GC() // the next set-up reuses this instance's memory
	}
	ph, err := measure(w, seed, runOpts{wall: wall})
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, ph.setup.Seconds())
	chk.add(ph.chk)
	report(w, ph, &chk)

	ops := float64(ph.end.ops - ph.start.ops)
	if ops == 0 {
		chk.fail("no operation completed in the measured run")
	}
	m := map[string]metric{
		"sim_ops_per_s":      {opsPerSec(ph), "1/s"},
		"cpu_ns_per_op":      {float64(ph.end.cpuNs-ph.start.cpuNs) / ops, "ns"},
		"alloc_bytes_per_op": {float64(ph.end.alloc-ph.start.alloc) / ops, "B"},
		"peak_rss_mb":        {ph.peakRSS, "MB"},
		"setup_s":            {median(setupS), "s"},
		"virt_kops":          {float64(ph.winOps) / ph.window.Seconds() / 1e3, "kops"},
		"virt_mean_us":       {mean(ph.lat) / 1e3, "us"},
		"virt_p99_us":        {float64(quantile(ph.lat, 0.99)) / 1e3, "us"},
		"virt_busy_cores":    {ph.winBusy.Cores(), "cores"},
		"success_rate":       {1 - float64(chk.failed)/float64(max(chk.attempted, 1)), "share"},
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// runTraced measures the workload twice at the same seed: untraced for a
// third of the wall time, then traced (store timing and a CPU profile) for
// the rest. Their digests must match. It reports the per-layer metrics of
// the traced run and writes them, with the profile, under out.
func runTraced(w workload, seed int64, wall time.Duration, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	plain, err := measure(w, seed, runOpts{wall: wall / 3})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	traced, err := measure(w, seed, runOpts{traced: true, wall: wall - wall/3, profile: base + ".pprof"})
	if err != nil {
		return nil, err
	}
	var chk tally
	chk.add(plain.chk)
	chk.add(traced.chk)
	if plain.digest != traced.digest {
		chk.fail("traced digest %s differs from untraced %s", traced.digest, plain.digest)
	} else {
		chk.ok()
	}
	report(w, traced, &chk)
	m := layerMetrics(traced)
	m["trace.overhead"] = metric{opsPerSec(traced) / opsPerSec(plain), "ratio"}

	rep := struct {
		Workload       string            `json:"workload"`
		Seed           int64             `json:"seed"`
		Digest         string            `json:"digest"`
		UntracedDigest string            `json:"untraced_digest"`
		Ops            uint64            `json:"ops"`
		WallS          float64           `json:"wall_s"`
		LayerHostNs    map[string]int64  `json:"layer_host_ns"`
		BusyNs         map[string]int64  `json:"virt_busy_ns"`
		Profile        string            `json:"profile"`
		Metrics        map[string]metric `json:"metrics"`
	}{
		Workload: w.name, Seed: seed, Digest: traced.digest, UntracedDigest: plain.digest,
		Ops: traced.end.ops - traced.start.ops, WallS: traced.end.wall.Sub(traced.start.wall).Seconds(),
		LayerHostNs: traced.profile.ns, BusyNs: make(map[string]int64),
		Profile: base + ".pprof", Metrics: m,
	}
	for tag, d := range traced.busy.ByTag {
		rep.BusyNs[tag] = int64(d)
	}
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+"-trace.json", append(js, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("trace report: %s-trace.json\n", base)
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// layerMetrics derives the per-layer metrics of a traced phase.
func layerMetrics(ph *phase) map[string]metric {
	s, e := ph.start, ph.end
	ops := float64(e.ops - s.ops)
	ios := float64(e.ios - s.ios)
	subs := float64(e.subs - s.subs)
	per := func(v float64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	m := make(map[string]metric)
	for _, l := range layers {
		m[l+".host_ns_per_op"] = metric{per(float64(ph.profile.ns[l]), ops), "ns"}
	}
	var guest, core, uif float64
	for tag, d := range ph.busy.ByTag {
		switch {
		case strings.HasSuffix(tag, "/guest"):
			guest += float64(d)
		case tag == "router" || tag == "shard":
			core += float64(d)
		case tag == "uif":
			uif += float64(d)
		}
	}
	rc := e.router.minus(s.router)
	classify := float64(rc.classify)
	m["core.virt_busy_ns_per_op"] = metric{per(core, ops), "ns"}
	m["core.classify_per_op"] = metric{per(classify, ops), "count"}
	m["core.promoted_share"] = metric{per(float64(rc.promoted), subs), "share"}
	m["core.notify_share"] = metric{per(float64(rc.notify), subs), "share"}
	m["core.backpressure_per_op"] = metric{per(float64(rc.backpressure), ops), "count"}
	m["ebpf.host_ns_per_classify"] = metric{per(float64(ph.profile.ns["ebpf"]), classify), "ns"}
	m["qos.deferred_per_op"] = metric{per(float64(e.deferred-s.deferred), ops), "count"}
	m["qos.share_error"] = metric{shareError(ph), "ratio"}
	m["device.store_host_ns_per_call"] = metric{per(float64(e.store.hostNs-s.store.hostNs), float64(e.store.calls-s.store.calls)), "ns"}
	m["device.store_bytes_per_op"] = metric{per(float64(e.store.bytes-s.store.bytes), ops), "B"}
	m["vm.virt_busy_ns_per_op"] = metric{per(guest, ops), "ns"}
	m["uif.virt_busy_ns_per_op"] = metric{per(uif, ops), "ns"}
	m["xts.host_ns_per_kib"] = metric{per(float64(ph.profile.ns["xts"]), float64(e.store.bytes-s.store.bytes)/1024), "ns"}
	var self, diskIOs float64
	if ph.kv {
		self = per(float64(e.lsmSelf-s.lsmSelf), ops) / 1e3
		diskIOs = per(ios, ops)
	}
	m["lsm.virt_self_us_per_op"] = metric{self, "us"}
	m["lsm.disk_ios_per_op"] = metric{diskIOs, "count"}
	m["gc.cpu_share"] = metric{per(e.gcCPU-s.gcCPU, e.usedCPU-s.usedCPU), "share"}
	return m
}

// shareError is the largest relative deviation of a QoS tenant's share of
// its shard's completed I/O from its share of the shard's weight.
func shareError(ph *phase) float64 {
	type agg struct{ ops, weight float64 }
	shards := make(map[int]*agg)
	for i, t := range ph.tenants {
		a := shards[t.shard]
		if a == nil {
			a = &agg{}
			shards[t.shard] = a
		}
		a.ops += float64(ph.end.tenantOps[i] - ph.start.tenantOps[i])
		a.weight += t.weight
	}
	worst := 0.0
	for i, t := range ph.tenants {
		a := shards[t.shard]
		if a.ops == 0 {
			continue
		}
		share := float64(ph.end.tenantOps[i]-ph.start.tenantOps[i]) / a.ops
		worst = math.Max(worst, math.Abs(share/(t.weight/a.weight)-1))
	}
	return worst
}

// report prints the run's determinism digest and check summary.
func report(w workload, ph *phase, chk *tally) {
	fmt.Printf("workload %s: digest %s over %v virtual, %d latency samples, p50 %.3fus\n",
		w.name, ph.digest, ph.window, len(ph.lat), float64(quantile(ph.lat, 0.50))/1e3)
	fmt.Printf("checks: %d attempted, %d failed\n", chk.attempted, chk.failed)
	if chk.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed checks; first: %s\n", w.name, chk.failed, chk.firstErr)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func opsPerSec(ph *phase) float64 {
	return float64(ph.end.ops-ph.start.ops) / ph.end.wall.Sub(ph.start.wall).Seconds()
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
