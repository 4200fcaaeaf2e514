package harness

import (
	"fmt"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
)

// The scale experiment is the sharded-router deliverable: a 1→1024-VM
// sweep through the per-core shard fleet with adaptive path promotion.
// Every tenant gets a whole namespace (so the default, statically-constant
// fast-path classifier stays loaded and the tenant promotes to the direct
// SQ→HSQ mapping) on a per-shard NVMe device — the paper's per-core
// SQ/HSQ deployment shape, one device queue pair set per shard, so the
// sweep measures router scaling rather than a single drive's ceiling.
// Tenants place round-robin across ceil(N/32) shards (capped at 32) and
// run closed-loop QD1 512 B random reads: the per-op latency is then the
// full mediation hop, making aggregate IOPS and p99 direct measures of
// per-shard dispatch cost.
//
// One mid-sweep row replays a promotion/demotion episode: a third of the
// way into the measurement window, tenant 0's classifier is hot-swapped
// for the (map-dependent, unprovable) partition classifier — demoting it
// synchronously — and swapped back at two thirds, re-promoting it through
// the shard's control inbox. The row's ok asserts the fence: zero guest
// errors, everything drained, and the tenant finishes promoted again.
func init() {
	register("scale", "Sharded router scale sweep: 1-1024 VMs, per-core shards, adaptive path promotion", func(o Options) []*Table {
		return []*Table{scaleTable(o)}
	})
}

const (
	// scaleTenantsPerShard is the fleet sizing rule: one shard per 16
	// tenants, capped at scaleMaxShards (the testbed's host-core budget).
	// 16 QD1 tenants keep a shard's poll round around 10 µs, so the
	// queueing a command sees on top of device latency stays well inside
	// the p99-flatness budget (1.5x the 1-VM point).
	scaleTenantsPerShard = 16
	scaleMaxShards       = 64
	// scaleNSBlocks sizes each tenant namespace (512 B blocks, 1 GiB — the
	// fio default workset, so every job addresses its whole namespace).
	scaleNSBlocks = 1 << 21
)

// scaleShards returns the shard count for a fleet of n tenants.
func scaleShards(n int) int {
	s := (n + scaleTenantsPerShard - 1) / scaleTenantsPerShard
	if s > scaleMaxShards {
		s = scaleMaxShards
	}
	return s
}

// scaleRun is one sweep cell's outcome.
type scaleRun struct {
	res    fio.Result
	shards int

	promoted        int // tenants on the direct mapping at the end
	promotions      uint64
	demotions       uint64
	promotedOps     uint64
	classifications uint64

	episode   bool // this cell ran the mid-sweep hot-swap episode
	episodeOK bool // demoted at swap, re-promoted after restore
	drained   bool
}

// runScale builds a fleet of vms single-vCPU tenants over per-shard
// devices and runs the closed-loop sweep workload; when episode is set,
// tenant 0 rides through a demote/re-promote cycle mid-measurement.
func runScale(o Options, vms int, episode bool) scaleRun {
	shards := scaleShards(vms)
	env := sim.New(o.Seed + 1)
	defer env.Close()
	p := stack.DefaultParams()
	h := stack.NewHost(env, vms+shards+2, vms, p, device.NullStore{})

	// One device per shard: the host's drive serves shard 0, the rest are
	// its twins. Tenant i lands on shard i%shards (round-robin placement
	// in attach order), so its namespace lives on its shard's device.
	devs := make([]*device.Device, shards)
	devs[0] = h.Dev
	for j := 1; j < shards; j++ {
		devs[j] = device.New(env, p.Device, device.NullStore{})
	}

	sol := stack.NewNVMetroSharded(h, shards)
	targets := make([]fio.Target, vms)
	vcs := make([]*core.Controller, vms)
	for i := 0; i < vms; i++ {
		dev := devs[i%shards]
		nsid := uint32(1)
		if i >= shards {
			nsid = dev.NextNSID()
			dev.AddNamespace(nsid, scaleNSBlocks, device.NullStore{})
		}
		v := h.NewVM(1, 16<<20)
		disk := sol.Provision(v, device.WholeNamespace(dev, nsid))
		vcs[i] = sol.ControllerFor(v)
		targets[i] = fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(0)}
	}

	warm, dur := o.windows()
	cfg := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 1, Warmup: warm, Duration: dur}

	out := scaleRun{shards: shards, episode: episode}
	if episode {
		// The hot-swap episode runs inside the measurement window so the
		// row's numbers include the demoted stretch.
		prog, _ := storfn.PartitionClassifier(vcs[0].Partition())
		env.Go("scale-episode", func(pr *sim.Proc) {
			pr.Sleep(sim.Duration(warm) + dur/3)
			if err := vcs[0].LoadClassifier(prog); err != nil {
				panic(err)
			}
			demoted := !vcs[0].Promoted()
			pr.Sleep(dur / 3)
			if err := vcs[0].LoadClassifier(core.DefaultClassifier()); err != nil {
				panic(err)
			}
			out.episodeOK = demoted
		})
	}

	out.res = fio.Run(env, h.CPU, targets, cfg)
	out.drained = true
	for _, vc := range vcs {
		out.drained = out.drained && drainOutstanding(env, vc.Outstanding)
	}

	r := vcs[0].Router()
	for _, vc := range vcs {
		if vc.Promoted() {
			out.promoted++
		}
	}
	if episode {
		// The fence must have closed on swap and reopened after restore.
		out.episodeOK = out.episodeOK && vcs[0].Promoted() && r.Demotions >= 1
	}
	out.promotions = r.Promotions
	out.demotions = r.Demotions
	out.promotedOps = r.PromotedOps
	out.classifications = r.Classifications
	return out
}

// scaleOK is the cell acceptance predicate: no guest-visible errors,
// everything drained, every tenant finished on the direct mapping, and —
// outside the episode cell, where tenant 0's demoted stretch legitimately
// classifies — zero classifier executions (the promotion tier fully
// elided the classifier).
func scaleOK(r scaleRun, vms int) bool {
	ok := r.drained && r.res.Errors == 0 && r.promoted == vms &&
		r.promotions >= uint64(vms)
	if r.episode {
		return ok && r.episodeOK && r.classifications > 0
	}
	return ok && r.classifications == 0 && r.demotions == 0
}

// scaleTable sweeps the fleet sizes; one mid-size row carries the
// promotion/demotion episode.
func scaleTable(o Options) *Table {
	t := &Table{
		ID:    "scale",
		Title: "Sharded router scale sweep (closed-loop 512B randread, QD1 per VM)",
		Cols: []string{"shards", "kiops", "kiops_per_vm", "p99_us", "promoted",
			"promotions", "demotions", "promoted_ops", "classified", "episode", "ok"},
	}
	fleets := []int{1, 4, 16, 64, 256, 1024}
	episodeAt := 64
	if o.Quick {
		fleets = []int{1, 8, 64}
		episodeAt = 8
	}
	g := o.group()
	type cell struct {
		vms int
		r   *scaleRun
	}
	var cells []cell
	for _, n := range fleets {
		n := n
		ep := n == episodeAt
		cells = append(cells, cell{n, shard(g, func() scaleRun { return runScale(o, n, ep) })})
	}
	g.Run()
	for _, c := range cells {
		r := *c.r
		ok, ep := 0.0, 0.0
		if scaleOK(r, c.vms) {
			ok = 1
		}
		if r.episode {
			ep = 1
		}
		t.Add(fmt.Sprintf("N=%d", c.vms),
			float64(r.shards),
			r.res.KIOPS(),
			r.res.KIOPS()/float64(c.vms),
			float64(r.res.Lat.P99())/1e3,
			float64(r.promoted),
			float64(r.promotions),
			float64(r.demotions),
			float64(r.promotedOps),
			float64(r.classifications),
			ep,
			ok)
	}
	t.Notes = "one shard per 16 VMs (max 64), one device per shard, whole namespace per VM; episode row hot-swaps VM0's classifier mid-window (demote) and back (re-promote); ok = drained, errors=0, all promoted, classifier fully elided (episode row: fence verified)"
	return t
}
