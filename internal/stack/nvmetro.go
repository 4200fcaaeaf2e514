package stack

import (
	"fmt"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/integrity"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/qos"
	"nvmetro/internal/sgx"
	"nvmetro/internal/shard"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/supervise"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
)

// NVMetro is the paper's system as a provisionable solution. The basic
// configuration runs the "dummy" fast-path classifier (or the partition
// classifier when the VM is confined to a partition); the WithEncryption
// and WithReplication options wire the complete storage functions.
//
// Every configuration dispatches through core.Router. The constructors
// differ only in how many worker threads one router shares between VMs
// (none: each VM gets its own one-worker router), whether path promotion is
// on, and the host-thread tag the workers are charged under.
type NVMetro struct {
	h        *Host
	name     string
	workers  int          // worker threads of one router shared by every VM; 0 = one router per VM
	promote  bool         // adaptive path promotion
	tag      string       // host-thread tag of the router workers
	r        *core.Router // the shared router, built at the first Provision when workers > 0
	fw       *uif.Framework
	setup    func(w *Wiring)
	vms      map[*vm.VM]*Wiring
	qosCfg   *qos.Config
	supPol   *supervise.Policy
	integCfg *integrity.ScrubConfig
	xform    bool // the UIF transforms data (encryption): device bytes != guest bytes
}

// Wiring is one provisioned VM's NVMetro plumbing: its virtual controller
// and the storage-function handles the solution attached to it. Handles
// the configuration does not use are nil.
type Wiring struct {
	Ctrl       *core.Controller
	Supervisor *supervise.Supervisor // WithSupervision
	Replicator *storfn.Replicator    // WithReplication
	Domain     *integrity.Domain     // WithIntegrity
	Scrubber   *integrity.Scrubber   // WithIntegrity, unless the UIF transforms data
	Resyncer   *storfn.Resyncer      // WithIntegrity over WithReplication
	Clone      *cow.Store            // the CoW store when the namespace is a GoldenImage clone

	cacher   *storfn.Cacher            // WithCache, unsupervised
	cacheSup *storfn.CacherSupervision // WithCache under supervision

	// Replication plumbing the integrity layer guards and scrubs.
	replAtt *uif.Attachment
	replSec blockdev.BlockDevice
	replFn  *storfn.ReplicatorSupervision // nil unless supervised
}

// Cacher returns the cache UIF (nil without WithCache). Under supervision
// it is the current generation — a restart replaces it.
func (w *Wiring) Cacher() *storfn.Cacher {
	if w.cacheSup != nil {
		return w.cacheSup.Cacher()
	}
	return w.cacher
}

func newNVMetro(h *Host, name string, workers int, tag string) *NVMetro {
	return &NVMetro{h: h, name: name, workers: workers, tag: tag, vms: make(map[*vm.VM]*Wiring)}
}

// mustHaveWorkers rejects a shared-router worker count below one.
func mustHaveWorkers(ctor string, n int) {
	if n < 1 {
		panic(fmt.Sprintf("stack: %s needs at least 1 worker, got %d", ctor, n))
	}
}

// NewNVMetro creates the basic configuration: one router per VM.
func NewNVMetro(h *Host) *NVMetro { return newNVMetro(h, "NVMetro", 0, "router") }

// NewNVMetroShared creates the shared-worker configuration: one router
// whose workers (at least one) serve every VM.
func NewNVMetroShared(h *Host, workers int) *NVMetro {
	mustHaveWorkers("NewNVMetroShared", workers)
	return newNVMetro(h, "NVMetro", workers, "router")
}

// NewNVMetroSharded creates the per-core sharded configuration: one router
// whose shards (at least one, one host thread each) take tenants
// round-robin, with adaptive path promotion enabled.
func NewNVMetroSharded(h *Host, shards int) *NVMetro {
	mustHaveWorkers("NewNVMetroSharded", shards)
	s := newNVMetro(h, "NVMetro Sharded", shards, "shard")
	s.promote = true
	return s
}

// Fleet returns the shared router viewed as a shard fleet (nil with one
// router per VM, or before the first Provision).
func (s *NVMetro) Fleet() *shard.Fleet { return (*shard.Fleet)(s.r) }

// Name implements Solution.
func (s *NVMetro) Name() string { return s.name }

// router returns the router serving the next VM: the shared one, built
// with its worker threads at the first call, or a fresh one-worker router.
func (s *NVMetro) router() *core.Router {
	if s.r != nil {
		return s.r
	}
	threads := make([]*sim.Thread, max(s.workers, 1))
	for i := range threads {
		threads[i] = s.h.HostThread(s.tag)
	}
	r := core.NewRouter(s.h.Env, s.h.Params.Router, threads)
	if s.promote {
		r.EnablePromotion()
	}
	if s.qosCfg != nil {
		r.EnableQoS(*s.qosCfg)
	}
	if s.workers > 0 {
		s.r = r
	}
	return r
}

// WithQoS enables the WFQ arbiter on the router(s) this solution creates.
// VMs register as tenants with a default contract at Provision time; SetQoS
// installs per-VM contracts afterwards. Cross-tenant arbitration only takes
// effect with a shared router, where one worker sees several VMs; in the
// router-per-VM setup only the per-tenant rate limits and SLO tracking
// apply. Calling WithQoS after VMs are provisioned enables the arbiter on
// the already-created routers too (their attached VMs register as tenants
// immediately); EnableQoS keeps the first config if one was already
// installed.
func (s *NVMetro) WithQoS(cfg qos.Config) *NVMetro {
	s.qosCfg = &cfg
	for _, w := range s.vms {
		w.Ctrl.Router().EnableQoS(cfg)
	}
	return s
}

// SetQoS replaces the QoS contract of an already-provisioned VM.
func (s *NVMetro) SetQoS(v *vm.VM, tc qos.TenantConfig) {
	w := s.vms[v]
	if w == nil {
		panic("stack: SetQoS before Provision")
	}
	w.Ctrl.SetQoS(tc)
}

// QoSArbiter returns the shared router's first arbiter for inspection (nil
// unless WithQoS was configured and a shared router exists).
func (s *NVMetro) QoSArbiter() *qos.Arbiter {
	if s.r == nil {
		return nil
	}
	return s.r.QoS()
}

// framework lazily creates the (single-process, multi-VM) UIF framework.
func (s *NVMetro) framework(threads int) *uif.Framework {
	if s.fw == nil {
		var ths []*sim.Thread
		for i := 0; i < threads; i++ {
			ths = append(ths, s.h.HostThread("uif"))
		}
		s.fw = uif.NewFramework(s.h.Env, s.h.Params.UIF, ths)
	}
	return s.fw
}

// ControllerFor returns the virtual controller provisioned for v (the
// control-plane handle used to swap classifiers or attach UIFs live).
func (s *NVMetro) ControllerFor(v *vm.VM) *core.Controller {
	if w := s.vms[v]; w != nil {
		return w.Ctrl
	}
	return nil
}

// Wiring returns everything provisioned for v (nil before Provision).
func (s *NVMetro) Wiring(v *vm.VM) *Wiring { return s.vms[v] }

// WithSupervision runs every storage-function UIF this solution attaches
// under a supervisor with the given watchdog/restart policy. Applies to
// VMs provisioned after the call; the SGX encryptor variant is excluded
// (enclave relaunch is out of scope).
func (s *NVMetro) WithSupervision(pol supervise.Policy) *NVMetro {
	if err := pol.Validate(); err != nil {
		panic(err)
	}
	s.supPol = &pol
	return s
}

// launchSupervised starts fn's UIF under the configured supervision policy.
func (s *NVMetro) launchSupervised(w *Wiring, fw *uif.Framework, ring *blockdev.URing, fn supervise.Function) *supervise.Supervisor {
	sup, err := supervise.Launch(s.h.Env, fw, w.Ctrl, ring, 512, fn, *s.supPol)
	if err != nil {
		panic(err)
	}
	w.Supervisor = sup
	return sup
}

// Provision implements Solution.
func (s *NVMetro) Provision(v *vm.VM, part device.Partition) vm.Disk {
	w := &Wiring{Ctrl: s.router().Attach(v, part)}
	ns := part.Dev.Namespace(part.NSID)
	w.Clone, _ = ns.Store.(*cow.Store)
	s.vms[v] = w
	if s.setup != nil {
		s.setup(w)
	} else if part.Start != 0 || part.Blocks != ns.Info.Size {
		prog, _ := storfn.PartitionClassifier(part)
		if err := w.Ctrl.LoadClassifier(prog); err != nil {
			panic(err)
		}
	}
	if s.integCfg != nil {
		s.wireIntegrity(w)
	}
	return vm.NewNVMeDisk(v, w.Ctrl, 128, s.h.Params.Driver)
}

// WithIntegrity enables end-to-end data integrity on every VM provisioned
// afterwards: a per-controller PI domain stamped at the mediation point and
// verified at the guest completion boundary, the blockdev and fabric read
// completions, the cache serve/fill path and the replica fan-out, plus a
// background scrubber with the given policy. Composes with the base,
// replication and cache configurations; under encryption only the guest
// boundary is guarded (device bytes are ciphertext, so below-UIF boundaries
// have no plaintext expectation to check and scrubbing is skipped).
func (s *NVMetro) WithIntegrity(cfg integrity.ScrubConfig) *NVMetro {
	s.integCfg = &cfg
	return s
}

// wireIntegrity builds one controller's PI domain, attaches a guard to
// every boundary the active configuration exposes, and starts its scrubber.
func (s *NVMetro) wireIntegrity(w *Wiring) {
	vc := w.Ctrl
	part := vc.Partition()
	dom, err := integrity.NewDomain(part.Dev.Params().BlockSize())
	if err != nil {
		panic(err)
	}
	w.Domain = dom
	vc.SetGuard(dom.Guard("guest"))
	if s.xform {
		return // ciphertext below the UIF: no device-side expectation
	}
	shift := part.Dev.Params().LBAShift

	// The scrub leg: a dedicated host queue pair onto the same device,
	// verifying read completions like any kernel-path consumer would.
	bdev := blockdev.NewNVMeBlockDev(s.h.Env, device.WholeNamespace(part.Dev, part.NSID), s.h.CPU, s.h.guestCores, s.h.Params.Block)
	bdev.SetVerifier(&integrity.SectorGuard{G: dom.Guard("blockdev"), Size: blockdev.SectorSize})
	scr, err := integrity.NewScrubber(s.h.Env, dom, bdev, s.h.HostThread("scrub"), shift, *s.integCfg)
	if err != nil {
		panic(err)
	}
	w.Scrubber = scr

	if c := w.Cacher(); c != nil {
		c.Guard = dom.Guard("cache")
		scr.SetCache(c.Cache())
	}
	if rep := w.Replicator; rep != nil {
		rep.Guard = dom.Guard("replica")
		if ini, ok := w.replSec.(*nvmeof.Initiator); ok {
			ini.SetVerifier(&integrity.SectorGuard{G: dom.Guard("fabric"), Size: blockdev.SectorSize})
		}
		rs, err := storfn.NewResyncer(s.h.Env, rep, bdev, w.replAtt, s.h.HostThread("resync"), shift, storfn.DefaultResyncConfig())
		if err != nil {
			panic(err)
		}
		w.Resyncer = rs
		if w.replFn != nil {
			w.replFn.SetResyncer(rs)
		}
		scr.SetReplica(rep, rs, w.replAtt)
	}
}

// WithEncryption configures the transparent-encryption storage function:
// the encryptor classifier plus a plain or SGX XTS-AES UIF. The paper uses
// 2 UIF threads for the plain variant and 1 worker + 1 SGX switchless
// thread for the enclave variant.
func (s *NVMetro) WithEncryption(key []byte, useSGX bool) *NVMetro {
	s.name = "NVMetro Encr."
	if useSGX {
		s.name = "NVMetro SGX"
	}
	s.xform = true
	s.setup = func(w *Wiring) {
		vc := w.Ctrl
		part := vc.Partition()
		bdev := blockdev.NewNVMeBlockDev(s.h.Env, device.WholeNamespace(part.Dev, part.NSID), s.h.CPU, s.h.guestCores, s.h.Params.Block)
		ring := blockdev.NewURing(s.h.Env, bdev, s.h.Params.URing)
		if s.supPol != nil && !useSGX {
			s.launchSupervised(w, s.framework(2), ring,
				storfn.NewEncryptorSupervision(part, key, s.h.Params.Enc))
			return
		}
		prog, _ := storfn.EncryptorClassifier(part)
		if err := vc.LoadClassifier(prog); err != nil {
			panic(err)
		}
		var handler uif.Handler
		nthreads := 2
		if useSGX {
			enclave, err := sgx.Launch(s.h.Env, s.h.CPU, key, sgx.DefaultCosts())
			if err != nil {
				panic(err)
			}
			handler = storfn.NewSGXEncryptor(enclave, s.h.Params.Enc)
			nthreads = 1 // 1 UIF worker + the enclave's switchless thread
		} else {
			enc, err := storfn.NewEncryptor(key, s.h.Params.Enc)
			if err != nil {
				panic(err)
			}
			handler = enc
		}
		s.framework(nthreads).Attach(vc.AttachUIF(512), handler, ring)
	}
	return s
}

// WithReplication configures live disk replication: the replicator
// classifier multicasts writes to the local fast path and to a UIF that
// forwards them to the remote secondary over NVMe-oF. secondary returns
// the remote block device backing a given local partition.
func (s *NVMetro) WithReplication(secondary func(part device.Partition) blockdev.BlockDevice) *NVMetro {
	s.name = "NVMetro Repl."
	s.setup = func(w *Wiring) {
		vc := w.Ctrl
		part := vc.Partition()
		sec := secondary(part)
		ring := blockdev.NewURing(s.h.Env, sec, s.h.Params.URing)
		rep := storfn.NewReplicator()
		w.Replicator, w.replSec = rep, sec
		if s.supPol != nil {
			w.replFn = storfn.NewReplicatorSupervision(part, rep)
			w.replAtt = s.launchSupervised(w, s.framework(1), ring, w.replFn).Attachment()
			return
		}
		prog, _ := storfn.ReplicatorClassifier(part)
		if err := vc.LoadClassifier(prog); err != nil {
			panic(err)
		}
		w.replAtt = s.framework(1).Attach(vc.AttachUIF(512), rep, ring)
	}
	return s
}

// WithCache configures the classifier-steered host block cache: the cache
// classifier tracks per-bucket read heat and diverts hot reads to a Cacher
// UIF serving them from host memory; all writes pass through the UIF's
// invalidation window so cached data can never go stale.
func (s *NVMetro) WithCache(cp storfn.CacheParams) *NVMetro {
	s.name = "NVMetro Cache"
	s.setup = func(w *Wiring) {
		vc := w.Ctrl
		part := vc.Partition()
		p := cp
		p.Cache.BlockSize = uint32(1) << part.Dev.Params().LBAShift
		bdev := blockdev.NewNVMeBlockDev(s.h.Env, device.WholeNamespace(part.Dev, part.NSID), s.h.CPU, s.h.guestCores, s.h.Params.Block)
		ring := blockdev.NewURing(s.h.Env, bdev, s.h.Params.URing)
		if s.supPol != nil {
			w.cacheSup = storfn.NewCacherSupervision(s.h.Env, part, p)
			s.launchSupervised(w, s.framework(2), ring, w.cacheSup)
			return
		}
		nq := vc.AttachUIF(512)
		w.cacher = storfn.NewCacher(s.h.Env, p)
		prog, _ := storfn.CacheClassifier(part, w.cacher.Hints(), p.HotThreshold)
		if err := vc.LoadClassifier(prog); err != nil {
			panic(err)
		}
		s.framework(2).Attach(nq, w.cacher, ring)
	}
	return s
}

// RemoteHost is a second machine holding the replication secondary.
type RemoteHost struct {
	Env  *sim.Env
	CPU  *sim.CPU
	Dev  *device.Device
	Link *nvmeof.Link
	tgt  *nvmeof.Target
}

// NewRemoteHost builds the remote side of the replication experiments.
func NewRemoteHost(env *sim.Env, cores int, p device.Params, backing device.Store) *RemoteHost {
	r := &RemoteHost{Env: env, CPU: sim.NewCPU(env, cores), Link: nvmeof.DefaultLink(env)}
	r.Dev = device.New(env, p, backing)
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(r.Dev, 1), r.CPU, 0, blockdev.DefaultCosts())
	r.tgt = nvmeof.NewTarget(env, bdev, r.CPU)
	return r
}

// Secondary returns a factory exposing the remote device over the fabric.
func (r *RemoteHost) Secondary() func(part device.Partition) blockdev.BlockDevice {
	return func(part device.Partition) blockdev.BlockDevice {
		return nvmeof.NewInitiator(r.Env, r.Link, r.tgt)
	}
}
