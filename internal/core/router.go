package core

import (
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
)

// RouterCosts models the per-operation CPU cost of the router data plane.
// Values reflect a lean kernel module: a few hundred nanoseconds per queue
// scan and per dispatched request, with the eBPF interpreter dominating the
// classification step.
type RouterCosts struct {
	PollVQ      sim.Duration // scanning one virtual queue set per iteration
	Classify    sim.Duration // one classifier invocation
	ClassifyNat sim.Duration // one native (compiled) classifier invocation
	DispatchHQ  sim.Duration // forward to hardware queue + doorbell
	DispatchNQ  sim.Duration // forward to notify queue + UIF wake
	DispatchKQ  sim.Duration // translate and submit to the block layer
	CompleteVCQ sim.Duration // post one VCQ entry
	IRQInject   sim.Duration // virtual interrupt injection per batch
}

// DefaultRouterCosts returns the calibrated cost model.
func DefaultRouterCosts() RouterCosts {
	return RouterCosts{
		PollVQ:      250 * sim.Nanosecond,
		Classify:    300 * sim.Nanosecond,
		ClassifyNat: 80 * sim.Nanosecond,
		DispatchHQ:  250 * sim.Nanosecond,
		DispatchNQ:  350 * sim.Nanosecond,
		DispatchKQ:  600 * sim.Nanosecond,
		CompleteVCQ: 250 * sim.Nanosecond,
		IRQInject:   1200 * sim.Nanosecond,
	}
}

// KernelTarget is the kernel I/O path: anything that can service a
// translated NVMe command through the host block layer (package blockdev
// provides the implementation over bios and device-mapper tables).
type KernelTarget interface {
	// Submit services cmd against guest memory mem and calls done with the
	// final status. done runs in an arbitrary simulation context and must
	// not block.
	Submit(cmd nvme.Command, mem nvme.Memory, done func(nvme.Status))
}

// Router is the NVMetro I/O router: a set of worker threads ("shards"),
// shared round-robin between the attached VMs' virtual controllers, that
// poll virtual submission queues and the completion queues of every I/O
// path. Each worker owns its tenants exclusively — their queues, QoS
// arbiter state and promotion decisions — so workers never contend;
// traffic from other contexts (kernel completions, control posts) enters
// through each worker's two FIFO inboxes.
type Router struct {
	env      *sim.Env
	costs    RouterCosts
	workers  []*worker
	attached int // controllers attached so far; drives round-robin placement

	// promote enables the adaptive path-promotion tier: tenants whose
	// classifier has a proven static fast-path verdict collapse to a
	// direct SQ→HSQ mapping. Off by default — the single-loop evaluation
	// setups measure classifier execution, promotion would elide it.
	promote bool

	fastPathDeadline sim.Duration // see SetFastPathDeadline

	// Stats
	Classifications uint64
	FastPath        uint64
	NotifyPath      uint64
	KernelPath      uint64
	Immediate       uint64

	// Error accounting, per path and guest-visible.
	FastPathErrors   uint64 // non-OK fast-path hop completions
	NotifyPathErrors uint64 // non-OK notify-path hop completions
	KernelPathErrors uint64 // non-OK kernel-path hop completions
	GuestErrors      uint64 // non-OK completions posted to guest VCQs
	StaleComps       uint64 // fast-path completions with no live host tag
	HQTimeouts       uint64 // fast-path hops aborted at their deadline
	HTagsReclaimed   uint64 // quarantined host tags recycled without a completion
	Backpressure     uint64 // dispatches deferred because a queue was full
	BadQIDs          uint64 // guest operations naming an unknown queue
	NotifyReconciled uint64 // notify hops completed by supervision reconcile
	NotifyRequeued   uint64 // notify hops requeued through the classifier
	GuardErrors      uint64 // guest reads failing protection-info verification
	QuarantinedReads uint64 // guest reads refused on quarantined ranges

	// Path-promotion accounting.
	Promotions  uint64 // routed→direct transitions granted
	Demotions   uint64 // direct→routed transitions (classifier hot-swap fences)
	PromotedOps uint64 // guest commands dispatched via the direct mapping
}

// NewRouter creates a router with one worker per given host thread.
// The paper's main evaluations use one worker per VM; the scalability
// evaluation shares a single worker across all VMs. At least one thread is
// required.
func NewRouter(env *sim.Env, costs RouterCosts, threads []*sim.Thread) *Router {
	if len(threads) == 0 {
		panic("core: NewRouter needs at least one worker thread")
	}
	r := &Router{
		env:              env,
		costs:            costs,
		fastPathDeadline: 100 * sim.Millisecond,
	}
	for i, th := range threads {
		w := &worker{r: r, id: i, thread: th, wake: sim.NewCond(env)}
		r.workers = append(r.workers, w)
		env.Go(fmt.Sprintf("router-w%d", i), w.run)
	}
	return r
}

// SetFastPathDeadline bounds how long a fast-path hop may stay in flight
// before the router aborts it back to the guest (0 disables; default
// 100 ms, far above any legitimate device queueing delay). Queue pairs
// copy it when created, so it can only be set before the first Attach.
func (r *Router) SetFastPathDeadline(d sim.Duration) {
	if r.attached > 0 {
		panic("core: SetFastPathDeadline after Attach")
	}
	r.fastPathDeadline = d
}

// EnablePromotion turns on the adaptive path-promotion tier and
// re-evaluates every attached tenant against the current promotion
// criteria. Tenants whose classifier carries a proven constant fast-path
// verdict collapse to the direct SQ→HSQ mapping on their next round.
func (r *Router) EnablePromotion() {
	r.promote = true
	for _, w := range r.workers {
		for _, vc := range w.vcs {
			vc.refreshPromotion()
		}
	}
}

// PromotionEnabled reports whether the promotion tier is active.
func (r *Router) PromotionEnabled() bool { return r.promote }

// pathErrors returns the per-path error counter for target t.
func (r *Router) pathErrors(t target) *uint64 {
	switch t {
	case targetHQ:
		return &r.FastPathErrors
	case targetNQ:
		return &r.NotifyPathErrors
	default:
		return &r.KernelPathErrors
	}
}

// Workers returns the number of worker threads.
func (r *Router) Workers() int { return len(r.workers) }

// ShardInfo is a diagnostic snapshot of one router worker (shard):
// tenant assignment, per-tenant promotion state and inbox depths.
type ShardInfo struct {
	ID        int
	Asleep    bool
	VMs       []int  // attached VM IDs, attach order
	Promoted  []bool // parallel to VMs: direct-mapping tenants
	CompDepth int    // kernel-completion inbox depth
	CtrlDepth int    // control-plane inbox depth
	QoS       bool   // per-shard arbiter installed
}

// ShardInfos snapshots every worker for the control plane.
func (r *Router) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(r.workers))
	for i, w := range r.workers {
		si := ShardInfo{
			ID:        w.id,
			Asleep:    w.asleep,
			CompDepth: len(w.comps),
			CtrlDepth: len(w.ctrl),
			QoS:       w.qos != nil,
		}
		for _, vc := range w.vcs {
			si.VMs = append(si.VMs, vc.vm.ID)
			si.Promoted = append(si.Promoted, vc.promoted)
		}
		out[i] = si
	}
	return out
}

// worker is one router polling thread — a shard. It owns its tenants'
// queues and QoS arbiter exclusively; the only state other contexts touch
// are the two inboxes and the parked flag behind the wake cond. The
// simulation hands out one run token, so a push never overlaps the drain
// and plain slices need no synchronisation.
type worker struct {
	r      *Router
	id     int
	thread *sim.Thread
	wake   *sim.Cond
	vcs    []*Controller
	qos    *qos.Arbiter // nil until EnableQoS; per-shard arbiter state
	comps  []func()     // kernel-path completion fan-in, FIFO
	ctrl   []func()     // control-plane posts (reconcile, promotion fences), FIFO
	asleep bool
}

// hint wakes the worker if it parked itself due to inactivity.
func (w *worker) hint() {
	if w.asleep {
		w.asleep = false
		w.wake.Signal(nil)
	}
}

// post queues fn to run as a routing effect on the worker's next
// iteration — the external-work channel the supervision subsystem uses to
// run reconciliation in worker context, where completions and retries are
// flushed in the same round. Safe from any simulation context.
func (w *worker) post(fn func()) {
	w.ctrl = append(w.ctrl, fn)
	w.hint()
}

// drain moves every thunk queued in inbox into effects, charging one poll
// step each, and empties the inbox for reuse.
func drain(inbox *[]func(), effects *[]func(), work *sim.Duration, poll sim.Duration) {
	for _, fn := range *inbox {
		*work += poll
		*effects = append(*effects, fn)
	}
	clear(*inbox)
	*inbox = (*inbox)[:0]
}

// run is the worker main loop: a two-phase poll (gather work, charge CPU,
// apply effects) with adaptive parking when every attached VM is idle.
func (w *worker) run(p *sim.Proc) {
	c := w.r.costs
	for {
		var work sim.Duration
		outstanding := 0

		// Phase 1: gather. Data-structure work happens instantly; the CPU
		// time it represents is charged in phase 2 before effects land.
		var effects []func()

		// Kernel-path completions fan in from other contexts through the
		// completion inbox; drain what is queued this round.
		drain(&w.comps, &effects, &work, c.PollVQ)

		for _, vc := range w.vcs {
			work += c.PollVQ
			outstanding += vc.outstanding
			// Notify-path completions (one NCQ per controller).
			if vc.nq != nil {
				var e nvme.Completion
				for vc.nq.ncq.Pop(&e) {
					h, ok := vc.takeNTag(e.CID())
					if !ok {
						continue
					}
					st := e.Status()
					effects = append(effects, func() { w.finishHop(h, targetNQ, st) })
				}
			}
			for _, vq := range vc.vqs {
				// New guest submissions (the arbitrated pass below handles
				// these when QoS is enabled).
				if w.qos == nil {
					var cmd nvme.Command
					for vq.vsq.Pop(&cmd) {
						vc.outstanding++
						outstanding++
						req := &request{vq: vq, gcid: cmd.CID(), cmd: cmd, t0: w.r.env.Now()}
						if vc.promoted {
							// Promoted tenant: the classifier's verdict is a
							// proven constant, so the hop maps SQ→HSQ
							// directly — no classifier charge, no execution.
							effects = append(effects, func() { w.directDispatch(req) })
						} else {
							work += vc.classifyCost(c)
							effects = append(effects, func() { w.classifyAndRoute(req, HookVSQ, 0) })
						}
					}
				}
				// Fast-path completions. The host tag's generation, echoed
				// in DW0, must match too: a late completion for a tag the
				// deadline sweep aborted — quarantined or already reissued —
				// is counted (silent drops would hide injected faults),
				// never delivered.
				var e nvme.Completion
				for vq.hqp.CQ.Pop(&e) {
					h, m := vq.tags.Complete(e.CID(), e.Result())
					if m != nvme.TagLive {
						w.r.StaleComps++
						continue
					}
					st := e.Status()
					effects = append(effects, func() { w.finishHop(h, targetHQ, st) })
				}
				// Deadline sweep: recycle quarantined tags whose completion
				// never arrived and abort fast-path hops that outlived their
				// deadline.
				if vq.tags.Due() {
					w.r.HTagsReclaimed += uint64(vq.tags.Reclaim())
					for h, ok := vq.tags.Expire(); ok; h, ok = vq.tags.Expire() {
						w.r.HQTimeouts++
						effects = append(effects, func() { w.finishHop(h, targetHQ, nvme.SCAbortRequested) })
					}
				}
			}
		}

		// Externally posted work (supervision reconciliation, promotion
		// fences) runs after the per-controller gather so NCQ completions
		// consumed above cannot race the reconcile sweep within the round.
		drain(&w.ctrl, &effects, &work, c.PollVQ)

		// Arbitrated admission pass: WFQ + token buckets + admission
		// control decide which VSQ heads enter this round. Commands left
		// throttled in their rings are backlog the worker must keep
		// polling for (time must advance for buckets to refill).
		backlog := 0
		if w.qos != nil {
			var admitted int
			admitted, backlog = w.gatherQoS(&effects, &work)
			outstanding += admitted
		}

		if len(effects) == 0 {
			if outstanding == 0 && backlog == 0 {
				// Nothing in flight anywhere: park until a doorbell hint,
				// kernel completion or UIF notification arrives. This is
				// the "stop polling during inactivity" behaviour.
				w.asleep = true
				w.wake.Wait()
				continue
			}
			// Busy-poll while requests are in flight or throttled.
			w.thread.Exec(p, work)
			continue
		}

		// Phase 2: charge the CPU for this batch.
		w.thread.Exec(p, work)

		// Phase 3: apply routing effects and post completions.
		for _, fn := range effects {
			fn()
		}
		w.flushCompletions(p)
		w.flushRetries(p)
	}
}

// flushCompletions posts queued VCQ entries and injects interrupts.
func (w *worker) flushCompletions(p *sim.Proc) {
	c := w.r.costs
	for _, vc := range w.vcs {
		for _, vq := range vc.vqs {
			if len(vq.pendingVCQ) == 0 {
				continue
			}
			var cost sim.Duration
			n := 0
			for _, pc := range vq.pendingVCQ {
				if !vq.vcq.Push(&pc) {
					break
				}
				n++
				cost += c.CompleteVCQ
			}
			vq.pendingVCQ = vq.pendingVCQ[n:]
			if n > 0 {
				cost += c.IRQInject
				w.thread.Exec(p, cost)
				if vq.irq != nil {
					vq.irq()
				}
			}
		}
	}
}

// flushRetries re-attempts dispatches that found a full HSQ/NSQ earlier.
func (w *worker) flushRetries(p *sim.Proc) {
	for _, vc := range w.vcs {
		if len(vc.retry) == 0 {
			continue
		}
		pending := vc.retry
		vc.retry = nil
		for _, fn := range pending {
			fn()
		}
	}
}
