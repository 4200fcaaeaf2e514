// Package sim implements a deterministic, process-based discrete-event
// simulation (DES) kernel. It is the time substrate for the whole NVMetro
// reproduction: every host thread, vCPU, device and fabric link runs as a
// simulated process on a virtual clock.
//
// The model follows SimPy-style process interaction: processes are ordinary
// goroutines, but the scheduler hands out a single run token, so exactly one
// process executes at any instant. All cross-process interaction goes through
// sim primitives (Sleep, Cond, Resource, events), which makes simulations
// deterministic given a seed and free of data races by construction.
//
// The scheduler is built for throughput: events live by value in one 4-ary
// min-heap plus a same-instant batch (see queue.go), so Sleep/At/After are
// allocation-free in steady state; same-instant callback batches dispatch in
// a tight loop without touching the run token; and the run token travels
// directly from the yielding process to the next runnable one — a single
// channel rendezvous per switch, or none at all when a process's own timer
// is the next event. Event dispatch order is the exact (t, seq) total order
// of the original heap scheduler, so traces are bit-identical.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
)

// growStack forces one stack growth at worker-goroutine birth, while the
// stack is still empty and the copy is nearly free. Because the yielding
// goroutine itself runs the dispatch loop (baton passing), scheduler frames
// stack on top of arbitrarily deep user code; without the pre-grow, every
// process goroutine pays several stack doublings — each copying a deep live
// stack — as soon as it parks (runtime.copystack showed up at ~16% of a
// full fig5 sweep). Workers are pooled (see workerLoop), so the cost is
// paid once per pool slot, not once per process.
//
//go:noinline
func growStack() {
	var pad [8 << 10]byte
	runtime.KeepAlive(&pad)
}

// Time is an absolute virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// maxTime is the run limit used by Run (no bound).
const maxTime = Time(1<<63 - 1)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two timestamps.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string     { return fmt.Sprintf("%.3fus", float64(t)/1e3) }
func (d Duration) String() string { return fmt.Sprintf("%.3fus", float64(d)/1e3) }

// Seconds returns the duration in seconds as a float.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// ErrStopped is the panic value delivered to a parked process when the
// environment is closed. Process bodies should not recover from it.
var ErrStopped = errors.New("sim: environment closed")

// Env is a simulation environment: a virtual clock plus an event queue. It
// is not safe for concurrent use from multiple OS threads; all access must
// come from the goroutine currently holding the run token (the Run caller
// or the running simulated process).
type Env struct {
	now   Time
	seq   uint64
	q     queue
	limit Time   // dispatch bound of the run in progress
	nev   uint64 // events dispatched (see Dispatched)

	idle      chan struct{} // hands the run token back to Run/Close
	cur       *Proc
	procs     []*Proc // every spawned, unfinished process (Close needs them)
	procsDead int
	live      int
	closed    bool
	fail      any // panic value captured from a process or callback
	stopped   bool
	rng       *rand.Rand
	tokFree   []*waitTok // free list for wait tokens
	pool      []*worker  // idle worker goroutines awaiting a process
	procFree  []*Proc    // retired Procs with no queue references, reusable
}

// New creates an environment whose random source is seeded with seed.
func New(seed int64) *Env {
	return &Env{
		idle:  make(chan struct{}),
		limit: maxTime,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from simulated processes (or between Run calls) so that draws
// happen in a deterministic order.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Live reports the number of processes that have been spawned and have not
// yet finished.
func (e *Env) Live() int { return e.live }

// QueueLen reports the number of queued events, including lazily-cancelled
// ones not yet reclaimed (see QueueDead).
func (e *Env) QueueLen() int { return e.q.size }

// QueueDead reports the number of queued events known to be dead: cancelled
// timeouts and wakes for finished processes. They are skipped at dispatch
// and compacted away once they exceed half the queue.
func (e *Env) QueueDead() int { return e.q.dead }

// Dispatched reports the number of events popped from the queue so far:
// process wakes, callbacks and timer firings, including the lazily-cancelled
// ones that are skipped at dispatch. Divided by completed operations it is
// the simulator's event cost per op.
func (e *Env) Dispatched() uint64 { return e.nev }

func (e *Env) push(t Time, p *Proc, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	if p != nil {
		p.wakes++
	}
	e.q.push(e.now, event{t: t, seq: e.seq, p: p, fn: fn})
	e.maybeCompact()
}

// pushTimer schedules a cancellable timeout: when it pops unfired, it fires
// tok and re-queues a wake for tok.p (the two-step wake preserves the exact
// event ordering of the callback-based implementation it replaces). If tok
// is fired early by a signal, the queued event is lazily cancelled.
func (e *Env) pushTimer(t Time, tok *waitTok) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	tok.hasTimer = true
	tok.p.wakes++
	e.q.push(e.now, event{t: t, seq: e.seq, p: tok.p, tok: tok})
	e.maybeCompact()
}

// cancelTimer accounts for a pending timeout whose token just fired by
// signal: the queued event is now dead and waits for lazy reclamation.
func (e *Env) cancelTimer(tok *waitTok) {
	tok.p.wakes--
	e.q.dead++
}

// compactMinDead is the floor below which lazy deletions are never worth a
// compaction sweep, regardless of the dead/live ratio.
const compactMinDead = 64

func (e *Env) maybeCompact() {
	if e.q.dead >= compactMinDead && e.q.dead*2 > e.q.size {
		e.q.compact()
	}
}

// At schedules fn to run in scheduler context at time t. fn must not block
// on simulation primitives; it may signal conditions and spawn processes.
func (e *Env) At(t Time, fn func()) {
	e.push(t, nil, fn)
}

// After schedules fn to run d from now (see At).
func (e *Env) After(d Duration, fn func()) {
	e.push(e.now.Add(d), nil, fn)
}

// Proc is a simulated process. Its methods must be called from the process's
// own goroutine while it holds the run token.
//
// A Proc is a fresh identity per Go call — queued wakes reference it, and a
// stale wake for a finished Proc must stay dead — but the goroutine running
// it is a pooled worker whose (already grown) stack and resume channel are
// recycled across processes.
type Proc struct {
	env    *Env
	name   string
	resume chan bool // run token entry (the worker's channel); value: stop flag
	w      *worker
	idx    int // position in env.procs
	done   bool
	wakes  int // queued events targeting this process
}

// worker is one pooled process goroutine. While idle it blocks on ch with
// p == nil; Go assigns p/body and the scheduler's next send on ch starts
// the body. p and body are only written while the worker is parked and only
// read after the wake-up receive, so the handoff is race-free.
type worker struct {
	ch   chan bool
	p    *Proc
	body func(*Proc)
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process. The body starts at the current virtual time,
// after the currently running process yields. Safe to call from process
// context, callback context, or before Run.
//
// The process runs on a pooled worker goroutine when one is idle, so
// spawn-heavy workloads (one process per device command) pay neither a
// goroutine launch nor the one-time stack pre-grow per process.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go after Close")
	}
	var w *worker
	if n := len(e.pool); n > 0 {
		w = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		w = &worker{ch: make(chan bool)}
		go e.workerLoop(w)
	}
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
		p.name, p.resume, p.w, p.done, p.wakes = name, w.ch, w, false, 0
	} else {
		p = &Proc{env: e, name: name, resume: w.ch, w: w}
	}
	w.p = p
	w.body = body
	e.live++
	e.addProc(p)
	e.push(e.now, p, nil)
	return p
}

// addProc registers p for Close, compacting finished entries when they
// dominate the list.
func (e *Env) addProc(p *Proc) {
	if e.procsDead >= 64 && e.procsDead*2 > len(e.procs) {
		w := 0
		for _, q := range e.procs {
			if !q.done {
				e.procs[w] = q
				q.idx = w
				w++
			}
		}
		for z := w; z < len(e.procs); z++ {
			e.procs[z] = nil
		}
		e.procs = e.procs[:w]
		e.procsDead = 0
	}
	p.idx = len(e.procs)
	e.procs = append(e.procs, p)
}

// removeProc drops p from the registry by swapping in the last entry.
// Registry order only matters to Close's teardown sweep, not to simulation
// results.
func (e *Env) removeProc(p *Proc) {
	last := len(e.procs) - 1
	q := e.procs[last]
	e.procs[p.idx] = q
	q.idx = p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// workerLoop is the body of a pooled process goroutine. Each iteration runs
// one process to completion, retires it, and keeps the simulation moving:
// the worker returns itself to the pool, then continues the dispatch loop
// and hands the run token straight to the next runnable process, bouncing
// through the Run goroutine only when the queue drains, the environment
// closes, or a failure must propagate. The worker exits on Close/failure;
// otherwise it parks on its channel awaiting the next assignment.
func (e *Env) workerLoop(w *worker) {
	growStack()
	fused := false
	for {
		if !fused {
			if stop := <-w.ch; stop {
				// Close: either an assigned process that never started
				// (retire it unrun) or an idle pool worker being drained.
				p := w.p
				w.p, w.body = nil, nil
				if p == nil {
					return
				}
				e.retire(p, nil)
				e.idle <- struct{}{}
				return
			}
		}
		fused = false
		p, body := w.p, w.body
		w.p, w.body = nil, nil
		e.retire(p, e.execBody(p, body))
		if e.closed || e.fail != nil {
			e.idle <- struct{}{}
			return
		}
		// Pool before dispatching so a callback that spawns can reuse this
		// worker immediately.
		e.pool = append(e.pool, w)
		next := e.dispatchSafe()
		if next == nil {
			e.idle <- struct{}{}
			continue // stay pooled; a later Go will resume us
		}
		e.cur = next
		if next.w == w {
			// A dispatch callback assigned our own next process: run it
			// inline rather than deadlock on a self-send.
			fused = true
			continue
		}
		next.resume <- false
	}
}

// execBody runs a process body, returning the panic value that terminated it
// (nil for a clean return, errStopSentinel when Close unwound it in park).
func (e *Env) execBody(p *Proc, body func(*Proc)) (r any) {
	defer func() { r = recover() }()
	body(p)
	return nil
}

// retire marks a process finished and records a non-sentinel panic for the
// Run caller to re-raise, so test output points at the process body. A
// process with no outstanding wakes has no queue or token references left,
// so its Proc can be recycled by a later Go — except during Close, whose
// sweep over e.procs must not see entries move.
func (e *Env) retire(p *Proc, r any) {
	p.done = true
	e.live--
	e.cur = nil
	e.q.dead += p.wakes // any leftover wakes for p are now dead
	if r != nil && r != errStopSentinel {
		e.fail = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
	if p.wakes == 0 && !e.closed {
		e.removeProc(p)
		e.procFree = append(e.procFree, p)
	} else {
		e.procsDead++
	}
}

var errStopSentinel = errors.New("sim: stop")

// park blocks the calling process until the scheduler resumes it. Callers
// must have arranged a wake-up (event or condition) beforehand. The parking
// process itself runs the dispatch loop: if its own wake-up is the next
// process event, it simply keeps running (no goroutine switch); otherwise
// it hands the run token directly to the next runnable process.
func (p *Proc) park() {
	e := p.env
	next := e.dispatchSafe()
	if next == p {
		e.cur = p
		return // fused self-resume: no channel operations
	}
	if next != nil {
		e.cur = next
		next.resume <- false
	} else {
		e.idle <- struct{}{}
	}
	if stop := <-p.resume; stop {
		panic(errStopSentinel)
	}
	e.cur = p
}

// Sleep suspends the process for d virtual time. Negative or zero d yields
// the token and resumes at the current time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.push(p.env.now.Add(d), p, nil)
	p.park()
}

// Yield gives other runnable processes scheduled at the current instant a
// chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// dispatch pops and runs events in (t, seq) order until a process must be
// resumed or the queue is exhausted up to the run limit. Callback events and
// timer firings run inline in the calling goroutine, so same-instant
// callback batches never touch the run token. Returns the process to hand
// the run token to (which may be the caller itself — it should just keep
// running), or nil when the run is over (drained, limit, or Stop).
func (e *Env) dispatch() *Proc {
	e.cur = nil
	q := &e.q
	for !e.stopped {
		ev, ok := q.next(e.limit)
		if !ok {
			return nil
		}
		e.nev++
		e.now = ev.t
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if tok := ev.tok; tok != nil {
			ev.p.wakes--
			if tok.fired {
				q.dead-- // cancelled timeout, lazily reclaimed
				continue
			}
			tok.fired = true
			e.push(e.now, ev.p, nil) // timeout: two-step wake (see pushTimer)
			continue
		}
		p := ev.p
		p.wakes--
		if p.done {
			q.dead-- // stale wake for a finished process
			continue
		}
		return p
	}
	return nil
}

// dispatchSafe is dispatch for process-context callers: a panic out of a
// callback (or a bad schedule) is captured and re-raised from the Run
// caller, as it would be if the callback had run on the Run goroutine.
func (e *Env) dispatchSafe() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.fail = r
			next = nil
		}
	}()
	return e.dispatch()
}

// runLoop drives dispatch from the Run caller's goroutine, parking while
// simulated processes pass the run token among themselves.
func (e *Env) runLoop() Time {
	for {
		p := e.dispatch()
		if p == nil {
			e.cur = nil
			return e.now
		}
		e.cur = p
		p.resume <- false
		<-e.idle
		e.cur = nil
		if e.fail != nil {
			f := e.fail
			e.fail = nil
			panic(f)
		}
	}
}

// Run processes events until the queue is empty (all processes are either
// finished or parked with no pending wake-up) or Stop is called. It returns
// the final time.
func (e *Env) Run() Time {
	e.stopped = false
	e.limit = maxTime
	return e.runLoop()
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to exactly t. It returns early if Stop is called.
func (e *Env) RunUntil(t Time) {
	e.stopped = false
	e.limit = t
	e.runLoop()
	if e.now < t && !e.stopped {
		e.now = t
	}
	e.limit = maxTime
}

// Stop makes the in-progress Run or RunUntil return after the current event.
// Callable from process or callback context.
func (e *Env) Stop() { e.stopped = true }

// Close terminates every parked process by delivering a stop panic, releasing
// their goroutines. The environment must not be used afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for i := 0; i < len(e.procs); i++ {
		p := e.procs[i]
		if p.done {
			continue
		}
		// Every unfinished process is blocked on its resume channel —
		// parked, or assigned to a worker and not yet started.
		p.resume <- true
		<-e.idle
	}
	// Idle pooled workers have no process assigned; a stop send makes them
	// exit without touching the idle channel.
	for _, w := range e.pool {
		w.ch <- true
	}
	e.pool = nil
	e.procs = nil
	e.procsDead = 0
	e.fail = nil
	e.q.clear()
}

// current returns the running process, panicking if called outside one.
func (e *Env) current() *Proc {
	if e.cur == nil {
		panic("sim: blocking primitive called outside process context")
	}
	return e.cur
}

// getTok takes a wait token from the free list (or allocates one).
func (e *Env) getTok(p *Proc) *waitTok {
	if n := len(e.tokFree); n > 0 {
		tok := e.tokFree[n-1]
		e.tokFree[n-1] = nil
		e.tokFree = e.tokFree[:n-1]
		*tok = waitTok{p: p}
		return tok
	}
	return &waitTok{p: p}
}

// putTok recycles a consumed wait token. Tokens that armed a timeout are
// never recycled: the queued timer event (and possibly a stale waiter-list
// slot) may still reference them.
func (e *Env) putTok(tok *waitTok) {
	if tok.hasTimer {
		return
	}
	tok.val = nil
	e.tokFree = append(e.tokFree, tok)
}
