package sim

// The event queue holds events by value in the strict (t, seq) order of the
// seed container/heap scheduler. cur is the same-instant batch: every event
// at exactly the current time, in seq order (a push at the current time
// appends; dispatch bumps curHead). h is a 4-ary min-heap of everything
// later. When cur drains, the heap's whole run at its minimum time moves
// into cur; seq grows monotonically, so later same-instant appends stay in
// order. Backing arrays are reused, so steady-state push/pop does not
// allocate. Cancelled timers and wakes for finished processes are deleted
// lazily: counted in dead, skipped at dispatch, and compacted away once they
// exceed half the queue.

type event struct {
	t   Time
	seq uint64
	// Exactly one behavior applies: run fn in scheduler context, fire tok
	// (a cancellable timeout), or wake the parked process p. Timer events
	// carry both tok and p (= tok.p).
	p   *Proc
	fn  func()
	tok *waitTok
}

// less is the scheduler's total order: time, then push sequence.
func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

type queue struct {
	cur     []event // events at exactly the current instant, dispatch order
	curHead int
	h       eventHeap // events after the current instant

	size int // total queued events, including dead ones
	dead int // lazily-cancelled events still queued
}

// push queues ev. now is the current virtual time; ev.t >= now has already
// been checked by the caller.
func (q *queue) push(now Time, ev event) {
	q.size++
	if ev.t == now {
		q.cur = append(q.cur, ev)
		return
	}
	q.h.push(ev)
}

// next consumes and returns the earliest event if its time is <= limit.
func (q *queue) next(limit Time) (event, bool) {
	if q.curHead == len(q.cur) && !q.promote(limit) {
		return event{}, false
	}
	ev := q.cur[q.curHead]
	if ev.t > limit {
		return event{}, false
	}
	q.cur[q.curHead] = event{} // release fn/tok references
	q.curHead++
	if q.curHead == len(q.cur) {
		// Reset eagerly so a same-instant push/pop chain (ping-pong at one
		// timestamp) reuses the batch buffer instead of growing it.
		q.cur = q.cur[:0]
		q.curHead = 0
	}
	q.size--
	return ev, true
}

// promote refills the empty cur with the next instant's batch: the run of
// equal-time events at the heap's minimum, popped in seq order. It reports
// false when the queue is empty or the next event lies beyond limit.
func (q *queue) promote(limit Time) bool {
	if len(q.h) == 0 || q.h[0].t > limit {
		return false
	}
	t := q.h[0].t
	for len(q.h) > 0 && q.h[0].t == t {
		q.cur = append(q.cur, q.h.pop())
	}
	return true
}

// deadEvent reports whether ev was lazily cancelled: a timeout whose token
// already fired, or a wake for a process that has finished.
func deadEvent(ev event) bool {
	if ev.tok != nil && ev.tok.fired {
		return true
	}
	return ev.fn == nil && ev.tok == nil && ev.p != nil && ev.p.done
}

// compact removes lazily-deleted events in place: cur keeps its order and
// the heap is rebuilt. Called when dead events exceed half the queue.
func (q *queue) compact() {
	filter := func(s []event, head int) []event {
		w := head
		for r := head; r < len(s); r++ {
			if !deadEvent(s[r]) {
				s[w] = s[r]
				w++
			}
		}
		clear(s[w:])
		return s[:w]
	}
	q.cur = filter(q.cur, q.curHead)
	q.h = filter(q.h, 0)
	q.h.init()
	q.size = len(q.cur) - q.curHead + len(q.h)
	q.dead = 0
}

// clear drops every queued event (environment shutdown).
func (q *queue) clear() {
	*q = queue{}
}

// eventHeap is a value-based 4-ary min-heap ordered by (t, seq). Four
// children per node halve the tree depth of a binary heap and keep sift
// loops within one or two cache lines of events.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// siftDown places ev at hole i or below, moving smaller children up.
func (h eventHeap) siftDown(i int, ev event) {
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for k := c + 1; k < end; k++ {
			if less(h[k], h[m]) {
				m = k
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// init re-establishes the heap property after bulk edits (compaction).
func (h eventHeap) init() {
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}
