package nvme

import "nvmetro/internal/sim"

// GenDW is the reserved command dword a host driver stamps with the
// submission generation; the device echoes it in the completion's DW0.
const GenDW = 3

// TagMatch is what a completion's (CID, generation) pair matched.
type TagMatch uint8

const (
	TagLive           TagMatch = iota // the tag's current occupant: deliver it
	TagStale                          // a timed-out attempt still in quarantine: the tag is free again
	TagStaleReclaimed                 // no such attempt (its tag was reclaimed, maybe reissued): drop it
)

// TagTable is a host driver's command-tag bookkeeping for one queue pair:
// LIFO free CIDs, each tag's occupant and submission generation, armed
// deadlines and the quarantine of timed-out tags. Deadlines are uniform
// per table, so a FIFO holds them in due order. A timed-out tag is not
// reused until its late completion arrives or twice the deadline passes;
// the generation check makes reclaim safe whenever it happens, and the
// window keeps most late completions in the TagStale class. It runs under
// the simulation's single run token and allocates nothing in steady state.
type TagTable[T any] struct {
	env      *sim.Env
	deadline sim.Duration // 0 disables deadlines and quarantine
	slots    []tagSlot[T]
	free     []uint16
	seq      uint32 // last generation handed out
	due      timerFIFO
	lost     timerFIFO
}

type tagState uint8

const (
	tagFree tagState = iota
	tagLive
	tagLost
)

type tagSlot[T any] struct {
	occ   T
	gen   uint32
	state tagState
}

// tagTimer is one armed deadline or quarantine window.
type tagTimer struct {
	at  sim.Time
	gen uint32
	cid uint16
}

// NewTagTable returns a table of n tags, handed out highest CID first,
// whose occupants time out deadline after Acquire (0 disables deadlines;
// env may then be nil).
func NewTagTable[T any](env *sim.Env, n int, deadline sim.Duration) *TagTable[T] {
	t := &TagTable[T]{env: env, deadline: deadline, slots: make([]tagSlot[T], n), free: make([]uint16, n)}
	for i := range t.free {
		t.free[i] = uint16(i)
	}
	return t
}

// Free returns the number of tags available to Acquire.
func (t *TagTable[T]) Free() int { return len(t.free) }

// Acquire hands the most recently freed tag to occ under a fresh
// generation and arms its deadline; ok is false when no tag is free.
func (t *TagTable[T]) Acquire(occ T) (cid uint16, gen uint32, ok bool) {
	n := len(t.free)
	if n == 0 {
		return 0, 0, false
	}
	cid = t.free[n-1]
	t.free = t.free[:n-1]
	t.seq++
	t.slots[cid] = tagSlot[T]{occ: occ, gen: t.seq, state: tagLive}
	if t.deadline > 0 {
		t.due.push(tagTimer{at: t.env.Now().Add(t.deadline), gen: t.seq, cid: cid})
	}
	return cid, t.seq, true
}

// Release frees cid if it is in flight and returns its occupant, with no
// generation check: for drivers that match completions by CID alone, and
// to undo an Acquire whose command never reached the device.
func (t *TagTable[T]) Release(cid uint16) (occ T, ok bool) {
	if int(cid) >= len(t.slots) || t.slots[cid].state != tagLive {
		return occ, false
	}
	occ = t.slots[cid].occ
	t.put(cid)
	return occ, true
}

// Complete matches a completion by CID and echoed generation, freeing the
// tag on a live or quarantined match.
func (t *TagTable[T]) Complete(cid uint16, gen uint32) (occ T, m TagMatch) {
	if int(cid) >= len(t.slots) || t.slots[cid].gen != gen || t.slots[cid].state == tagFree {
		return occ, TagStaleReclaimed
	}
	occ, m = t.slots[cid].occ, TagLive
	if t.slots[cid].state == tagLost {
		m = TagStale
	}
	t.put(cid)
	return occ, m
}

// Due reports whether Expire or Reclaim has work now. It is cheap and
// inlined, so a poll loop can check it every round.
func (t *TagTable[T]) Due() bool { return t.due.ready(t.env) || t.lost.ready(t.env) }

// Expire quarantines the oldest in-flight tag whose deadline has passed
// and returns its occupant; callers loop until ok is false.
func (t *TagTable[T]) Expire() (occ T, ok bool) {
	for t.due.ready(t.env) {
		if e := t.due.pop(); t.holds(e, tagLive) {
			occ = t.slots[e.cid].occ
			t.slots[e.cid] = tagSlot[T]{gen: e.gen, state: tagLost}
			t.lost.push(tagTimer{at: t.env.Now().Add(2 * t.deadline), gen: e.gen, cid: e.cid})
			return occ, true
		}
	}
	return occ, false
}

// Reclaim frees every quarantined tag whose window has passed without a
// completion and returns how many it freed.
func (t *TagTable[T]) Reclaim() (n int) {
	for t.lost.ready(t.env) {
		if e := t.lost.pop(); t.holds(e, tagLost) {
			t.put(e.cid)
			n++
		}
	}
	return n
}

// NextDue returns the earliest time Expire or Reclaim has work, or false
// when nothing is armed.
func (t *TagTable[T]) NextDue() (sim.Time, bool) {
	t.trim(&t.due, tagLive)
	t.trim(&t.lost, tagLost)
	d, dok := t.due.peek()
	l, lok := t.lost.peek()
	if !dok || lok && l.at < d.at {
		return l.at, lok
	}
	return d.at, true
}

// put returns cid to the free list; the deadline it leaves behind is
// dropped once it reaches the head of the FIFO.
func (t *TagTable[T]) put(cid uint16) {
	t.slots[cid] = tagSlot[T]{gen: t.slots[cid].gen}
	t.free = append(t.free, cid)
	t.trim(&t.due, tagLive)
}

// holds reports whether timer e still belongs to its tag's current life.
func (t *TagTable[T]) holds(e tagTimer, state tagState) bool {
	s := &t.slots[e.cid]
	return s.state == state && s.gen == e.gen
}

// trim drops timers at the head of f whose tag has moved on, keeping f as
// short as the set of tags it guards.
func (t *TagTable[T]) trim(f *timerFIFO, state tagState) {
	for e, ok := f.peek(); ok && !t.holds(e, state); e, ok = f.peek() {
		f.pop()
	}
}

// timerFIFO is a queue of timers in due order. When its backing array is
// full and the head has advanced, push slides the live entries down
// instead of growing.
type timerFIFO struct {
	q    []tagTimer
	head int
}

func (f *timerFIFO) push(e tagTimer) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		f.q = f.q[:copy(f.q, f.q[f.head:])]
		f.head = 0
	}
	f.q = append(f.q, e)
}

func (f *timerFIFO) peek() (tagTimer, bool) {
	if f.head == len(f.q) {
		return tagTimer{}, false
	}
	return f.q[f.head], true
}

// ready reports whether the head timer is due (env is read only when f
// holds a timer, so a table without deadlines needs no clock).
func (f *timerFIFO) ready(env *sim.Env) bool {
	return f.head < len(f.q) && f.q[f.head].at <= env.Now()
}

func (f *timerFIFO) pop() tagTimer {
	e := f.q[f.head]
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return e
}
