package nvme

import (
	"testing"

	"nvmetro/internal/sim"
)

// TestTagTable walks one tag through each life a completion can meet:
// on time, late while quarantined, late after the tag was reclaimed and
// reissued, and plain LIFO reuse. Deadline 100 µs, so quarantine lasts
// 200 µs.
func TestTagTable(t *testing.T) {
	const dl = 100 * sim.Microsecond
	type step struct {
		at   sim.Duration // advance the clock to this offset first
		do   string       // "acquire", "complete", "expire", "reclaim"
		occ  string       // acquire: occupant; complete/expire: expected occupant
		same string       // acquire: must reuse this earlier occupant's tag
		gen  int          // complete: index of the acquire whose generation to echo
		want TagMatch     // complete: expected match
		n    int          // reclaim: expected count; expire: 1 if one is due
	}
	cases := []struct {
		name  string
		steps []step
		free  int // free tags at the end (table of 4)
	}{
		{"on time", []step{
			{do: "acquire", occ: "a"},
			{at: 50 * sim.Microsecond, do: "expire", n: 0},
			{at: 60 * sim.Microsecond, do: "complete", gen: 0, occ: "a", want: TagLive},
			{at: 500 * sim.Microsecond, do: "expire", n: 0},
			{do: "reclaim", n: 0},
		}, 4},
		{"late while quarantined", []step{
			{do: "acquire", occ: "a"},
			{at: 100 * sim.Microsecond, do: "expire", occ: "a", n: 1},
			{do: "expire", n: 0},
			{at: 250 * sim.Microsecond, do: "reclaim", n: 0},
			{do: "complete", gen: 0, want: TagStale},
			{at: 400 * sim.Microsecond, do: "reclaim", n: 0},
		}, 4},
		{"late after reclaim and reissue", []step{
			{do: "acquire", occ: "a"},
			{at: 100 * sim.Microsecond, do: "expire", occ: "a", n: 1},
			{at: 299 * sim.Microsecond, do: "reclaim", n: 0},
			{at: 300 * sim.Microsecond, do: "reclaim", n: 1},
			{do: "acquire", occ: "b", same: "a"},
			{at: 310 * sim.Microsecond, do: "complete", gen: 0, want: TagStaleReclaimed},
			{at: 320 * sim.Microsecond, do: "complete", gen: 1, occ: "b", want: TagLive},
		}, 4},
		{"LIFO reuse", []step{
			{do: "acquire", occ: "a"},
			{do: "acquire", occ: "b"},
			{do: "complete", gen: 0, occ: "a", want: TagLive},
			{do: "acquire", occ: "c", same: "a"},
			{at: 100 * sim.Microsecond, do: "expire", occ: "b", n: 1},
			{do: "expire", occ: "c", n: 1},
			{do: "expire", n: 0},
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.New(1)
			tt := NewTagTable[string](env, 4, dl)
			type issued struct {
				cid uint16
				gen uint32
			}
			var acq []issued
			cids := map[string]uint16{}
			for i, s := range tc.steps {
				if s.at > 0 {
					env.RunUntil(sim.Time(s.at))
				}
				switch s.do {
				case "acquire":
					cid, gen, ok := tt.Acquire(s.occ)
					if !ok {
						t.Fatalf("step %d: acquire failed", i)
					}
					if s.same != "" && cid != cids[s.same] {
						t.Fatalf("step %d: got tag %d, want %s's tag %d back", i, cid, s.same, cids[s.same])
					}
					cids[s.occ] = cid
					acq = append(acq, issued{cid, gen})
				case "complete":
					a := acq[s.gen]
					occ, m := tt.Complete(a.cid, a.gen)
					if m != s.want || occ != s.occ {
						t.Fatalf("step %d: complete = (%q, %d), want (%q, %d)", i, occ, m, s.occ, s.want)
					}
				case "expire":
					occ, ok := tt.Expire()
					if ok != (s.n == 1) || occ != s.occ {
						t.Fatalf("step %d: expire = (%q, %v), want (%q, %v)", i, occ, ok, s.occ, s.n == 1)
					}
				case "reclaim":
					if n := tt.Reclaim(); n != s.n {
						t.Fatalf("step %d: reclaim = %d, want %d", i, n, s.n)
					}
				}
			}
			if tt.Free() != tc.free {
				t.Fatalf("free = %d, want %d", tt.Free(), tc.free)
			}
		})
	}
}

// TestTagTableNextDue checks the timer a driver arms: the oldest live
// deadline, then the quarantine's end, and nothing once both are settled.
func TestTagTableNextDue(t *testing.T) {
	env := sim.New(1)
	tt := NewTagTable[int](env, 2, 100)
	if _, ok := tt.NextDue(); ok {
		t.Fatal("empty table reports a due time")
	}
	c0, g0, _ := tt.Acquire(0)
	env.RunUntil(10)
	c1, g1, _ := tt.Acquire(1)
	if at, _ := tt.NextDue(); at != 100 {
		t.Fatalf("next due %v, want 100", at)
	}
	tt.Complete(c0, g0) // the head completes: the next deadline is c1's
	if at, _ := tt.NextDue(); at != 110 {
		t.Fatalf("next due %v, want 110", at)
	}
	env.RunUntil(110)
	if _, ok := tt.Expire(); !ok {
		t.Fatal("c1 not expired at its deadline")
	}
	if at, _ := tt.NextDue(); at != 310 {
		t.Fatalf("quarantine ends at %v, want 310", at)
	}
	if _, m := tt.Complete(c1, g1); m != TagStale {
		t.Fatalf("late completion matched %d, want TagStale", m)
	}
	if _, ok := tt.NextDue(); ok {
		t.Fatal("settled table still reports a due time")
	}
}

// TestTagTableNoDeadline: with deadlines disabled (the MDev and SPDK use)
// the table is a LIFO free list with occupants and needs no clock.
func TestTagTableNoDeadline(t *testing.T) {
	tt := NewTagTable[int](nil, 3, 0)
	cid, _, _ := tt.Acquire(7)
	if cid != 2 {
		t.Fatalf("first tag %d, want the highest", cid)
	}
	if _, ok := tt.Expire(); ok {
		t.Fatal("expired with deadlines disabled")
	}
	if occ, ok := tt.Release(cid); !ok || occ != 7 {
		t.Fatalf("release = (%d, %v)", occ, ok)
	}
	if _, ok := tt.Release(cid); ok {
		t.Fatal("released a free tag twice")
	}
	if _, _, ok := tt.Acquire(0); !ok {
		t.Fatal("acquire after release failed")
	}
}

// TestTagTableAllocFree: the fast path acquires and completes one tag per
// command, so a steady cycle must not allocate.
func TestTagTableAllocFree(t *testing.T) {
	env := sim.New(1)
	tt := NewTagTable[int](env, 64, sim.Millisecond)
	for i := 0; i < 100; i++ { // warm the FIFO's backing array
		c, g, _ := tt.Acquire(i)
		tt.Complete(c, g)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c, g, _ := tt.Acquire(1)
		tt.Expire()
		tt.Reclaim()
		tt.Complete(c, g)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per acquire/complete cycle", allocs)
	}
}
