package main

import (
	"fmt"
	"hash/crc32"

	"nvmetro/internal/guestmem"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// tally counts the program outputs the benchmark checked and how many of
// them were wrong: failed guest operations, data mismatches and failed
// post-run checks. The first failure is kept for the error report.
type tally struct {
	attempted uint64
	failed    uint64
	firstErr  string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// opLog records a workload's completed guest operations: a running count
// for the host-time metrics, and the exact virtual latency of every
// operation that completes inside the fixed virtual window (from, to].
type opLog struct {
	from, to sim.Time
	ops      uint64
	lat      []int64
}

func (l *opLog) record(done sim.Time, lat sim.Duration) {
	l.ops++
	if done > l.from && done <= l.to {
		l.lat = append(l.lat, int64(lat))
	}
}

// checkDisk wraps a vm.Disk. It forwards every call unchanged and, around
// each request, counts it, sums its virtual span and, when a block model
// is attached, checks the data a read returns. When log is set, every
// successful request is one guest operation of the workload.
type checkDisk struct {
	inner vm.Disk
	mem   *guestmem.Memory
	model *blockModel // nil: no data checks
	log   *opLog      // nil: requests are not the workload's operations
	chk   *tally
	// writes, when set, keeps samples of the plaintext the guest writes.
	writes *writeSampler

	subs     uint64       // requests submitted
	ios      uint64       // requests completed
	inflight int          // requests submitted and not yet completed
	ioVirt   sim.Duration // summed virtual span of completed requests
	scratch  []byte
}

func (d *checkDisk) BlockSize() uint32 { return d.inner.BlockSize() }
func (d *checkDisk) Blocks() uint64    { return d.inner.Blocks() }

// Submit forwards r. The caller's OnDone is swapped for a hook that does
// the bookkeeping, restores the caller's OnDone and then calls it, so the
// caller sees its request exactly as it would without the wrapper.
func (d *checkDisk) Submit(p *sim.Proc, vcpu *sim.Thread, r *vm.Req) {
	onDone := r.OnDone
	var tok modelTok
	if d.model != nil {
		tok = d.model.submit(d, r)
	}
	if d.writes != nil && r.Op == vm.OpWrite {
		d.writes.note(d.mem, r, d.BlockSize())
	}
	d.subs++
	d.inflight++
	r.OnDone = func(done *vm.Req) {
		d.inflight--
		d.ios++
		d.ioVirt += done.Latency()
		good := done.Status.OK()
		if !good {
			d.chk.fail("%v at lba %d: status %v", done.Op, done.LBA, done.Status)
		} else if d.model != nil {
			good = d.model.complete(d, done, tok)
		}
		if good && d.log != nil {
			d.chk.ok()
			d.log.record(done.Completed, done.Latency())
		}
		done.OnDone = onDone
		if onDone != nil {
			onDone(done)
		}
	}
	d.inner.Submit(p, vcpu, r)
}

// guestCRC returns the CRC of a request's guest buffer. The buffer came
// from the guest's own allocator, so a failed read is a bug.
func (d *checkDisk) guestCRC(r *vm.Req) uint32 {
	n := int(r.Bytes(d.BlockSize()))
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	buf := d.scratch[:n]
	if err := d.mem.ReadAt(buf, r.Buf); err != nil {
		panic(err)
	}
	return crc32.ChecksumIEEE(buf)
}

// blockModel is the expected content of a disk's working set, kept as
// the CRC of every model block (one request's worth of data). It starts
// from the pre-fill pattern and follows writes as they are acknowledged.
// Writes to one block that overlap in flight may land in either order,
// so all of them stay acceptable until the block is idle again. A
// pattern block's CRC is computed the first time it is needed, so
// checking costs nothing at set-up.
type blockModel struct {
	base   uint64 // first disk LBA of the modelled range
	per    uint32 // disk blocks per model block
	pat    *pattern
	stream int // the pattern stream the blocks were pre-filled from
	blocks []blockState
	buf    []byte // scratch for pattern blocks
}

type blockState struct {
	known    bool   // want is set; until then the block holds its pattern
	want     uint32 // CRC of the last acknowledged write or of the pattern
	first    uint32 // CRC of the first write of the current busy period
	inflight int32  // writes in flight
	gen      uint32 // bumped on every write submission
	race     *raceState
}

// raceState holds the extra acceptable CRCs of overlapping writes.
type raceState struct {
	alt  []uint32 // acceptable besides want once the block is idle
	more []uint32 // overlapping writes of the current busy period
}

// modelTok carries what a request's completion needs from its submission.
type modelTok struct {
	idx       int
	gen       uint32
	checkable bool   // a read that started with no write in flight
	crc       uint32 // a write's payload CRC
}

func newBlockModel(base uint64, per uint32, n int, pat *pattern, stream int) *blockModel {
	return &blockModel{base: base, per: per, pat: pat, stream: stream, blocks: make([]blockState, n)}
}

// index maps a request to its model block, or -1 if it is not exactly one
// model block inside the modelled range.
func (m *blockModel) index(r *vm.Req) int {
	if r.Blocks != m.per || r.LBA < m.base || (r.LBA-m.base)%uint64(m.per) != 0 {
		return -1
	}
	i := (r.LBA - m.base) / uint64(m.per)
	if i >= uint64(len(m.blocks)) {
		return -1
	}
	return int(i)
}

func (m *blockModel) submit(d *checkDisk, r *vm.Req) modelTok {
	i := m.index(r)
	if i < 0 {
		return modelTok{idx: -1}
	}
	st := &m.blocks[i]
	tok := modelTok{idx: i, gen: st.gen}
	switch r.Op {
	case vm.OpRead:
		tok.checkable = st.inflight == 0
	case vm.OpWrite:
		tok.crc = d.guestCRC(r)
		st.gen++
		if st.inflight == 0 {
			st.first = tok.crc
			if st.race != nil {
				st.race.more = st.race.more[:0]
			}
		} else {
			if st.race == nil {
				st.race = &raceState{}
			}
			st.race.more = append(st.race.more, tok.crc)
		}
		st.inflight++
	}
	return tok
}

// complete updates the model for a successful request and checks a read's
// data. It reports whether the request passed.
func (m *blockModel) complete(d *checkDisk, r *vm.Req, tok modelTok) bool {
	if tok.idx < 0 {
		d.chk.fail("%v at lba %d+%d is outside the modelled blocks", r.Op, r.LBA, r.Blocks)
		return false
	}
	st := &m.blocks[tok.idx]
	switch r.Op {
	case vm.OpWrite:
		st.inflight--
		if st.inflight == 0 {
			st.want, st.known = st.first, true
			if st.race != nil {
				st.race.alt = append(st.race.alt[:0], st.race.more...)
				st.race.more = st.race.more[:0]
			}
		}
	case vm.OpRead:
		if !tok.checkable || st.inflight != 0 || st.gen != tok.gen {
			return true // raced a write: any of several contents is valid
		}
		if !st.known {
			if m.buf == nil {
				m.buf = make([]byte, int(m.per)*lbaSize)
			}
			m.pat.fill(m.buf, m.stream, tok.idx)
			st.want, st.known = crc32.ChecksumIEEE(m.buf), true
		}
		if got := d.guestCRC(r); !st.accepts(got) {
			d.chk.fail("read at lba %d returned crc %08x, want %08x", r.LBA, got, st.want)
			return false
		}
	}
	return true
}

func (st *blockState) accepts(crc uint32) bool {
	if crc == st.want {
		return true
	}
	if st.race != nil {
		for _, c := range st.race.alt {
			if c == crc {
				return true
			}
		}
	}
	return false
}
