package main

import (
	"time"

	"nvmetro/internal/device"
)

// storeStats is shared by every timedStore of one workload instance.
type storeStats struct {
	calls  uint64
	bytes  uint64
	hostNs int64
}

// timedStore wraps a device.Store. Store calls are synchronous host calls,
// so the host time and bytes of each one are measured exactly. Every call
// is forwarded unchanged.
type timedStore struct {
	inner device.Store
	st    *storeStats
}

func (s *timedStore) ReadBlocks(lba uint64, buf []byte) {
	t := time.Now()
	s.inner.ReadBlocks(lba, buf)
	s.done(t, len(buf))
}

func (s *timedStore) WriteBlocks(lba uint64, buf []byte) {
	t := time.Now()
	s.inner.WriteBlocks(lba, buf)
	s.done(t, len(buf))
}

func (s *timedStore) TrimBlocks(lba uint64, blocks uint32) {
	t := time.Now()
	s.inner.TrimBlocks(lba, blocks)
	s.done(t, 0)
}

func (s *timedStore) done(start time.Time, n int) {
	s.st.hostNs += int64(time.Since(start))
	s.st.calls++
	s.st.bytes += uint64(n)
}
