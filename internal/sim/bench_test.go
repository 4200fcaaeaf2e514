package sim

import (
	"fmt"
	"testing"
)

// The benchmark suite measures the scheduler hot paths that dominate harness
// wall clock: timer push/pop (Sleep, After), process switching (park/resume
// rendezvous), same-instant callback batches, and mixed multi-process
// workloads shaped like the router/device loops. Run with -benchmem: the
// steady-state paths must report 0 allocs/op.

// BenchmarkSleepWake is the single-process timer path: every event resumes
// the process that is already running the dispatch loop (fused self-resume;
// no goroutine switch at all in the new core).
func BenchmarkSleepWake(b *testing.B) {
	env := New(1)
	env.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkAfterCallback is the pure callback path: same-instant-adjacent fn
// events dispatched in a tight loop without touching the run token.
func BenchmarkAfterCallback(b *testing.B) {
	env := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.After(Microsecond, tick)
		}
	}
	env.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	if n != b.N {
		b.Fatalf("ran %d callbacks, want %d", n, b.N)
	}
}

// BenchmarkCondPingPong is the two-process switch path: every event hands
// the run token to the other goroutine (one channel rendezvous per switch in
// the new core, two in the old one).
func BenchmarkCondPingPong(b *testing.B) {
	env := New(1)
	c1, c2 := NewCond(env), NewCond(env)
	env.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c1.Wait()
			c2.Signal(nil)
		}
	})
	env.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c1.Signal(nil)
			c2.Wait()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkManyProcsStaggered is the harness-shaped workload: many processes
// with staggered timers, so the queue holds a steady population and almost
// every dispatch switches processes.
func BenchmarkManyProcsStaggered(b *testing.B) {
	for _, procs := range []int{16, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			env := New(1)
			per := b.N / procs
			for i := 0; i < procs; i++ {
				i := i
				env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
					p.Sleep(Duration(i) * 37 * Nanosecond)
					for k := 0; k < per; k++ {
						p.Sleep(Duration(1+(i+k)%7) * Microsecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			env.Run()
		})
	}
}

// BenchmarkSameInstantStorm schedules bursts of callbacks at one instant —
// the multicast completion / broadcast wake shape.
func BenchmarkSameInstantStorm(b *testing.B) {
	const burst = 64
	env := New(1)
	n := 0
	var arm func()
	arm = func() {
		for i := 0; i < burst; i++ {
			env.After(Microsecond, func() { n++ })
		}
		if n+burst < b.N {
			env.After(Microsecond, arm)
		}
	}
	env.After(Microsecond, arm)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkFarTimers is the single-process timer path with a device-scale
// delay: every Sleep pushes one event 120 us ahead into the heap and
// promotes it into the same-instant batch when it comes due.
func BenchmarkFarTimers(b *testing.B) {
	env := New(1)
	env.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(120 * Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkResourceHandoff measures the contended FIFO resource path
// (simulated core scheduling): acquire, hold, release, direct handoff.
func BenchmarkResourceHandoff(b *testing.B) {
	env := New(1)
	r := NewResource(env, 1)
	const workers = 4
	per := b.N / workers
	for w := 0; w < workers; w++ {
		env.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Acquire()
				p.Sleep(100 * Nanosecond)
				r.Release()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkWaitTimeoutSignaled measures the timeout-armed wait where the
// signal always wins — the adaptive-poller shape. The timeout event is
// lazily cancelled and must not accumulate in the queue.
func BenchmarkWaitTimeoutSignaled(b *testing.B) {
	env := New(1)
	c := NewCond(env)
	env.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.WaitTimeout(100 * Microsecond)
		}
	})
	env.Go("signaler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
			c.Signal(nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
