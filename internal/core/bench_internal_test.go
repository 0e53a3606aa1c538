package core

import (
	"testing"

	"hrtsched/internal/machine"
)

// BenchmarkSchedulerSteadyState measures simulated-time progress rate for
// one periodic thread: how much host time one simulated scheduling period
// costs (two invocations, one dispatch cycle).
func BenchmarkSchedulerSteadyState(b *testing.B) {
	spec := machine.PhiKNL().Scaled(1)
	m := machine.New(spec, 1)
	k := Boot(m, DefaultConfig(spec))
	k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 100_000, 50_000)))
	k.RunNs(1_000_000) // settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunNs(100_000) // one period of simulated time
	}
}

// BenchmarkEightCPUNode measures a busier node: 8 CPUs, one RT thread and
// one background thread each.
func BenchmarkEightCPUNode(b *testing.B) {
	spec := machine.PhiKNL().Scaled(8)
	m := machine.New(spec, 2)
	k := Boot(m, DefaultConfig(spec))
	for i := 0; i < 8; i++ {
		k.Spawn("rt", i, mkPeriodic(PeriodicConstraints(0, 100_000, 40_000)))
		k.Spawn("bg", i, spin(30_000))
	}
	k.RunNs(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunNs(100_000)
	}
}

// BenchmarkThreadHeap measures the fixed-capacity priority queue.
func BenchmarkThreadHeap(b *testing.B) {
	h := newThreadHeap(1024, byDeadline)
	ths := make([]*Thread, 256)
	for i := range ths {
		ths[i] = mkThread(i, 0, int64(i*37%1009), 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ths[i%256]
		t.deadlineNs = int64(i % 4096)
		_ = h.Push(t)
		if h.Len() >= 200 {
			for h.Len() > 0 {
				h.Pop()
			}
		}
	}
}

// whatifBootConfig is the configuration internal/whatif boots its
// replications with: no admission control, a 10 ms timer watchdog.
func whatifBootConfig(spec machine.Spec) Config {
	cfg := DefaultConfig(spec)
	cfg.Admit = AdmitNone
	cfg.WatchdogNs = 10_000_000
	return cfg
}

// BenchmarkBoot measures building a what-if replication's node from
// nothing: machine.New plus Boot of a 2-CPU Phi, calibration included.
func BenchmarkBoot(b *testing.B) {
	spec := machine.PhiKNL().Scaled(2)
	cfg := whatifBootConfig(spec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Boot(machine.New(spec, uint64(i)+1), cfg)
	}
}

// BenchmarkReboot measures the same boot done in place, as every
// replication after a request's first does it: machine.Reset plus
// Kernel.Reboot of the node the previous iteration booted.
func BenchmarkReboot(b *testing.B) {
	spec := machine.PhiKNL().Scaled(2)
	cfg := whatifBootConfig(spec)
	m := machine.New(spec, 1)
	k := Boot(m, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(spec, uint64(i)+1)
		k.Reboot(m, cfg)
	}
}

// BenchmarkSpawnExitWithPool measures the thread pool's reanimation path.
func BenchmarkSpawnExitWithPool(b *testing.B) {
	spec := machine.PhiKNL().Scaled(1)
	m := machine.New(spec, 3)
	k := Boot(m, DefaultConfig(spec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := k.Spawn("churn", 0, Seq(Compute{Cycles: 1000}))
		k.RunUntil(func() bool { return th.State() == Exited }, 1<<20)
	}
}
