package core

import (
	"reflect"
	"testing"

	"hrtsched/internal/machine"
	"hrtsched/internal/sim"
)

// bootState is the kernel and machine state a boot leaves behind before
// anything runs: every stream, counter and queue a later run starts from.
type bootState struct {
	Now         sim.Time
	Steps       uint64
	Pending     int
	KernelRng   sim.Rand
	ThreadRands []sim.Rand
	SoftOffset  []int64
	Residual    []int64
	NextID      int
	Threads     int
	StackPool   int
	Pool        PoolStats
	Locals      []localBootState
}

type localBootState struct {
	Rng        sim.Rand
	Gen        uint64
	RRCounter  uint64
	Util       float64
	Queues     [3]int
	Stats      SchedStats
	Ledger     Ledger
	Priority   uint8
	PendingIRQ int
	TSCOffset  int64
}

func captureBoot(k *Kernel) bootState {
	st := bootState{
		Now:         k.Eng.Now(),
		Steps:       k.Eng.Steps(),
		Pending:     k.Eng.Pending(),
		KernelRng:   k.rng,
		ThreadRands: append([]sim.Rand(nil), k.threadRands...),
		SoftOffset:  append([]int64(nil), k.Calib.SoftOffset...),
		Residual:    append([]int64(nil), k.Calib.Residual...),
		NextID:      k.nextID,
		Threads:     len(k.threads),
		StackPool:   len(k.stackPool),
		Pool:        k.poolStats,
	}
	for i, s := range k.Locals {
		np, nrt, nap := s.Queues()
		cpu := k.M.CPU(i)
		st.Locals = append(st.Locals, localBootState{
			Rng: s.rng, Gen: s.gen, RRCounter: s.rrCounter, Util: s.periodicUtil,
			Queues: [3]int{np, nrt, nap}, Stats: s.Stats, Ledger: s.Ledger(),
			Priority: cpu.Priority(), PendingIRQ: cpu.PendingCount(), TSCOffset: cpu.TSCOffset(),
		})
	}
	return st
}

// runState is what a workload run leaves observable.
type runState struct {
	Boot    bootState
	Threads []threadRunState
	Degrade DegradeStats
}

type threadRunState struct {
	State                                        ThreadState
	CPU                                          int
	Arrivals, Misses, Supply, Switches, Preempts int64
	StackAddr                                    uint64
}

// rebootWorkload exercises what a boot must forget: per-thread random
// streams (the bursty workers draw their compute from tc.Rand), exiting
// threads (the stack pool), stealable round-robin threads, a periodic
// thread that misses under the 2 ms spin, and an SMI storm.
func rebootWorkload(k *Kernel) {
	n := k.NumCPUs()
	for i := range 2 * n {
		k.SpawnStealable("burst", i%n, Loop(func(iter int, tc *ThreadCtx) Action {
			if iter >= 12 {
				return nil
			}
			return Compute{Cycles: 2_000 + tc.Rand.Int63n(40_000)}
		}))
	}
	k.Spawn("rt", 0, mkPeriodic(PeriodicConstraints(0, 200_000, 120_000)))
	k.Spawn("hog", n-1, spin(2_600_000))
	k.M.SMI.Enable()
	k.RunNs(20_000_000)
}

func captureRun(k *Kernel) runState {
	st := runState{Boot: captureBoot(k), Degrade: k.degradeStats}
	for _, t := range k.threads {
		st.Threads = append(st.Threads, threadRunState{t.state, t.cpu, t.Arrivals, t.Misses,
			t.SupplyCycles, t.Switches, t.Preemptions, t.stackAddr})
	}
	return st
}

// TestRebootMatchesBoot: resetting a used machine and rebooting its kernel
// in place — onto another preset, CPU count and configuration — leaves
// exactly the state machine.New and Boot build, and then simulates the
// same run.
func TestRebootMatchesBoot(t *testing.T) {
	spec := machine.PhiKNL().Scaled(3)
	m := machine.New(spec, 11)
	cfg := DefaultConfig(spec)
	cfg.Degrade = DegradeConfig{Policy: DegradeDemote}
	cfg.WatchdogNs = 1_000_000
	k := Boot(m, cfg)
	rebootWorkload(k)

	for i, spec := range []machine.Spec{
		machine.R415().Scaled(2),
		machine.PhiKNL().Scaled(3),
		machine.R415().Scaled(4),
		machine.PhiKNL().Scaled(1),
	} {
		seed := uint64(100 + i)
		cfg := DefaultConfig(spec)
		if i%2 == 0 {
			cfg.Degrade = DegradeConfig{Policy: DegradeEvict}
			cfg.WatchdogNs = 2_000_000
		}
		m.Reset(spec, seed)
		k.Reboot(m, cfg)
		fresh := Boot(machine.New(spec, seed), cfg)

		if got, want := captureBoot(k), captureBoot(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%d CPUs: rebooted kernel differs from a fresh boot:\n got %+v\nwant %+v",
				spec.Name, spec.NumCPUs, got, want)
		}
		rebootWorkload(k)
		rebootWorkload(fresh)
		got, want := captureRun(k), captureRun(fresh)
		if want.Boot.Pool.Reaped == 0 || want.Boot.Locals[0].Stats.Invocations == 0 {
			t.Fatalf("%s: workload exercised too little: pool %+v", spec.Name, want.Boot.Pool)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%d CPUs: run on the rebooted kernel differs:\n got %+v\nwant %+v",
				spec.Name, spec.NumCPUs, got, want)
		}
	}
}

// TestRebootOntoNewMachine: a kernel rebooted onto a different machine
// (another engine) builds schedulers bound to that machine's engine.
func TestRebootOntoNewMachine(t *testing.T) {
	spec := machine.PhiKNL().Scaled(2)
	k := Boot(machine.New(spec, 1), DefaultConfig(spec))
	rebootWorkload(k)
	m := machine.New(spec, 2)
	k.Reboot(m, DefaultConfig(spec))
	fresh := Boot(machine.New(spec, 2), DefaultConfig(spec))
	rebootWorkload(k)
	rebootWorkload(fresh)
	if got, want := captureRun(k), captureRun(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after reboot onto a new machine differs:\n got %+v\nwant %+v", got, want)
	}
}
