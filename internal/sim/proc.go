package sim

import (
	"fmt"
	"iter"
)

// killed is the panic value used to unwind force-terminated processes.
type killed struct{}

// Proc is a cooperative simulated process. Its body runs as a runtime
// coroutine (iter.Pull) that the kernel loop resumes when the process's
// wakeup pops, and that yields back to the loop whenever the process
// blocks; only one process or event callback ever executes at a time, so
// process code needs no locking against other simulated activity.
type Proc struct {
	k     *Kernel
	name  string
	next  func() (struct{}, bool) // resume the body until it parks or returns
	stop  func()                  // unwind a parked (or never started) body
	yield func(struct{}) bool     // the body's side of next; false means killed
	done  bool
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process executing body. The process starts (in FIFO order
// with other events) at the current simulation time.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	k.procs = append(k.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					panic(r) // real bug: next re-raises it on Run's goroutine
				}
			}
		}()
		p.yield = yield
		body(p)
		p.done = true
	})
	k.atProc(k.now, p)
	return p
}

// park suspends the process until the loop pops its next wakeup. A false
// yield means kill stopped the coroutine: the body unwinds and never
// resumes.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// notRunning panics for a blocking call on p made while p is not the
// process the kernel is running: parking from event context (or outside
// Run), or on another process's Proc, would yield from a stack that is not
// p's. Callers test p.k.cur != p inline, so the check costs one comparison.
func (p *Proc) notRunning(op string) {
	if cur := p.k.cur; cur != nil {
		panic(fmt.Sprintf("sim: %s on %v called from %v", op, p, cur))
	}
	panic(fmt.Sprintf("sim: %s on %v called outside any process", op, p))
}

// kill force-terminates a process: it is marked done, so a still-queued
// wakeup is skipped, and its coroutine unwinds before kill returns. Must
// be called from kernel context (an event callback, or after Run
// returned).
func (p *Proc) kill() {
	if p.done {
		return
	}
	p.done = true
	p.stop()
}

// Wait suspends the process for d microseconds of simulated time.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic("sim: negative wait")
	}
	if d == 0 {
		return
	}
	if p.k.cur != p {
		p.notRunning("Wait")
	}
	p.k.atProc(p.k.now+d, p)
	p.park()
}

// WaitUntil suspends the process until absolute time t (no-op if t <= now).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	if p.k.cur != p {
		p.notRunning("WaitUntil")
	}
	p.k.atProc(t, p)
	p.park()
}

// Yield reschedules the process at the current time behind already-queued
// events. Useful to let pending deliveries run.
func (p *Proc) Yield() {
	if p.k.cur != p {
		p.notRunning("Yield")
	}
	p.k.atProc(p.k.now, p)
	p.park()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
