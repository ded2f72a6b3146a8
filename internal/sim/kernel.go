package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
)

// fpGolden is the multiplier of the fingerprint hash chain (see fold).
const fpGolden = 0x9e3779b97f4a7c15

// Time is simulated time in microseconds.
type Time = float64

// event is one scheduled occurrence: a process wakeup (proc != nil) or a
// callback whose payload lives in the kernel's slot table (slot). Process
// wakeups — the most frequent event by far — carry their payload inline;
// callbacks pay one indirection. Keeping the queue entry at 32 bytes
// (vs. 56 with the callback variants unboxed inline) nearly halves the
// memory traffic of the sift operations, which dominate pop.
type event struct {
	t    Time
	seq  uint64
	proc *Proc
	slot int32
}

// payload holds a callback event's fields: a typed callback applied to arg,
// or a func() closure as the fallback. Slots are recycled through a free
// stack, so scheduling stays allocation-free in steady state.
type payload struct {
	hfn func(interface{})
	arg interface{}
	fn  func()
}

// before is the queue's strict ordering: time, then schedule order.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// Stats are cumulative counters of kernel activity. Events counts every
// executed event — regular pops and lazy-tier executions (including
// skipped wakeups of killed processes). The delivery counters are
// maintained by the network layer: FusedDeliveries counts message hops
// delivered through the fused single-event pipeline (the arrive stage ran
// on the lazy tier), FusedBusyRecv the subset of those that found the
// receiver's CPU busy at arrival (the receive startup then queues behind
// it — still one regular event, but the case a send-time fusion would
// have had to fall back on), and TwoStageDeliveries counts hops through
// the classic arrive → ready event pair when two-stage delivery is
// forced. FusedDeliveries / (FusedDeliveries + TwoStageDeliveries) is the
// fused hit rate PERF.md tracks.
type Stats struct {
	Events             uint64
	FusedDeliveries    uint64
	FusedBusyRecv      uint64
	TwoStageDeliveries uint64
}

// Kernel is the simulation engine. The zero value is not usable; construct
// with New.
type Kernel struct {
	now Time
	seq uint64
	lq  ladderQueue // default event queue (ladder.go)
	hq  heapQueue   // oracle event queue, selected by SetHeapQueue
	// lazyq is the lazy event tier (AtLazyCall): callbacks executed
	// inline at the loop's pop boundary, in their exact (t, seq) queue
	// position, without costing a regular event pop. The network's fused
	// delivery runs every arrive stage here, making a message hop one
	// regular kernel event instead of two.
	lazyq ladderQueue
	// tq is the timer tier (TimerAt/CancelTimer, timer.go): cancelable
	// timeout events in an indexed heap, executed inline like the lazy
	// tier but removable without tombstones.
	tq timerQueue
	// useHeap routes scheduling through the retained 4-ary heap instead
	// of the ladder queue: the differential-test oracle, and a whole-run
	// A/B switch (default from the diva_heapq build tag).
	useHeap bool
	procs   []*Proc

	// Stat is written by the kernel and — for the delivery counters — by
	// the network layer; read it after Run for hit-rate reporting.
	Stat Stats
	// cur is the process whose coroutine is running, nil in event
	// context; blocking calls check it (Proc.notRunning).
	cur     *Proc
	stopped bool
	noPin   bool
	fp      uint64 // running hash of the executed event order

	// Cooperative cancellation (cancel.go): when cancel is non-nil the
	// loop polls it every cancelCheckEvery executed events (cancelCtr is
	// only ever touched by the loop, so it needs no synchronization);
	// canceled marks a run stopped by the flag rather than by Stop.
	cancel    *atomic.Bool
	cancelCtr uint32
	canceled  bool

	pay     []payload // callback payload slots referenced by event.slot
	payFree []int32   // recycled payload slots

	// nowq is a FIFO bypass for events scheduled at the current time —
	// future completions, yields, spawn kick-offs. Such an event is always
	// younger (higher seq) than every queued event of the same timestamp,
	// so FIFO order is (t, seq) order and the heap's O(log n) sift is
	// avoided entirely for the same-timestamp churn of the protocol layer.
	nowq     []event
	nowqHead int
}

// New returns an empty kernel at time 0.
func New() *Kernel {
	k := &Kernel{useHeap: defaultHeapQueue}
	k.lq.init()
	k.lazyq.init()
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of scheduled events that have not executed
// yet, including lazy-tier events. Event callbacks can use it as a
// quiescence check: Pending() == 0 means nothing else is in flight
// besides the running callback.
func (k *Kernel) Pending() int {
	return k.lq.len() + k.hq.len() + k.lazyq.len() + k.tq.len() + len(k.nowq) - k.nowqHead
}

// SetHeapQueue selects the event queue implementation: the retained 4-ary
// heap oracle (true) or the default ladder queue (false). Both pop in the
// exact same (t, seq) order, so whole-run results are identical; the
// switch exists for A/B tests and the diva_heapq build tag flips the
// default. It must be called before any event is scheduled.
func (k *Kernel) SetHeapQueue(useHeap bool) {
	if k.Pending() > 0 {
		panic("sim: SetHeapQueue with events already scheduled")
	}
	k.useHeap = useHeap
}

// SetPinned controls whether Run pins GOMAXPROCS to 1 (the default); see
// Run for why. Disable the pin when several independent kernels run
// concurrently — e.g. parallel experiment sweeps — where the process-wide
// GOMAXPROCS setting would serialize all of them.
func (k *Kernel) SetPinned(pinned bool) { k.noPin = !pinned }

// Fingerprint returns a hash chain over the executed event order: every
// popped event folds its (time, sequence) pair into the running value.
// Two runs with the same fingerprint executed the exact same events in the
// exact same order — the determinism regression tests rely on this.
func (k *Kernel) Fingerprint() uint64 { return k.fp }

// fold records an executed event's (time, sequence) pair in the
// fingerprint hash chain. Every executed event — regular pop, FIFO
// bypass, or lazy tier — folds through this one function, so the
// bit-identical-order guarantees pinned by the A/B tests cannot drift
// between execution sites.
func (k *Kernel) fold(e *event) {
	k.fp = k.fp*fpGolden + (math.Float64bits(e.t) ^ e.seq)
}

// allocSeq returns the next sequence number for an event scheduled by
// this kernel.
func (k *Kernel) allocSeq() uint64 {
	k.seq++
	return k.seq
}

// SkipSeq consumes one sequence number without scheduling an event. The
// network's reactive mode calls it when a routed message is dropped at a
// failure point: the kernel burns the sequence its arrival event would
// have carried, so every subsequent event keeps the number it had in the
// recorded golden runs. Dropped events are never executed, so the skipped
// sequence never reaches the fingerprint.
func (k *Kernel) SkipSeq() { k.allocSeq() }

// takeSlot fetches and recycles a callback event's payload. The slot is
// recycled without clearing: it is fully overwritten on reuse, and until
// then it retains only a bounded number of already-executed callback
// references.
func (k *Kernel) takeSlot(slot int32) payload {
	pl := k.pay[slot]
	k.payFree = append(k.payFree, slot)
	return pl
}

// checkPast panics when t lies before now: it would make time run backwards.
func (k *Kernel) checkPast(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
}

// sched enqueues e: same-timestamp events take the FIFO bypass, future
// events the selected queue (ladder by default, heap in oracle mode).
// Both orders compose to the global (t, seq) order — see the nowq field
// comment.
func (k *Kernel) sched(e event) {
	if e.t == k.now {
		k.nowq = append(k.nowq, e)
		return
	}
	if k.useHeap {
		k.hq.push(e)
		return
	}
	k.lq.push(e)
}

// next selects and removes the globally next event by strict (t, seq)
// order across all tiers — the main queue, the same-timestamp FIFO
// bypass, and the lazy tier. Due lazy events are executed inline here
// (with the clock advanced to their timestamps, exactly as if popped);
// the returned event is always a regular one. ok is false when the
// pending events were all lazy (everything ran inline) or a lazy
// callback stopped the kernel — the caller re-evaluates.
func (k *Kernel) next() (event, bool) {
	for {
		var reg *event
		if k.useHeap {
			if k.hq.len() > 0 {
				reg = &k.hq.h[0]
			}
		} else {
			reg = k.lq.peek()
		}
		fromNowq := false
		if k.nowqHead < len(k.nowq) {
			// A bypass entry is younger than every queued event of its
			// timestamp, so the (t, seq) comparison reproduces the
			// "queue first at equal time" rule exactly.
			if h := &k.nowq[k.nowqHead]; reg == nil || h.before(reg) {
				reg = h
				fromNowq = true
			}
		}
		// The inline tiers — lazy events and timers — execute at the pop
		// boundary in their exact (t, seq) positions. Pick the earlier of
		// the two tier heads, then compare against the regular candidate.
		le := k.lazyq.peek()
		te := k.tq.peek()
		if le != nil || te != nil {
			useTimer := le == nil || (te != nil && (te.t < le.t || (te.t == le.t && te.seq < le.seq)))
			var ct Time
			var cs uint64
			if useTimer {
				ct, cs = te.t, te.seq
			} else {
				ct, cs = le.t, le.seq
			}
			if reg == nil || ct < reg.t || (ct == reg.t && cs < reg.seq) {
				if useTimer {
					t := k.tq.popFront()
					k.now = t.t
					k.Stat.Events++
					e := event{t: t.t, seq: t.seq}
					k.fold(&e)
					t.fn(t.arg)
				} else {
					e := k.lazyq.popFront()
					k.now = e.t
					k.Stat.Events++
					k.fold(&e)
					pl := k.takeSlot(e.slot)
					pl.hfn(pl.arg)
				}
				if k.stopped {
					return event{}, false
				}
				continue // the callback may have refilled any tier
			}
		}
		if reg == nil {
			return event{}, false
		}
		if fromNowq {
			e := *reg
			k.nowqHead++
			if k.nowqHead == len(k.nowq) {
				k.nowq = k.nowq[:0]
				k.nowqHead = 0
			}
			return e, true
		}
		if k.useHeap {
			return k.hq.pop(), true
		}
		return k.lq.popFront(), true
	}
}

// slot stores a callback payload and returns its table index.
func (k *Kernel) slot(p payload) int32 {
	if n := len(k.payFree); n > 0 {
		s := k.payFree[n-1]
		k.payFree = k.payFree[:n-1]
		k.pay[s] = p
		return s
	}
	k.pay = append(k.pay, p)
	return int32(len(k.pay) - 1)
}

// At schedules fn to run in event context at absolute time t. Scheduling in
// the past panics: it would make time run backwards.
func (k *Kernel) At(t Time, fn func()) {
	k.checkPast(t)
	k.sched(event{t: t, seq: k.allocSeq(), slot: k.slot(payload{fn: fn})})
}

// AtCall schedules fn(arg) to run in event context at absolute time t.
// Unlike At it captures no closure: callers keep one long-lived fn and pass
// per-event state through arg (a pointer, so no boxing allocation either).
func (k *Kernel) AtCall(t Time, fn func(interface{}), arg interface{}) {
	k.checkPast(t)
	k.sched(event{t: t, seq: k.allocSeq(), slot: k.slot(payload{hfn: fn, arg: arg})})
}

// AtLazyCall schedules fn(arg) on the lazy event tier. The callback runs
// in event context at the exact (t, schedule-order) position a regular
// AtCall event would occupy — same Now(), same interleaving with every
// other event, same sequence numbers allocated by everything it schedules
// — but it is executed inline inside the loop's event selection instead
// of costing a regular queue pop, and it can never be the event that
// resumes a process. Whole-run behavior is therefore bit-identical to
// AtCall; the point is price: the network's fused delivery runs the
// per-hop arrive stage here, halving the regular event traffic of every
// message. The callback must not block; scheduling further events (lazy
// or regular) from it is fine.
func (k *Kernel) AtLazyCall(t Time, fn func(interface{}), arg interface{}) {
	k.checkPast(t)
	k.lazyq.push(event{t: t, seq: k.allocSeq(), slot: k.slot(payload{hfn: fn, arg: arg})})
}

// atProc schedules p to resume at absolute time t, with no allocation.
func (k *Kernel) atProc(t Time, p *Proc) {
	if p.k != k {
		panic("sim: scheduling a wakeup for a process of an unrelated kernel")
	}
	k.checkPast(t)
	k.sched(event{t: t, seq: k.allocSeq(), proc: p})
}

// After schedules fn to run in event context after delay d (d >= 0).
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.At(k.now+d, fn)
}

// Run executes events until the queue is empty or Stop is called. It
// returns an error if, at the end, some processes are still blocked — that
// indicates a deadlock (or a forgotten wake-up) in the simulated system.
//
// The simulation is strictly sequential: the loop runs on the goroutine
// that called Run and resumes each process as a coroutine (see doc.go), so
// exactly one process or event callback executes at any time. A panic in
// either reaches the caller of Run, after every other live process has
// been unwound.
//
// Run pins GOMAXPROCS to 1 for its duration and restores it afterwards —
// unless SetPinned(false) opted out because several kernels run
// concurrently. Coroutine switches do not need a single P; the pin stays
// because a lone machine measured better with it on the repository
// benchmark: without it, 4–8% more peak memory on the batch workloads and
// ≈7% slower msgpass-sweep passes (PERF.md).
func (k *Kernel) Run() error {
	if !k.noPin {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if k.cancelRequested() {
		// Canceled before the first event (e.g. an already-expired
		// deadline): stop deterministically without executing anything.
		k.canceled = true
		k.stopped = true
	}
	// Every exit unwinds the processes still live — parked at a deadlock
	// or a cancellation, or all of them when a process or callback
	// panicked — so no coroutine outlives Run.
	defer func() {
		k.cur = nil // left set when a process body panicked
		k.killAll()
	}()
	k.loop()
	if k.canceled {
		return &CanceledError{At: k.now, Events: k.Stat.Events}
	}
	var blocked []string
	for _, p := range k.procs {
		if !p.done {
			blocked = append(blocked, p.name)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Blocked: blocked, At: k.now}
	}
	return nil
}

// loop executes events until the queue drains or Stop is called. Callbacks
// run inline; a live process's wakeup resumes its coroutine until the body
// parks again or returns.
func (k *Kernel) loop() {
	for k.Pending() > 0 && !k.stopped {
		if k.cancel != nil && k.checkCancel() {
			break // cancellation checkpoint hit; Run returns CanceledError
		}
		e, ok := k.next()
		if !ok {
			continue // only lazy events were due; re-evaluate
		}
		k.now = e.t
		k.Stat.Events++
		k.fold(&e)
		if p := e.proc; p != nil {
			if !p.done { // a killed process's wakeup is skipped, but folded
				k.cur = p
				p.next()
				k.cur = nil
			}
			continue
		}
		pl := k.takeSlot(e.slot)
		if pl.hfn != nil {
			pl.hfn(pl.arg)
		} else {
			pl.fn()
		}
	}
}

// Stop makes Run return after the current event completes. Remaining
// processes are not killed; call Shutdown for that.
func (k *Kernel) Stop() { k.stopped = true }

// Shutdown force-terminates all live processes. It is safe to call after
// Run has returned; used by tests so no parked coroutine outlives them.
func (k *Kernel) Shutdown() { k.killAll() }

func (k *Kernel) killAll() {
	for _, p := range k.procs {
		if !p.done {
			p.kill()
		}
	}
}

// DeadlockError reports processes that never completed.
type DeadlockError struct {
	Blocked []string
	At      Time
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v, blocked processes: %v", e.At, e.Blocked)
}
