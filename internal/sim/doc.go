// Package sim implements a deterministic, sequential discrete-event
// simulation kernel with cooperative processes.
//
// The kernel advances virtual time by executing events from a priority
// queue. Exactly one thing runs at a time: either an event callback or one
// process goroutine. Processes hand control back to the kernel whenever they
// block (Wait, Await, ...), so all executions are serialized and the whole
// simulation is reproducible — same inputs, same event order, same results.
//
// Two execution contexts exist:
//
//   - Event context: callbacks scheduled with At/After/AtCall run inline in
//     the kernel loop. They must not block. Protocol handlers (message
//     deliveries) run in this context.
//   - Process context: goroutines spawned with Spawn. They may block on
//     futures and timed waits. Application programs (one per simulated
//     processor) run in this context.
//
// Time is measured in microseconds (float64); ties are broken by schedule
// order, which makes runs deterministic.
//
// # The event queue
//
// The event queue is the hottest data structure of the whole simulator, so
// it avoids container/heap entirely. Events live unboxed in plain []event
// arrays; a queue entry is 32 bytes — timestamp, sequence, and either the
// *Proc to wake (the most frequent event, inline) or a slot index into a
// recycled payload table holding the callback variants — and the hot
// paths (proc wakeups, message deliveries) schedule with zero
// allocations.
//
// The default queue is a ladder/calendar queue (ladder.go) with three
// nested tiers: a sorted "front" (the current epoch, popped by index
// increment — O(1)), a stack of rungs whose equal-width buckets partition
// successive time intervals (each deeper rung refines one bucket of its
// parent), and an unsorted far-future tail. Every event is appended O(1)
// into its tier and participates in exactly one small sort when its
// bucket becomes the front, so the amortized cost per event is constant
// where a heap pays O(log n) sift traffic per push and pop
// (BenchmarkKernelQueue*: flat ns/op from 256 to 65536 standing events,
// 2.5-3x over the heap). Its exactness invariants:
//
//   - the tiers partition time with canonical bucket-edge comparisons
//     (edge(i) = start + width*i, the same expression on every path), so
//     floating-point rounding can never place an event on the wrong side
//     of a boundary: front < rungs[deepest] < ... < rungs[0] < tail;
//   - the front is refilled only when empty, from the next nonempty
//     bucket of the deepest rung (sorted by (t, seq), oversized buckets
//     spread into a child rung first) or by converting the tail — by the
//     partition invariant the refill holds exactly the globally smallest
//     remaining events;
//   - pushes below the front's bound insert in sorted position; a front
//     grown past a small cap spills into a fresh deepest rung, so sorted
//     insertion cost stays bounded;
//   - ties are broken by the globally monotone sequence number
//     everywhere, so pop order is the strict (t, seq) order.
//
// The retained 4-ary min-heap (heapq.go) pops in the provably identical
// order and stays behind Kernel.SetHeapQueue and the diva_heapq build tag
// as the differential-test oracle: randomized and fuzzed (t, seq)
// workloads must produce byte-identical pop sequences from both
// (ladder_test.go), and the whole test suite runs against the heap build
// in CI.
//
// Events scheduled at the current timestamp — future completions, yields,
// spawn kick-offs: the bulk of the protocol layer's churn — bypass the
// queue entirely through a FIFO, which is exact: such an event is younger
// than every queued event of the same timestamp, so FIFO order is
// (time, sequence) order.
//
// # The lazy event tier
//
// AtLazyCall schedules a callback that executes at the exact (t, seq)
// position a regular event would occupy — the loop runs due lazy events
// inline during event selection, advancing the clock and folding them
// into the fingerprint exactly as if popped — but without a regular
// event's pop. A lazy event can never resume a process. The network's
// fused delivery pipeline runs the per-hop arrive stage here: a message
// hop costs one regular kernel event (the handler dispatch) instead of
// two, while charging, event interleaving, sequence allocation and thus
// every simulated metric stay bit-identical to the two-stage pipeline
// (Network.SetTwoStageDelivery is the A/B oracle; the A/B tests pin equal
// kernel fingerprints across all four queue x pipeline combinations).
//
// # The single-rendezvous handoff
//
// The kernel loop is not pinned to one goroutine. Whichever goroutine
// currently runs — the one that called Run, or any process goroutine —
// holds a conceptual baton; it executes the loop (popping events and
// running event callbacks inline) until it pops a wakeup for a different
// process. It then hands the baton over with a single send on that
// process's buffered resume channel and blocks on (or, for a finished
// process, exits instead of) its own rendezvous. A full context switch
// therefore costs exactly one channel rendezvous — one futex wake plus one
// sleep — instead of the two of the classic park/resume ping-pong through a
// dedicated scheduler goroutine, and a process that parks and is the next
// to wake (a timed Wait with nothing in between, the most common pattern)
// resumes with zero channel operations: it pops its own wakeup inside the
// loop it is already running.
//
// States of a process goroutine:
//
//	SPAWNED --(first wakeup popped: baton handed over)--> RUNNING
//	RUNNING --(park: Wait/WaitUntil/Yield/Await)--------> DRIVING
//	DRIVING --(pops own wakeup)-------------------------> RUNNING   (0 rendezvous)
//	DRIVING --(pops another proc's wakeup: hand baton)--> PARKED    (1 rendezvous)
//	DRIVING --(event it ran killed it: baton to Run)----> EXITED    (unwinds via panic)
//	PARKED  --(own wakeup popped elsewhere: baton in)---> RUNNING
//	RUNNING --(body returns)----------------------------> DRIVING (done)
//	DRIVING (done) --(hand baton or queue drained)------> EXITED
//	SPAWNED/PARKED --(kill)-----------------------------> EXITED   (unwinds via panic)
//
// DRIVING means the goroutine is executing the kernel loop inline (inside
// park, or as the continuation after its body returned). The goroutine that
// called Run is a regular participant: it drives until it hands the baton
// to the first process and then sleeps on the kernel's main channel; it
// does not take part in per-switch ping-pong at all. The main channel is
// signaled when the simulation terminates (queue drained or Stop) — or by
// a driving goroutine that must unwind because an event callback it just
// executed killed its own process; the Run goroutine then resumes driving
// the remaining events.
//
// Exactly one goroutine is ever runnable per kernel: every handoff is a
// send to a goroutine that is blocked (or about to block) on its own
// channel, immediately followed by the sender blocking or exiting. The
// happens-before chain of those channel operations is also what makes the
// kernel's state safely visible across the goroutines under `go test
// -race`, even when several kernels run concurrently (SetPinned(false)).
//
// Killing a process (kernel shutdown, deadlock cleanup, tests) marks it
// done and deposits a kill signal in its resume buffer; the process unwinds
// with a panic the Spawn wrapper swallows. A killed process that still has
// a wakeup queued is skipped when that event pops — the event is still
// folded into the Fingerprint, which hashes every popped event.
package sim
