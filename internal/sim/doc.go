// Package sim implements a deterministic, sequential discrete-event
// simulation kernel with cooperative processes.
//
// The kernel advances virtual time by executing events from a priority
// queue. Exactly one thing runs at a time: either an event callback or one
// process. Processes hand control back to the kernel whenever they block
// (Wait, Await, ...), so all executions are serialized and the whole
// simulation is reproducible — same inputs, same event order, same results.
//
// Two execution contexts exist:
//
//   - Event context: callbacks scheduled with At/After/AtCall run inline in
//     the kernel loop. They must not block. Protocol handlers (message
//     deliveries) run in this context.
//   - Process context: coroutines spawned with Spawn. They may block on
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
// # Coroutine processes
//
// The kernel loop always runs on the goroutine that called Run, and every
// process body is a runtime coroutine (iter.Pull). Popping the wakeup of a
// live process resumes its coroutine (next); the body runs until it blocks
// — park yields back to the loop — or returns. A context switch is thus
// one coroutine switch each way, with no channel and no scheduler
// involvement, and callbacks never run on a process's stack. Kernel state
// needs no synchronization: the coroutine switch orders every access, also
// under `go test -race` with several kernels running concurrently
// (SetPinned(false)).
//
// A panic in a process body is re-raised by next on Run's goroutine, like
// a panic in a callback; Run then unwinds every other live process before
// the panic leaves it, so a caller that recovers leaks nothing. Wait,
// WaitUntil, Yield and Await panic when called on a process that is not
// the one running (from event context, or on another process's Proc).
//
// Killing a process (kernel shutdown, deadlock cleanup, tests) marks it
// done and stops its coroutine: the pending yield returns false and the
// body unwinds, before kill returns, with a panic the Spawn wrapper
// swallows; a process never started just never runs. A killed process
// that still has a wakeup queued is skipped when that event pops — the
// event is still folded into the Fingerprint, which hashes every popped
// event.
package sim
