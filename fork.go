package diva

import "diva/internal/core"

// Snapshot is a deep copy of a quiescent machine's simulated state,
// captured by Machine.Snapshot. It is immutable: any number of machines
// can be forked from one snapshot, concurrently. The canonical use is
// simulation-as-a-service — run a warm-up workload once, snapshot, then
// fork per query — and the same capture doubles as a checkpoint for
// crash-consistent long runs.
//
// Snapshots are only legal at quiescence (every spawned process finished,
// no event pending, no transaction in flight): simulated processes are
// coroutines whose stacks cannot be copied. Machine.Snapshot reports a
// descriptive error otherwise.
type Snapshot = core.Snapshot

// ForkOption tunes Fork.
type ForkOption func(*core.ForkOptions)

// ForkSeed re-derives the fork's random streams (the machine RNG and the
// strategy's private stream) from seed: forks with distinct seeds diverge
// in every future random draw while inheriting the snapshot's state
// unchanged. Without it, a fork replays the source machine's streams —
// fork-then-run is bit-identical to continuing the source.
func ForkSeed(seed uint64) ForkOption {
	return func(o *core.ForkOptions) { o.Reseed, o.Seed = true, seed }
}

// ForkConcurrent overrides the snapshot's Concurrent flag (see
// WithConcurrent) for this fork. Servers fork with true so concurrent
// queries do not fight over the process-wide GOMAXPROCS pin; simulated
// results are unaffected either way.
func ForkConcurrent(on bool) ForkOption {
	return func(o *core.ForkOptions) { o.Concurrent = &on }
}

// Fork builds an independent machine resuming exactly where snap was
// captured: running a workload on the fork is bit-identical — kernel
// fingerprint and all simulated metrics — to running it on the source
// machine. The fork shares no mutable state with the source or with
// sibling forks (variable values are shared by reference; they are
// immutable by the Write contract).
func Fork(snap *Snapshot, opts ...ForkOption) (*Machine, error) {
	var o core.ForkOptions
	for _, f := range opts {
		f(&o)
	}
	return snap.Fork(o)
}
