package core

import (
	"fmt"

	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/internal/xrand"
)

// This file implements machine snapshot/fork: a deep copy of a quiescent
// machine's entire simulated state — kernel clock/sequence/fingerprint,
// network links and inboxes, variables, caches, barrier epochs, and the
// strategy's protocol state — from which any number of independent machines
// can be forked. A fork continues the run exactly where the snapshot was
// taken: fork-then-run is bit-identical (fingerprints and all simulated
// metrics) to continuing the original machine, which the A/B tests pin.
//
// Snapshots are only legal at quiescence: simulated processes are
// coroutines whose stacks cannot be copied, so every process must have
// finished, no event may be pending, and no transaction may be in flight.
// The practical shape is "run a warm-up workload to completion, snapshot,
// fork per query" — and the same capture doubles as a checkpoint for
// crash-consistent long runs.
//
// A fork is built by constructing a fresh machine from the pinned config
// (construction is deterministic: the same seed replays the same barrier
// root draw and strategy stream split) and then overwriting every piece of
// mutable state with deep copies from the snapshot. The snapshot itself is
// immutable after capture, so concurrent forks from one snapshot are safe —
// the serve layer relies on this.

// Forker is the optional interface a Strategy implements to support
// Machine.Snapshot and fork. Both built-in strategies (accesstree,
// fixedhome) implement it; a machine whose strategy does not cannot be
// snapshotted.
type Forker interface {
	// SnapshotState returns an immutable deep copy of the strategy's
	// mutable state, including the per-variable protocol state. vars
	// indexes the machine's variables by id (nil entries are freed). It
	// fails when protocol state that cannot be captured is live (pending
	// invalidations, queued lock requests, a held lock).
	SnapshotState(vars []*Variable) (interface{}, error)
	// RestoreState deep-copies a SnapshotState result onto this strategy
	// (bound to an identically configured machine), installing the
	// per-variable protocol state on the fork's variable records. The blob
	// is never mutated, so many forks can restore from one.
	RestoreState(state interface{}, vars []*Variable) error
	// RestoreCacheEntry re-registers one bounded-cache entry under the
	// strategy's own key type. The machine layer replays entries in the
	// source cache's LRU order; the insert must not trigger replacement
	// (Cache.InsertRestored).
	RestoreCacheEntry(vars []*Variable, key interface{}) error
	// Reseed re-derives the strategy's private random stream from a fresh
	// seed, so a fork diverges from its siblings in every future random
	// draw (new variable placements). State inherited from the snapshot is
	// unaffected.
	Reseed(seed uint64)
}

// seedSalt decorrelates the machine RNG from the raw user seed; InitVar
// streams are further split off per strategy. faultSalt splits off the
// fault-schedule draw entirely — it must not advance the machine RNG, or a
// machine given the drawn schedule explicitly would diverge.
// reactSalt splits off the reactive transport's jitter streams the same way.
const (
	seedSalt  = 0xd1b54a32d192ed03
	faultSalt = 0x9e6c63d0876a9a35
	reactSalt = 0xc2b2ae3d27d4eb4f
)

// Snapshot is a deep copy of a quiescent machine's simulated state.
// Immutable after capture; Fork any number of times, concurrently.
type Snapshot struct {
	cfg     Config
	kern    sim.KernelState
	net     *mesh.NetworkState
	rng     xrand.State
	vars    []varSnap
	barrier barrierSnap
	caches  []cacheSnap
	strat   interface{}
}

// varSnap captures one variable record. Data is shared by reference —
// values are immutable by the library-wide Write contract.
type varSnap struct {
	present bool
	size    int
	creator int
	data    interface{}
	local   [localBits / 64]uint64
}

type barrierSnap struct {
	epoch    []uint64
	batched  uint64
	cascaded uint64
	aborted  uint64
}

// cacheSnap is one node cache's entry keys in LRU→MRU order plus its
// replacement counter; entry sizes are re-derived from the variables.
type cacheSnap struct {
	keys      []interface{}
	evictions uint64
}

// ForkOptions tunes Snapshot.Fork.
type ForkOptions struct {
	// Reseed re-derives the fork's random streams (machine RNG and the
	// strategy's) from Seed: forks with distinct seeds diverge in every
	// future random draw while inheriting the snapshot's state unchanged.
	Reseed bool
	Seed   uint64
	// Concurrent, when non-nil, overrides the config's Concurrent flag —
	// the serve layer forks with true so concurrent queries do not fight
	// over the process-wide GOMAXPROCS pin. Simulated results are
	// unaffected either way.
	Concurrent *bool
}

// Snapshot captures the machine's state. The machine must be quiescent:
// every spawned process finished, no event pending, no transaction active.
// Machines with a strategy require it to implement Forker.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if n := m.K.Pending(); n > 0 {
		return nil, fmt.Errorf("diva: snapshot of a non-quiescent machine: %d events pending", n)
	}
	for _, p := range m.procs {
		if !p.Done() {
			return nil, fmt.Errorf("diva: snapshot of a non-quiescent machine: process p%d still live", p.ID)
		}
	}
	for _, v := range m.vars {
		if v != nil && v.busy() {
			return nil, fmt.Errorf("diva: snapshot with an active transaction on variable %d", v.ID)
		}
	}
	if len(m.bar.state) > 0 {
		return nil, fmt.Errorf("diva: snapshot with a partial barrier arrival")
	}
	for i, f := range m.bar.waiting {
		if f != nil {
			return nil, fmt.Errorf("diva: snapshot with process p%d blocked in a barrier", i)
		}
	}
	var forker Forker
	if m.Strat != nil {
		var ok bool
		if forker, ok = m.Strat.(Forker); !ok {
			return nil, fmt.Errorf("diva: strategy %q does not support snapshot/fork", m.Strat.Name())
		}
	}
	ks, err := m.K.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("diva: snapshot: %w", err)
	}
	s := &Snapshot{cfg: m.Cfg, kern: ks, rng: m.RNG.State()}
	ns, err := m.Net.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("diva: snapshot: %w", err)
	}
	s.net = ns
	s.vars = make([]varSnap, len(m.vars))
	for i, v := range m.vars {
		if v == nil {
			continue
		}
		s.vars[i] = varSnap{present: true, size: v.Size, creator: v.Creator, data: v.Data, local: v.local}
	}
	s.barrier = barrierSnap{
		epoch:    append([]uint64(nil), m.bar.epoch...),
		batched:  m.bar.batched,
		cascaded: m.bar.cascaded,
		aborted:  m.bar.aborted,
	}
	s.caches = make([]cacheSnap, len(m.caches))
	for i := range m.caches {
		c := &m.caches[i]
		cs := cacheSnap{evictions: c.evictions}
		if c.lru != nil {
			for e := c.lru.Back(); e != nil; e = e.Prev() {
				cs.keys = append(cs.keys, e.Value.(*cacheEntry).key)
			}
		}
		s.caches[i] = cs
	}
	if forker != nil {
		blob, err := forker.SnapshotState(m.vars)
		if err != nil {
			return nil, fmt.Errorf("diva: snapshot: %w", err)
		}
		s.strat = blob
	}
	return s, nil
}

// Fork builds an independent machine resuming from the snapshot: running a
// workload on the fork is bit-identical to running it on the source
// machine. Any number of forks can be taken, concurrently.
func (s *Snapshot) Fork(o ForkOptions) (*Machine, error) {
	cfg := s.cfg
	if o.Concurrent != nil {
		cfg.Concurrent = *o.Concurrent
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, fmt.Errorf("diva: fork: %w", err)
	}
	if err := m.K.RestoreState(s.kern); err != nil {
		return nil, fmt.Errorf("diva: fork: %w", err)
	}
	if err := m.Net.RestoreState(s.net); err != nil {
		return nil, fmt.Errorf("diva: fork: %w", err)
	}
	m.RNG.SetState(s.rng)
	m.vars = make([]*Variable, len(s.vars))
	for i := range s.vars {
		vs := &s.vars[i]
		if !vs.present {
			continue
		}
		m.vars[i] = &Variable{
			ID:      VarID(i),
			Size:    vs.size,
			Creator: vs.creator,
			Data:    vs.data,
			local:   vs.local,
		}
	}
	copy(m.bar.epoch, s.barrier.epoch)
	m.bar.batched, m.bar.cascaded, m.bar.aborted = s.barrier.batched, s.barrier.cascaded, s.barrier.aborted
	if s.strat != nil {
		f := m.Strat.(Forker) // same config built the same strategy type
		if err := f.RestoreState(s.strat, m.vars); err != nil {
			return nil, fmt.Errorf("diva: fork: %w", err)
		}
		for node := range s.caches {
			for _, key := range s.caches[node].keys {
				if err := f.RestoreCacheEntry(m.vars, key); err != nil {
					return nil, fmt.Errorf("diva: fork: %w", err)
				}
			}
		}
	}
	for i := range s.caches {
		m.caches[i].evictions = s.caches[i].evictions
	}
	if o.Reseed {
		m.RNG = xrand.New(o.Seed ^ seedSalt)
		m.Net.ReactReseed(o.Seed ^ reactSalt)
		if s.strat != nil {
			m.Strat.(Forker).Reseed(o.Seed)
		}
	}
	return m, nil
}
