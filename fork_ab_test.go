// A/B tests for machine snapshot/fork: forking a warmed-up machine and
// running a query on the fork must be bit-identical — the same
// executed-event-order fingerprint, simulated time, congestion, message
// counts and evictions — to running the query directly on the source
// machine. The matrix covers topology × strategy cells, the hand-optimized
// path, bounded caches, and the reseeded-fork divergence contract.
package diva_test

import (
	"testing"

	"diva"
)

// forkTraj is one run's observable trajectory after the query workload.
type forkTraj struct {
	fingerprint uint64
	events      uint64
	elapsedUS   float64
	congMax     uint64
	congTotal   uint64
	sendMsgs    uint64
	sendBytes   uint64
	evictions   uint64
	verified    bool
}

// capture collects the trajectory of m after a workload returned res.
func capture(t *testing.T, m *diva.Machine, res diva.Result) forkTraj {
	t.Helper()
	c := m.Net.Congestion(nil)
	msgs, bytes := m.Net.SendStats()
	var sm, sb uint64
	for k := range msgs {
		sm += msgs[k]
		sb += bytes[k]
	}
	return forkTraj{
		fingerprint: m.K.Fingerprint(),
		events:      m.K.Stat.Events,
		elapsedUS:   res.ElapsedUS,
		congMax:     c.MaxMsgs,
		congTotal:   c.TotalMsgs,
		sendMsgs:    sm,
		sendBytes:   sb,
		evictions:   diva.TotalEvictions(m),
		verified:    res.Verified,
	}
}

// mustRun runs w on m and fails the test on error.
func mustRun(t *testing.T, m *diva.Machine, w diva.Workload) diva.Result {
	t.Helper()
	res, err := w.Run(m, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return res
}

// checkForkAB pins the fork contract for one (machine options, warm
// workload, query workload) cell:
//
//   - baseline: one machine runs warm then query back-to-back;
//   - fork: a second machine runs warm, snapshots, and two concurrent
//     forks run the query — both must match the baseline exactly;
//   - the snapshot is non-destructive: the source machine continues with
//     the query and must match the baseline too.
func checkForkAB(t *testing.T, warm, query diva.Workload, opts ...diva.Option) {
	t.Helper()
	opts = append(opts, diva.WithConcurrent(true))

	a := diva.MustNew(opts...)
	mustRun(t, a, warm)
	base := capture(t, a, mustRun(t, a, query))
	if base.fingerprint == 0 {
		t.Fatal("no fingerprint collected")
	}

	b := diva.MustNew(opts...)
	mustRun(t, b, warm)
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	type out struct {
		traj forkTraj
		err  error
	}
	ch := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			f, err := diva.Fork(snap, diva.ForkConcurrent(true))
			if err != nil {
				ch <- out{err: err}
				return
			}
			res, err := query.Run(f, nil)
			if err != nil {
				ch <- out{err: err}
				return
			}
			ch <- out{traj: capture(t, f, res)}
		}()
	}
	for i := 0; i < 2; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatalf("fork %d: %v", i, o.err)
		}
		if o.traj != base {
			t.Errorf("fork trajectory diverged from fresh run:\n fork: %+v\n base: %+v", o.traj, base)
		}
	}

	// The snapshot must not have disturbed the source machine.
	cont := capture(t, b, mustRun(t, b, query))
	if cont != base {
		t.Errorf("source machine diverged after snapshot:\n cont: %+v\n base: %+v", cont, base)
	}
}

// TestForkABDSM is the fork matrix over topology × strategy cells: warm
// with the matrix square, query with bitonic sorting, both through the
// data management strategy.
func TestForkABDSM(t *testing.T) {
	cells := []struct{ topo, strat string }{
		{"mesh", "at4"},
		{"torus", "fixedhome"},
		{"hypercube", "at2"},
		{"fattree", "at4k8"},
	}
	warm := diva.Matmul(diva.MatmulConfig{BlockInts: 64, Seed: 1})
	query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
	for _, cell := range cells {
		cell := cell
		t.Run(cell.topo+"/"+cell.strat, func(t *testing.T) {
			checkForkAB(t, warm, query,
				diva.WithTopologyName(cell.topo, 8, 8),
				diva.WithStrategyName(cell.strat),
				diva.WithSeed(1999))
		})
	}
}

// TestForkABHandOpt pins the fork contract on strategy-free machines.
func TestForkABHandOpt(t *testing.T) {
	warm := diva.Stencil(diva.StencilConfig{Iters: 3, HaloInts: 32, WithCompute: true, OpUS: 0.5, Check: true, Seed: 7})
	query := diva.BitonicHandOpt(diva.BitonicConfig{KeysPerProc: 32, Check: true, Seed: 9})
	// One machine shape: a single kernel (shards=1).
	t.Run("shards=1", func(t *testing.T) {
		checkForkAB(t, warm, query,
			diva.WithMesh(8, 8), diva.WithSeed(1999), diva.WithTree(diva.Ary2))
	})
}

// TestForkABBoundedCache pins the fork contract with a bounded cache: the
// fork must reinstate the exact entry set (including over-capacity state
// left by refused evictions) and the eviction counters.
func TestForkABBoundedCache(t *testing.T) {
	warm := diva.Matmul(diva.MatmulConfig{BlockInts: 64, Seed: 1})
	query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
	checkForkAB(t, warm, query,
		diva.WithMesh(4, 4), diva.WithStrategyName("at4"),
		diva.WithSeed(1999), diva.WithCacheCapacity(2048))

	// The cell must actually exercise replacement, or the test is vacuous.
	m := diva.MustNew(diva.WithMesh(4, 4), diva.WithStrategyName("at4"),
		diva.WithSeed(1999), diva.WithCacheCapacity(2048), diva.WithConcurrent(true))
	mustRun(t, m, warm)
	if diva.TotalEvictions(m) == 0 {
		t.Error("warm-up produced no evictions; shrink the cache capacity")
	}
}

// TestForkReseedDivergence pins the reseed contract: forks with distinct
// ForkSeeds diverge (future random placements differ), forks with the same
// ForkSeed are identical, and reseeding never disturbs sibling forks.
func TestForkReseedDivergence(t *testing.T) {
	warm := diva.Matmul(diva.MatmulConfig{BlockInts: 64, Seed: 1})
	query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
	m := diva.MustNew(diva.WithMesh(8, 8), diva.WithStrategyName("at4"),
		diva.WithSeed(1999), diva.WithConcurrent(true))
	mustRun(t, m, warm)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	run := func(opts ...diva.ForkOption) forkTraj {
		f, err := diva.Fork(snap, append(opts, diva.ForkConcurrent(true))...)
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		return capture(t, f, mustRun(t, f, query))
	}
	plain := run()
	s1 := run(diva.ForkSeed(1))
	s2 := run(diva.ForkSeed(2))
	s1again := run(diva.ForkSeed(1))
	if s1 != s1again {
		t.Errorf("same ForkSeed diverged: %+v vs %+v", s1, s1again)
	}
	if s1.fingerprint == s2.fingerprint {
		t.Errorf("distinct ForkSeeds did not diverge: both %#x", s1.fingerprint)
	}
	if s1.fingerprint == plain.fingerprint {
		t.Errorf("reseeded fork tracked the un-reseeded fork: both %#x", s1.fingerprint)
	}
	// The un-reseeded fork still replays the source exactly.
	cont := capture(t, m, mustRun(t, m, query))
	if plain != cont {
		t.Errorf("un-reseeded fork diverged from continued source: %+v vs %+v", plain, cont)
	}
}
