package main

import "diva"

// The workloads. The three batch workloads run a fixed job list one job
// at a time in one process, as divasim and the experiments command do (a
// closed loop with one caller); serve-fork drives the HTTP service with
// nproc closed-loop clients. README.md records why each was chosen.
const (
	wlDSM      = "dsm-sweep"
	wlMsgPass  = "msgpass-sweep"
	wlReactive = "reactive-faults"
	wlServe    = "serve-fork"
)

var workloadNames = []string{wlDSM, wlMsgPass, wlReactive, wlServe}

// defaultSeed is the seed whose outcomes are committed in expected.json.
const defaultSeed = 1

// job is one run of a batch workload's list.
type job struct {
	Name string // used in metric names: run.<Name>_s
	Spec diva.Spec
}

// mix derives the i-th spec seed from the benchmark seed (splitmix64), so
// a seed changes every generated input but never which jobs run.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // spec seed 0 would mean "inherit", not a distinct input
	}
	return z
}

// batchJobs returns the job list of a batch workload, or nil for a name
// that is not one. Both strategies of a pair share one seed, so they run
// on identical inputs as in the paper's comparison.
func batchJobs(workload string, seed uint64) []job {
	gcel := func(rows, cols int, strategy string, s uint64, w diva.WorkloadSpec) diva.Spec {
		return diva.Spec{Rows: rows, Cols: cols, Strategy: strategy, Seed: s, Workload: w}
	}
	switch workload {
	case wlDSM:
		// The bench_test.go Fig8, Fig3 and Fig6 sizes.
		bh := diva.WorkloadSpec{Name: "barneshut", Bodies: 2000, Steps: 4, MeasureFrom: 2}
		mm := diva.WorkloadSpec{Name: "matmul", Block: 256, Check: true}
		bi := diva.WorkloadSpec{Name: "bitonic", Keys: 1024, Compute: true, Check: true}
		s0, s1, s2 := mix(seed, 0), mix(seed, 1), mix(seed, 2)
		return []job{
			{"bh_at4", gcel(8, 8, "at4", s0, bh)},
			{"bh_fixedhome", gcel(8, 8, "fixedhome", s0, bh)},
			{"matmul_at4", gcel(16, 16, "at4", s1, mm)},
			{"matmul_fixedhome", gcel(16, 16, "fixedhome", s1, mm)},
			{"bitonic_at2k4", gcel(8, 8, "at2k4", s2, bi)},
			{"bitonic_fixedhome", gcel(8, 8, "fixedhome", s2, bi)},
		}
	case wlMsgPass:
		// No strategy; spec shards 0 is the sequential kernel.
		return []job{
			{"matmul_handopt", gcel(16, 16, "", mix(seed, 3),
				diva.WorkloadSpec{Name: "matmul-handopt", Block: 256, Check: true})},
			{"bitonic_handopt", gcel(8, 8, "", mix(seed, 4),
				diva.WorkloadSpec{Name: "bitonic-handopt", Keys: 1024, Compute: true, Check: true})},
			{"stencil", gcel(8, 16, "", mix(seed, 5),
				diva.WorkloadSpec{Name: "stencil", Iters: 200, Compute: true, Check: true})},
		}
	case wlReactive:
		// The machine seed draws the fault schedule; the default ack
		// transport parameters apply.
		bh := diva.WorkloadSpec{Name: "barneshut", Bodies: 1000, Steps: 3}
		faulty := func(strategy string) diva.Spec {
			s := gcel(8, 8, strategy, mix(seed, 6), bh)
			s.Recovery = "reactive"
			s.Fault = &diva.FaultSpec{LinkFailures: 6, NodeChurn: 2}
			return s
		}
		return []job{
			{"rf_bh_at4", faulty("at4")},
			{"rf_bh_fixedhome", faulty("fixedhome")},
		}
	}
	return nil
}

// serveMix is the serve-fork request mix: cached-base forks (plain
// /v1/run) and forks of one machine setup warmed and persisted. Its four
// distinct machines fit the server's default snapshot cache of 8.
type serveMix struct {
	Warm     diva.Spec // POSTed to /v1/snapshots during setup
	Base     []job     // plain /v1/run requests
	Snapshot []job     // /v1/run?snapshot=<handle> requests: only Workload is sent
}

func newServeMix(seed uint64) serveMix {
	mm := diva.WorkloadSpec{Name: "matmul", Block: 16, Check: true}
	s7, s8 := mix(seed, 7), mix(seed, 8)
	return serveMix{
		Warm: diva.Spec{Strategy: "at4", Seed: mix(seed, 9), Workload: mm},
		Base: []job{
			{"matmul_at4", diva.Spec{Strategy: "at4", Seed: s7, Workload: mm}},
			{"matmul_fixedhome", diva.Spec{Strategy: "fixedhome", Seed: s7, Workload: mm}},
			{"stencil", diva.Spec{Seed: s8, Workload: diva.WorkloadSpec{Name: "stencil", Iters: 2, Check: true}}},
		},
		Snapshot: []job{
			{"snap_matmul", diva.Spec{Workload: diva.WorkloadSpec{Name: "matmul", Block: 16, Check: true, Seed: mix(seed, 10)}}},
			// The bitonic fork takes about 20 ms, three times the others: a
			// fifth of the requests form a heavy class, and op_p90_ms reads it.
			{"snap_bitonic", diva.Spec{Workload: diva.WorkloadSpec{Name: "bitonic", Keys: 64, Compute: true, Check: true, Seed: mix(seed, 11)}}},
		},
	}
}

// requests returns the serve-fork request list of one pass: n indices into
// Base followed by Snapshot, every entry equally often (n is a multiple
// of the entry count), in an order drawn from the seed. The seed changes
// the order, never the share of each entry.
func (sm serveMix) requests(seed uint64, n int) []int {
	kinds := len(sm.Base) + len(sm.Snapshot)
	out := make([]int, n)
	for i := range out {
		out[i] = i % kinds
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed^0x5eed, i) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
