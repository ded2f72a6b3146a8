package main

import (
	"fmt"
	"time"

	"diva"
)

const (
	// minBatchPasses keeps a median meaningful when one pass outlasts the
	// measuring window.
	minBatchPasses = 3
	// setupReps is how often a pass builds each job's machine; the pass
	// records the median, and runs the last machine built. Building is
	// cheap next to running, so this steadies setup_s at little cost.
	setupReps = 5
)

// batchPass is what one pass over a job list measured.
type batchPass struct {
	traced  bool
	setupNS int64   // Σ diva.FromSpec, each the median of setupReps
	runNS   int64   // Σ Workload.Run: the pass time
	wallNS  int64   // the whole pass, output checks included
	jobRun  []int64 // Workload.Run per job, in list order
	counts  counts
}

// batchResult is a batch workload's measurement.
type batchResult struct {
	jobs   []job
	passes []batchPass
	spans  []span
	wallNS int64 // the measuring loop, all passes
	mem    memDelta
}

// gate is the output gate: it counts attempted and failed operations and
// keeps the first few failure reasons for the report.
type gate struct {
	attempted, failed int
	reasons           []string
}

// ok is the number of ops that passed so far.
func (g *gate) ok() int { return g.attempted - g.failed }

func (g *gate) op(err error) {
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.reasons) < 10 {
			g.reasons = append(g.reasons, err.Error())
		}
	}
}

// runBatch runs passes over jobs until seconds have passed. With trace set,
// every second pass records spans, so traced and untraced passes of one
// run give the tracing overhead. want holds the committed outcomes for the
// default seed (nil otherwise).
func runBatch(jobs []job, seconds float64, trace bool, want map[string]outcome, g *gate) *batchResult {
	br := &batchResult{jobs: jobs}
	first := make([]*outcome, len(jobs))
	tr := newTracer()
	minPasses := minBatchPasses
	if trace {
		minPasses = 2 * minBatchPasses
	}
	// One unmeasured pass lets lazy initialisation and the heap settle; its
	// outputs are checked like every other pass.
	runPass(jobs, -1, nil, first, want, g)
	mem0 := readMem()
	start := time.Now()
	for p := 0; p < minPasses || time.Since(start).Seconds() < seconds; p++ {
		var ptr *tracer
		if trace && p%2 == 1 {
			ptr = tr
		}
		br.passes = append(br.passes, runPass(jobs, p, ptr, first, want, g))
	}
	br.wallNS = int64(time.Since(start))
	br.mem = readMem().sub(mem0)
	br.spans = tr.snapshot()
	return br
}

// runPass runs every job once: build the machine from its spec, run the
// workload, check the output.
func runPass(jobs []job, p int, tr *tracer, first []*outcome, want map[string]outcome, g *gate) batchPass {
	bp := batchPass{traced: tr != nil, jobRun: make([]int64, len(jobs))}
	t0 := time.Now()
	for i, j := range jobs {
		trace := fmt.Sprintf("pass%d/%s", p, j.Name)
		jid := tr.start(trace, 0, "job")

		sid := tr.start(trace, jid, "setup")
		var (
			m     *diva.Machine
			w     diva.Workload
			err   error
			build []float64
		)
		for r := 0; r < setupReps && err == nil; r++ {
			ts := time.Now()
			m, w, err = diva.FromSpec(j.Spec)
			build = append(build, float64(time.Since(ts)))
		}
		bp.setupNS += int64(median(build))
		tr.end(sid)
		if err != nil {
			tr.end(jid)
			g.op(fmt.Errorf("%s: setup: %w", j.Name, err))
			continue
		}

		rid := tr.start(trace, jid, "run")
		tr0 := time.Now()
		res, err := w.Run(m, nil)
		d := int64(time.Since(tr0))
		tr.end(rid)
		bp.runNS += d
		bp.jobRun[i] = d

		cid := tr.start(trace, jid, "check")
		if err == nil {
			got := capture(m, res)
			bp.counts.add(got.Counts)
			err = checkJob(j, got, &first[i], want)
		}
		tr.end(cid)
		tr.end(jid)
		if err != nil {
			err = fmt.Errorf("%s: pass %d: %w", j.Name, p, err)
		}
		g.op(err)
	}
	bp.wallNS = int64(time.Since(t0))
	return bp
}

// checkJob applies the output gate to one job's outcome: a requested check
// must pass, every pass must repeat the first exactly (counts included),
// and at the default seed the first must equal the committed outcome.
func checkJob(j job, got outcome, first **outcome, want map[string]outcome) error {
	if j.Spec.Workload.Check && !got.Verified {
		return fmt.Errorf("output check failed")
	}
	if *first != nil {
		if diff := (*first).same(got); diff != "" {
			return fmt.Errorf("drift from the first pass: %s", diff)
		}
		return nil
	}
	*first = &got
	if want != nil {
		w, ok := want[j.Name]
		if !ok {
			return fmt.Errorf("no committed outcome for the default seed")
		}
		if diff := w.same(got); diff != "" {
			return fmt.Errorf("differs from the committed outcome: %s", diff)
		}
	}
	return nil
}

// endToEnd reports the batch workload's end-to-end metrics. An op is one
// job. A pass gives one sample of each job, far too few for a tail
// percentile over single runs, so a job's latency is its median Workload.Run
// time over the passes, and the latency percentiles are taken over those
// per-job medians: op_p90_ms is the slowest job of the list.
func (br *batchResult) endToEnd(g *gate) metrics {
	var setup, pass []float64
	for _, p := range br.passes {
		setup = append(setup, float64(p.setupNS)/1e9)
		pass = append(pass, float64(p.runNS)/1e9)
	}
	return opMetrics(median(setup), median(pass), br.jobMedians(), g)
}

// jobMedians is each job's median Workload.Run time in milliseconds.
func (br *batchResult) jobMedians() []float64 {
	out := make([]float64, len(br.jobs))
	for i := range br.jobs {
		var xs []float64
		for _, p := range br.passes {
			xs = append(xs, float64(p.jobRun[i])/1e6)
		}
		out[i] = median(xs)
	}
	return out
}

// perLayer reports the traced run's per-layer metrics.
func (br *batchResult) perLayer() metrics {
	mt := metrics{}
	self := selfTimes(br.spans)
	type perPass struct{ setup, run, job, check float64 }
	byPass := map[string]*perPass{}
	jobRun := map[string][]float64{}
	for i, s := range br.spans {
		pass, name := splitTrace(s.Trace)
		pp := byPass[pass]
		if pp == nil {
			pp = &perPass{}
			byPass[pass] = pp
		}
		ms := float64(self[i]) / 1e6
		switch s.Name {
		case "setup":
			pp.setup += ms
		case "run":
			pp.run += ms
			jobRun[name] = append(jobRun[name], float64(self[i])/1e9)
		case "job":
			pp.job += ms
		case "check":
			pp.check += ms
		}
	}
	var setup, run, jobSelf, check []float64
	for _, pp := range byPass {
		setup = append(setup, pp.setup)
		run = append(run, pp.run)
		jobSelf = append(jobSelf, pp.job)
		check = append(check, pp.check)
	}
	mt.set("self.setup_ms", median(setup))
	mt.set("self.run_ms", median(run))
	mt.set("self.job_ms", median(jobSelf))
	mt.set("self.check_ms", median(check))
	for _, j := range br.jobs {
		mt.set("run."+j.Name+"_s", median(jobRun[j.Name]))
	}

	var traced, untraced, build, nsEvent, nsHop []float64
	for _, p := range br.passes {
		if !p.traced {
			untraced = append(untraced, float64(p.wallNS))
			continue
		}
		traced = append(traced, float64(p.wallNS))
		build = append(build, float64(p.setupNS)/1e6)
		nsEvent = append(nsEvent, ratio(float64(p.runNS), float64(p.counts.Events)))
		nsHop = append(nsHop, ratio(float64(p.runNS), float64(p.counts.LinkHops)))
	}
	mt.set("setup.from_spec_ms", median(build))
	mt.setCounts(br.passes[0].counts)
	mt.set("sim.ns_per_event", median(nsEvent))
	mt.set("mesh.ns_per_hop", median(nsHop))
	mt.set("trace.overhead_pct", 100*(median(traced)-median(untraced))/median(untraced))
	mt.setMem(br.mem, float64(len(br.passes)), float64(len(br.passes)))
	return mt
}

// report prints the human-readable summary that precedes the result line.
func (br *batchResult) report(workload string) {
	fmt.Printf("%s: %d passes over %d jobs in %.2f s\n", workload, len(br.passes), len(br.jobs), float64(br.wallNS)/1e9)
	for i, ms := range br.jobMedians() {
		fmt.Printf("  %-20s run p50 %8.2f ms over %d samples\n", br.jobs[i].Name, ms, len(br.passes))
	}
}
