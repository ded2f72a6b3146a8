// Command perfbench is the repository's benchmark. It runs one workload
// through the simulator's public API — diva.FromSpec, Workload.Run,
// Machine.Snapshot, diva.Fork, snapstore and the serve handler over
// loopback HTTP — checks every output, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload dsm-sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures with tracing off and prints the end-to-end metrics;
// --trace 1 records spans in every second pass and prints the per-layer
// metrics. README.md describes the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"diva"
)

// workDir holds what a run leaves behind (trace files); snapshot stores
// live there only while a run lasts. It is relative to the working
// directory, the repository root.
const workDir = ".bench_build/perfbench"

// expectedJSON holds the committed outcomes at defaultSeed, per workload
// and job; regenerate it with -write-expected after an intended change of
// simulated results.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile map[string]map[string]outcome

func main() {
	workload := flag.String("workload", "", "workload: dsm-sweep, msgpass-sweep, reactive-faults or serve-fork")
	seed := flag.Uint64("seed", defaultSeed, "seed the generated inputs derive from")
	seconds := flag.Float64("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1: record spans and print the per-layer metrics")
	writeExpected := flag.String("write-expected", "", "run every workload once at the default seed, write the outcomes to this file and exit")
	flag.Parse()

	if *writeExpected != "" {
		if err := writeExpectedFile(*writeExpected); err != nil {
			fatal(err)
		}
		return
	}
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fatal(fmt.Errorf("expected.json: %w", err))
	}
	var want map[string]outcome
	if *seed == defaultSeed {
		want = exp[*workload]
		if want == nil {
			want = map[string]outcome{} // every job then fails the gate
		}
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}

	traced := *trace == 1
	g := &gate{}
	var mt metrics
	var spans []span
	switch *workload {
	case wlDSM, wlMsgPass, wlReactive:
		br := runBatch(batchJobs(*workload, *seed), *seconds, traced, want, g)
		br.report(*workload)
		spans = br.spans
		if traced {
			mt = br.perLayer()
		} else {
			mt = br.endToEnd(g)
		}
	case wlServe:
		sr, err := runServe(workDir, *seed, *seconds, traced, want, g, runtime.NumCPU())
		if err != nil {
			fatal(err)
		}
		sr.report()
		spans = sr.spans
		if traced {
			mt = sr.perLayer()
		} else {
			mt = sr.endToEnd(g)
		}
	default:
		fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames))
	}
	if traced {
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := writeSpans(path, spans); err != nil {
			fatal(err)
		}
		fmt.Printf("%d spans written to %s\n", len(spans), path)
	}
	for _, r := range g.reasons {
		fmt.Println("FAILED:", r)
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	correct := g.failed == 0
	if err := printResult(correct, g, defs, mt); err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

// printResult prints the result line: every metric of defs, by name, with
// its unit.
func printResult(correct bool, g *gate, defs []metricDef, mt metrics) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, g.attempted, g.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{mt[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeExpectedFile records one pass of every workload at the default
// seed. It refuses to write outcomes that failed a check.
func writeExpectedFile(path string) error {
	exp := expectedFile{}
	for _, w := range []string{wlDSM, wlMsgPass, wlReactive} {
		exp[w] = map[string]outcome{}
		for _, j := range batchJobs(w, defaultSeed) {
			m, wl, err := diva.FromSpec(j.Spec)
			if err != nil {
				return err
			}
			res, err := wl.Run(m, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", j.Name, err)
			}
			got := capture(m, res)
			if j.Spec.Workload.Check && !got.Verified {
				return fmt.Errorf("%s: output check failed", j.Name)
			}
			exp[w][j.Name] = got
		}
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "oracle-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o, err := newOracle(newServeMix(defaultSeed), dir)
	if err != nil {
		return err
	}
	exp[wlServe] = map[string]outcome{}
	for i, name := range o.names {
		if !o.want[i].Verified {
			return fmt.Errorf("%s: output check failed", name)
		}
		exp[wlServe][name] = o.want[i]
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
