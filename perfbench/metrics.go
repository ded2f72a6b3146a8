package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json, which a test checks: with --trace 0 every endToEndDefs
// metric is printed, with --trace 1 every perLayerDefs metric (0 where a
// layer does not apply to the workload).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"pass_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"setup.from_spec_ms", "ms", "lower"},
		{"spec.validate_us", "us", "lower"},
	}
	for _, w := range []string{wlDSM, wlMsgPass, wlReactive} {
		for _, j := range batchJobs(w, defaultSeed) {
			defs = append(defs, metricDef{"run." + j.Name + "_s", "s", "lower"})
		}
	}
	return append(defs, []metricDef{
		{"self.job_ms", "ms", "lower"},
		{"self.setup_ms", "ms", "lower"},
		{"self.run_ms", "ms", "lower"},
		{"self.check_ms", "ms", "lower"},
		{"self.client.request_ms", "ms", "lower"},
		{"self.serve.handler_ms", "ms", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.fused_deliveries", "count", "higher"},
		{"sim.two_stage_deliveries", "count", "lower"},
		{"sim.fused_busy_recv", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"mesh.sends", "count", "lower"},
		{"mesh.send_bytes", "bytes", "lower"},
		{"mesh.link_hops", "count", "lower"},
		{"mesh.link_bytes", "bytes", "lower"},
		{"mesh.ns_per_hop", "ns", "lower"},
		{"app.msgs", "count", "lower"},
		{"core.barrier_msgs", "count", "lower"},
		{"protocol.msgs", "count", "lower"},
		{"protocol.bytes", "bytes", "lower"},
		{"transport.ack_msgs", "count", "lower"},
		{"transport.retransmits", "count", "lower"},
		{"transport.dup_drops", "count", "lower"},
		{"transport.false_timeouts", "count", "lower"},
		{"transport.false_timeout_ratio", "ratio", "lower"},
		{"transport.useful_retransmit_ratio", "ratio", "higher"},
		{"fault.rerouted", "count", "lower"},
		{"fault.detected", "count", "lower"},
		{"fault.failovers", "count", "lower"},
		{"fault.reissues", "count", "lower"},
		{"snapshot.capture_us", "us", "lower"},
		{"fork.p50_us", "us", "lower"},
		{"fork.p99_us", "us", "lower"},
		{"fork.samples", "count", "higher"},
		{"snapstore.save_ms", "ms", "lower"},
		{"snapstore.load_ms", "ms", "lower"},
		{"snapstore.file_bytes", "bytes", "lower"},
		{"serve.handler_p50_ms", "ms", "lower"},
		{"serve.transport_ms", "ms", "lower"},
		{"serve.run_p50_ms", "ms", "lower"},
		{"serve.rejected_429", "count", "lower"},
		{"serve.panics", "count", "lower"},
		{"serve.timeouts", "count", "lower"},
		{"op.p99_ms", "ms", "lower"},
		{"op.samples", "count", "higher"},
		{"go.alloc_mb", "MB", "lower"},
		{"go.gc_cycles", "count", "lower"},
		{"go.gc_pause_ms", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
	}...)
}()

// metrics holds measured values by metric name.
type metrics map[string]float64

func (mt metrics) set(name string, v float64) { mt[name] = v }

// setCounts reports the per-layer work counts of one pass.
func (mt metrics) setCounts(c counts) {
	for name, v := range map[string]uint64{
		"sim.events":               c.Events,
		"sim.fused_deliveries":     c.FusedDeliveries,
		"sim.two_stage_deliveries": c.TwoStageDeliveries,
		"sim.fused_busy_recv":      c.FusedBusyRecv,
		"mesh.sends":               c.Sends,
		"mesh.send_bytes":          c.SendBytes,
		"mesh.link_hops":           c.LinkHops,
		"mesh.link_bytes":          c.LinkBytes,
		"app.msgs":                 c.AppMsgs,
		"core.barrier_msgs":        c.BarrierMsgs,
		"protocol.msgs":            c.ProtocolMsgs,
		"protocol.bytes":           c.ProtocolBytes,
		"transport.ack_msgs":       c.AckMsgs,
		"transport.retransmits":    c.Retransmits,
		"transport.dup_drops":      c.DupDrops,
		"transport.false_timeouts": c.FalseTimeouts,
		"fault.rerouted":           c.Rerouted,
		"fault.detected":           c.Detected,
		"fault.failovers":          c.Failovers,
		"fault.reissues":           c.Reissues,
	} {
		mt.set(name, float64(v))
	}
	mt.set("transport.false_timeout_ratio", ratio(float64(c.FalseTimeouts), float64(c.Retransmits)))
	mt.set("transport.useful_retransmit_ratio",
		ratio(float64(c.Retransmits)-float64(c.DupDrops), float64(c.Retransmits)))
}

// opMetrics assembles the end-to-end metrics every workload reports. An op
// is a job (batch) or a request (serve-fork); lat holds op latencies in
// milliseconds.
func opMetrics(setupS, passS float64, lat []float64, g *gate) metrics {
	p50, _ := percentile(lat, 50)
	p90, _ := percentile(lat, 90)
	return metrics{
		"setup_s":     setupS,
		"pass_s":      passS,
		"op_p50_ms":   p50,
		"op_p90_ms":   p90,
		"peak_rss_mb": peakRSSMB(),
		"ok_ratio":    ratio(float64(g.ok()), float64(g.attempted)),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitTrace splits a span's trace id "<pass>/<op>".
func splitTrace(trace string) (pass, op string) {
	pass, op, _ = strings.Cut(trace, "/")
	return pass, op
}

// memDelta is the Go runtime's allocation and GC work over an interval.
type memDelta struct {
	allocBytes, numGC, pauseNS uint64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

func (d memDelta) sub(o memDelta) memDelta {
	return memDelta{d.allocBytes - o.allocBytes, d.numGC - o.numGC, d.pauseNS - o.pauseNS}
}

// setMem reports allocation per op and GC work per pass.
func (mt metrics) setMem(d memDelta, ops, passes float64) {
	mt.set("go.alloc_mb", ratio(float64(d.allocBytes)/(1<<20), ops))
	mt.set("go.gc_cycles", ratio(float64(d.numGC), passes))
	mt.set("go.gc_pause_ms", ratio(float64(d.pauseNS)/1e6, passes))
}

// peakRSSMB is the process's peak resident set (VmHWM). The benchmark
// runs one workload per process, so the whole peak is the workload's.
// Where /proc is missing it falls back to the memory the Go runtime
// obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
