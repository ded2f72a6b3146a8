package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"diva/serve"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{50, 3}, {20, 1}, {21, 2}, {99, 5}, {100, 5}} {
		v, n := percentile(xs, c.q)
		if v != c.want || n != 5 {
			t.Errorf("percentile(%v) = %v over %d, want %v over 5", c.q, v, n, c.want)
		}
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("empty sample: %v over %d, want 0 over 0", v, n)
	}
	// Two clusters of equal size: the median is a measured value, never a
	// point between the clusters.
	if v := median([]float64{1, 1, 9, 9}); v != 1 {
		t.Errorf("median of two clusters = %v, want 1", v)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Trace: "a", ID: 1, Name: "job", Start: 0, End: 100},
		{Trace: "a", ID: 2, Parent: 1, Name: "run", Start: 10, End: 50},
		{Trace: "a", ID: 3, Parent: 1, Name: "run", Start: 30, End: 70},    // overlaps 2
		{Trace: "a", ID: 4, Parent: 1, Name: "check", Start: 90, End: 120}, // outlives its parent
		{Trace: "a", ID: 5, Parent: 3, Name: "inner", Start: 40, End: 45},
	}
	got := selfTimes(spans)
	// job: 100 − |[10,70) ∪ [90,100)| = 100 − 70 = 30.
	want := []int64{30, 40, 35, 30, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerIsNoOpWhenNil(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, "job")
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded a span")
	}
}

// TestGateCountsRejectedAndWrongAnswers drives the serve-fork client loop
// against a fake server that answers 429, a wrong fingerprint, or the
// right answer, and checks that exactly the first two count as failed.
func TestGateCountsRejectedAndWrongAnswers(t *testing.T) {
	want := outcome{Fingerprint: "0x00000000000000aa", ElapsedUS: 12, Verified: true}
	var n atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rr := serve.RunResponse{Fingerprint: want.Fingerprint, ElapsedUS: want.ElapsedUS, Verified: true}
		switch r.URL.Query().Get("answer") {
		case "429":
			n.Add(1)
			http.Error(w, `{"error":"server saturated"}`, http.StatusTooManyRequests)
			return
		case "wrong":
			rr.Fingerprint = "0x00000000000000bb"
		}
		json.NewEncoder(w).Encode(rr)
	}))
	defer fake.Close()

	targets := []target{
		{url: fake.URL + "/v1/run?answer=ok", want: want},
		{url: fake.URL + "/v1/run?answer=429", want: want},
		{url: fake.URL + "/v1/run?answer=wrong", want: want},
	}
	g := &gate{}
	lat := loadPass(fake.Client(), targets, []int{0, 1, 2, 0, 1, 0}, 2, 0, nil, g)
	if g.attempted != 6 || g.failed != 3 || len(lat) != 6 {
		t.Fatalf("attempted %d failed %d latencies %d, want 6, 3, 6 (reasons %q)",
			g.attempted, g.failed, len(lat), g.reasons)
	}
	if n.Load() != 2 {
		t.Errorf("fake server saw %d rejected requests, want 2", n.Load())
	}
	if ok := opMetrics(1, 1, lat, g)["ok_ratio"]; ok != 0.5 {
		t.Errorf("ok_ratio = %v, want 0.5", ok)
	}
}

func TestCheckJobFailsOnDriftAndUncheckedOutput(t *testing.T) {
	j := job{Name: "m"}
	j.Spec.Workload.Check = true
	a := outcome{Fingerprint: "0x1", Verified: true, Counts: counts{Events: 10}}
	var first *outcome
	if err := checkJob(j, a, &first, nil); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if err := checkJob(j, a, &first, nil); err != nil {
		t.Errorf("identical pass: %v", err)
	}
	drift := a
	drift.Counts.Events++
	if err := checkJob(j, drift, &first, nil); err == nil {
		t.Error("a count that drifted between passes passed the gate")
	}
	bad := a
	bad.Verified = false
	if err := checkJob(j, bad, &first, nil); err == nil {
		t.Error("a failed output check passed the gate")
	}
	var fresh *outcome
	if err := checkJob(j, a, &fresh, map[string]outcome{"m": drift}); err == nil {
		t.Error("an outcome differing from the committed one passed the gate")
	}
}

func TestSeedChangesSpecsNotJobList(t *testing.T) {
	for _, w := range []string{wlDSM, wlMsgPass, wlReactive} {
		a, b := batchJobs(w, 1), batchJobs(w, 2)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d jobs", w, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name {
				t.Errorf("%s: job %d is %s at seed 1, %s at seed 2", w, i, a[i].Name, b[i].Name)
			}
			if a[i].Spec.Seed == b[i].Spec.Seed {
				t.Errorf("%s/%s: seed 2 did not change the spec seed", w, a[i].Name)
			}
			sa, sb := a[i].Spec, b[i].Spec
			sa.Seed, sb.Seed = 0, 0
			if !reflect.DeepEqual(sa, sb) {
				t.Errorf("%s/%s: seed changed more than the spec seed", w, a[i].Name)
			}
			if err := a[i].Spec.Validate(); err != nil {
				t.Errorf("%s/%s: %v", w, a[i].Name, err)
			}
		}
	}
	ma, mb := newServeMix(1), newServeMix(2)
	if len(ma.Base) != len(mb.Base) || len(ma.Snapshot) != len(mb.Snapshot) || ma.Warm.Seed == mb.Warm.Seed {
		t.Error("serve mix: seed changed the entries or left the warm seed alone")
	}
	ra, rb := ma.requests(1, passRequests), mb.requests(2, passRequests)
	if reflect.DeepEqual(ra, rb) {
		t.Error("serve mix: seed did not change the request order")
	}
	share := func(r []int) map[int]int {
		c := map[int]int{}
		for _, i := range r {
			c[i]++
		}
		return c
	}
	if !reflect.DeepEqual(share(ra), share(rb)) {
		t.Errorf("serve mix: seed changed the share of each entry: %v vs %v", share(ra), share(rb))
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metrics and
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end %v\ncode has %v", b.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerDefs) {
		t.Errorf("per_layer %v\ncode has %v", b.PerLayer, perLayerDefs)
	}
}
