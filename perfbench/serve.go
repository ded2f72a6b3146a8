package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diva"
	"diva/serve"
	"diva/snapstore"
)

const (
	// serveSetups is how often a run sets the server up; setup_s is the
	// median.
	serveSetups = 15
	// passRequests is the request list of one serve-fork pass: eight of
	// each of the five mix entries.
	passRequests = 40
	minServePass = 6
	// The traced run's direct measurements of the serve layers.
	validateRounds = 200
	forkRounds     = 300
	runRounds      = 20
	storeRounds    = 5
)

// Headers carrying the client span to the handler middleware.
const (
	hdrTrace  = "X-Bench-Trace"
	hdrParent = "X-Bench-Parent"
)

// oracle holds what every /v1/run response must equal: the outcome of a
// direct diva.Fork + Workload.Run of the same spec, per mix entry.
type oracle struct {
	specs []diva.Spec      // normalized, mix order (Base, then Snapshot merged onto Warm)
	snaps []*diva.Snapshot // the snapshot each entry forks
	want  []outcome
	names []string
	total counts // one run of every entry
}

// newOracle builds the base machines and the warmed machine directly,
// persists and reloads the warmed one through snapstore, and runs every
// mix entry on a fork.
func newOracle(sm serveMix, dir string) (*oracle, error) {
	o := &oracle{}
	for _, j := range sm.Base {
		n := j.Spec.Normalized()
		m, err := diva.MachineFromSpec(n, diva.WithConcurrent(true))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Name, err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("%s: snapshot: %w", j.Name, err)
		}
		o.add(j.Name, n, snap)
	}
	warm, err := warmSnapshot(sm.Warm)
	if err != nil {
		return nil, err
	}
	st, err := snapstore.Open(dir)
	if err != nil {
		return nil, err
	}
	handle := snapstore.Handle(sm.Warm)
	if err := st.Save(handle, sm.Warm.Normalized(), warm); err != nil {
		return nil, fmt.Errorf("snapstore save: %w", err)
	}
	stored, loaded, err := st.Load(handle, diva.WithConcurrent(true))
	if err != nil {
		return nil, fmt.Errorf("snapstore load: %w", err)
	}
	for _, j := range sm.Snapshot {
		merged := stored
		merged.Workload = j.Spec.Workload
		o.add(j.Name, merged.Normalized(), loaded)
	}
	for i := range o.specs {
		got, _, err := o.run(i)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.names[i], err)
		}
		o.want = append(o.want, got)
		o.total.add(got.Counts)
	}
	return o, nil
}

func (o *oracle) add(name string, n diva.Spec, snap *diva.Snapshot) {
	o.names = append(o.names, name)
	o.specs = append(o.specs, n)
	o.snaps = append(o.snaps, snap)
}

// run forks entry i's snapshot and runs its workload, as the server does.
func (o *oracle) run(i int) (outcome, int64, error) {
	t0 := time.Now()
	m, err := diva.Fork(o.snaps[i], diva.ForkConcurrent(true))
	if err != nil {
		return outcome{}, 0, err
	}
	w, err := diva.WorkloadFromSpec(o.specs[i])
	if err != nil {
		return outcome{}, 0, err
	}
	res, err := w.Run(m, nil)
	if err != nil {
		return outcome{}, 0, err
	}
	d := int64(time.Since(t0))
	return capture(m, res), d, nil
}

// warmSnapshot builds sp's machine, runs its workload and captures it.
func warmSnapshot(sp diva.Spec) (*diva.Snapshot, error) {
	m, w, err := diva.FromSpec(sp.Normalized(), diva.WithConcurrent(true))
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, err := w.Run(m, nil); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return m.Snapshot()
}

// checkResponse is the output gate for one /v1/run answer.
func checkResponse(status int, body []byte, want outcome) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	c := want.Congestion
	switch {
	case rr.Fingerprint != want.Fingerprint:
		return fmt.Errorf("fingerprint %s, direct run %s", rr.Fingerprint, want.Fingerprint)
	case rr.ElapsedUS != want.ElapsedUS:
		return fmt.Errorf("elapsed %v us, direct run %v", rr.ElapsedUS, want.ElapsedUS)
	case rr.Events != want.Counts.Events:
		return fmt.Errorf("events %d, direct run %d", rr.Events, want.Counts.Events)
	case rr.Congestion != serve.Cong{MaxMsgs: c.MaxMsgs, MaxBytes: c.MaxBytes, TotalMsgs: c.TotalMsgs, TotalBytes: c.TotalBytes}:
		return fmt.Errorf("congestion %+v, direct run %+v", rr.Congestion, c)
	case !rr.Verified:
		return fmt.Errorf("output check failed")
	}
	return nil
}

// handlerTimer is the benchmark's middleware around the server's handler:
// in traced passes it records a serve.handler span under the client's.
type handlerTimer struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	var id int64
	if tr != nil {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		id = tr.start(r.Header.Get(hdrTrace), parent, "serve.handler")
	}
	h.next.ServeHTTP(w, r)
	tr.end(id)
}

// liveServer is an in-process serve.Server on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	mw     *handlerTimer
	dir    string
	url    string
	handle string
	done   chan struct{}
}

// startServer starts a server with nproc workers and a fresh snapshot
// directory, warms and persists the mix's snapshot, and builds every base
// machine with one request each. That is serve-fork's timed setup.
func startServer(root string, nproc int, client *http.Client, sm serveMix, o *oracle) (*liveServer, error) {
	dir, err := os.MkdirTemp(root, "snapstore-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Workers: nproc, SnapshotDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ls := &liveServer{srv: srv, mw: &handlerTimer{next: srv.Handler()}, dir: dir,
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	ls.hs = &http.Server{Handler: ls.mw, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) // returns http.ErrServerClosed at shutdown
	}()

	body, _ := json.Marshal(sm.Warm)
	status, resp, err := post(client, ls.url+"/v1/snapshots", body, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, resp)
	}
	var sr serve.SnapshotResponse
	if err == nil {
		err = json.Unmarshal(resp, &sr)
	}
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("warm snapshot: %w", err)
	}
	ls.handle = sr.Handle
	for i, j := range sm.Base {
		body, _ := json.Marshal(j.Spec)
		status, resp, err := post(client, ls.url+"/v1/run", body, nil)
		if err == nil {
			err = checkResponse(status, resp, o.want[i])
		}
		if err != nil {
			ls.close()
			return nil, fmt.Errorf("first build of %s: %w", j.Name, err)
		}
	}
	return ls, nil
}

// close stops the listener, drains the server and removes its snapshots.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.done
	ls.srv.Drain(10 * time.Second)
	os.RemoveAll(ls.dir)
}

// healthz reads the server's hardening counters.
func (ls *liveServer) healthz(client *http.Client) (rejected, panics, timeouts int64, err error) {
	resp, err := client.Get(ls.url + "/v1/healthz")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	var h struct{ Rejected, Panics, Timeouts int64 }
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, 0, err
	}
	return h.Rejected, h.Panics, h.Timeouts, nil
}

// post sends one JSON body and returns the status and the whole reply.
func post(client *http.Client, url string, body []byte, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// newClient keeps at most nproc connections to the server.
func newClient(nproc int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		Timeout:   60 * time.Second,
	}
}

// target is one mix entry as the client sends it.
type target struct {
	url  string
	body []byte
	want outcome
}

// loadPass sends reqs through nproc closed-loop clients, each sending its
// next request only after the previous reply, and returns the latency of
// every request in milliseconds.
func loadPass(client *http.Client, targets []target, reqs []int, nproc, pass int, tr *tracer, g *gate) []float64 {
	work := make(chan int, len(reqs))
	for i := range reqs {
		work <- i
	}
	close(work)
	lat := make([]float64, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t := targets[reqs[i]]
				trace := fmt.Sprintf("pass%d/req%d", pass, i)
				id := tr.start(trace, 0, "client.request")
				var hdr http.Header
				if tr != nil {
					hdr = http.Header{hdrTrace: {trace}, hdrParent: {strconv.FormatInt(id, 10)}}
				}
				t0 := time.Now()
				status, body, err := post(client, t.url, t.body, hdr)
				lat[i] = float64(time.Since(t0)) / 1e6
				tr.end(id)
				if err == nil {
					err = checkResponse(status, body, t.want)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			err = fmt.Errorf("request %d of pass %d: %w", i, pass, err)
		}
		g.op(err)
	}
	return lat
}

// serveResult is serve-fork's measurement.
type serveResult struct {
	setupS []float64
	passS  []float64 // per pass
	traced []bool    // per pass
	lat    []float64 // every request, ms
	wallNS int64
	spans  []span
	mem    memDelta
	oracle *oracle
	layers metrics // the traced run's direct layer measurements
}

// runServe runs the serve-fork workload.
func runServe(root string, seed uint64, seconds float64, trace bool, want map[string]outcome, g *gate, nproc int) (*serveResult, error) {
	sm := newServeMix(seed)
	odir, err := os.MkdirTemp(root, "oracle-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(odir)
	o, err := newOracle(sm, odir)
	if err != nil {
		return nil, fmt.Errorf("direct runs: %w", err)
	}
	if want != nil {
		for i, name := range o.names {
			var err error
			if w, ok := want[name]; !ok {
				err = fmt.Errorf("%s: no committed outcome for the default seed", name)
			} else if diff := w.same(o.want[i]); diff != "" {
				err = fmt.Errorf("%s: direct run differs from the committed outcome: %s", name, diff)
			}
			g.op(err)
		}
	}

	client := newClient(nproc)
	defer client.CloseIdleConnections()
	sr := &serveResult{oracle: o}
	var ls *liveServer
	for i := 0; i < serveSetups; i++ {
		if ls != nil {
			ls.close()
		}
		t0 := time.Now()
		ls, err = startServer(root, nproc, client, sm, o)
		if err != nil {
			return nil, err
		}
		sr.setupS = append(sr.setupS, time.Since(t0).Seconds())
	}
	defer ls.close()

	var targets []target
	for i, j := range sm.Base {
		body, _ := json.Marshal(j.Spec)
		targets = append(targets, target{ls.url + "/v1/run", body, o.want[i]})
	}
	for i, j := range sm.Snapshot {
		body, _ := json.Marshal(diva.Spec{Workload: j.Spec.Workload})
		targets = append(targets, target{ls.url + "/v1/run?snapshot=" + ls.handle, body, o.want[len(sm.Base)+i]})
	}
	reqs := sm.requests(seed, passRequests)

	// One unmeasured pass warms connections and the heap; its answers are
	// checked like every other.
	loadPass(client, targets, reqs, nproc, -1, nil, g)
	tr := newTracer()
	mem0 := readMem()
	start := time.Now()
	for p := 0; p < minServePass || time.Since(start).Seconds() < seconds; p++ {
		var ptr *tracer
		if trace && p%2 == 1 {
			ptr = tr
		}
		ls.mw.tr.Store(ptr)
		t0 := time.Now()
		sr.lat = append(sr.lat, loadPass(client, targets, reqs, nproc, p, ptr, g)...)
		sr.passS = append(sr.passS, time.Since(t0).Seconds())
		sr.traced = append(sr.traced, ptr != nil)
	}
	sr.wallNS = int64(time.Since(start))
	sr.mem = readMem().sub(mem0)
	ls.mw.tr.Store(nil)
	sr.spans = tr.snapshot()

	rejected, panics, timeouts, err := ls.healthz(client)
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	if trace {
		sr.layers, err = measureServeLayers(o, sm, odir)
		if err != nil {
			return nil, err
		}
		sr.layers.set("serve.rejected_429", float64(rejected))
		sr.layers.set("serve.panics", float64(panics))
		sr.layers.set("serve.timeouts", float64(timeouts))
	}
	return sr, nil
}

// measureServeLayers times the layers under /v1/run directly, outside the
// server: spec validation, machine construction, snapshot capture, fork,
// fork+run, and snapstore persistence.
func measureServeLayers(o *oracle, sm serveMix, dir string) (metrics, error) {
	mt := metrics{}

	var validate []float64
	for r := 0; r < validateRounds; r++ {
		for _, sp := range o.specs {
			t0 := time.Now()
			err := sp.Validate()
			_ = sp.Normalized()
			validate = append(validate, float64(time.Since(t0))/1e3)
			if err != nil {
				return nil, err
			}
		}
	}
	mt.set("spec.validate_us", median(validate))

	var build, capt []float64
	for r := 0; r < storeRounds; r++ {
		var sum float64
		for _, j := range sm.Base {
			t0 := time.Now()
			m, err := diva.MachineFromSpec(j.Spec.Normalized(), diva.WithConcurrent(true))
			sum += float64(time.Since(t0)) / 1e6
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := m.Snapshot(); err != nil {
				return nil, err
			}
			capt = append(capt, float64(time.Since(t1))/1e3)
		}
		build = append(build, sum)
	}
	mt.set("setup.from_spec_ms", median(build))
	mt.set("snapshot.capture_us", median(capt))

	var fork []float64
	for r := 0; r < forkRounds; r++ {
		for _, snap := range o.snaps {
			t0 := time.Now()
			if _, err := diva.Fork(snap, diva.ForkConcurrent(true)); err != nil {
				return nil, err
			}
			fork = append(fork, float64(time.Since(t0))/1e3)
		}
	}
	p50, _ := percentile(fork, 50)
	p99, n := percentile(fork, 99)
	mt.set("fork.p50_us", p50)
	mt.set("fork.p99_us", p99)
	mt.set("fork.samples", float64(n))

	var run, nsEvent, nsHop []float64
	for r := 0; r < runRounds; r++ {
		var sumNS int64
		for i := range o.specs {
			got, d, err := o.run(i)
			if err != nil {
				return nil, err
			}
			if diff := o.want[i].same(got); diff != "" {
				return nil, fmt.Errorf("%s: direct rerun drifted: %s", o.names[i], diff)
			}
			run = append(run, float64(d)/1e6)
			sumNS += d
		}
		nsEvent = append(nsEvent, ratio(float64(sumNS), float64(o.total.Events)))
		nsHop = append(nsHop, ratio(float64(sumNS), float64(o.total.LinkHops)))
	}
	mt.set("serve.run_p50_ms", median(run))
	mt.set("sim.ns_per_event", median(nsEvent))
	mt.set("mesh.ns_per_hop", median(nsHop))

	warm, err := warmSnapshot(sm.Warm)
	if err != nil {
		return nil, err
	}
	st, err := snapstore.Open(filepath.Join(dir, "layers"))
	if err != nil {
		return nil, err
	}
	handle := snapstore.Handle(sm.Warm)
	var save, load []float64
	for r := 0; r < storeRounds; r++ {
		t0 := time.Now()
		if err := st.Save(handle, sm.Warm.Normalized(), warm); err != nil {
			return nil, err
		}
		save = append(save, float64(time.Since(t0))/1e6)
		t1 := time.Now()
		if _, _, err := st.Load(handle, diva.WithConcurrent(true)); err != nil {
			return nil, err
		}
		load = append(load, float64(time.Since(t1))/1e6)
	}
	mt.set("snapstore.save_ms", median(save))
	mt.set("snapstore.load_ms", median(load))
	// The store directory holds this one snapshot file.
	des, err := os.ReadDir(st.Dir())
	if err != nil {
		return nil, err
	}
	var size int64
	for _, de := range des {
		fi, err := de.Info()
		if err != nil {
			return nil, err
		}
		size += fi.Size()
	}
	mt.set("snapstore.file_bytes", float64(size))
	return mt, nil
}

// endToEnd reports serve-fork's end-to-end metrics. An op is one /v1/run
// request; its latency is the client's, from send to the last body byte.
func (sr *serveResult) endToEnd(g *gate) metrics {
	return opMetrics(median(sr.setupS), median(sr.passS), sr.lat, g)
}

// perLayer reports the traced run's per-layer metrics.
func (sr *serveResult) perLayer() metrics {
	mt := sr.layers
	self := selfTimes(sr.spans)
	var client, handler, clientSelf, handlerSelf []float64
	for i, s := range sr.spans {
		d := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "client.request":
			client = append(client, d)
			clientSelf = append(clientSelf, float64(self[i])/1e6)
		case "serve.handler":
			handler = append(handler, d)
			handlerSelf = append(handlerSelf, float64(self[i])/1e6)
		}
	}
	mt.set("serve.handler_p50_ms", median(handler))
	mt.set("serve.transport_ms", median(client)-median(handler))
	mt.set("self.client.request_ms", median(clientSelf))
	mt.set("self.serve.handler_ms", median(handlerSelf))
	mt.setCounts(sr.oracle.total)

	var traced, untraced []float64
	for i, s := range sr.passS {
		if sr.traced[i] {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	mt.set("trace.overhead_pct", 100*(median(traced)-median(untraced))/median(untraced))
	p99, n := percentile(sr.lat, 99)
	mt.set("op.p99_ms", p99)
	mt.set("op.samples", float64(n))
	mt.setMem(sr.mem, float64(len(sr.lat)), float64(len(sr.passS)))
	return mt
}

// report prints the human-readable summary that precedes the result line.
func (sr *serveResult) report() {
	p50, n := percentile(sr.lat, 50)
	p99, _ := percentile(sr.lat, 99)
	fmt.Printf("%s: %d requests in %d passes over %.2f s; latency p50 %.3f ms, p99 %.3f ms\n",
		wlServe, n, len(sr.passS), float64(sr.wallNS)/1e9, p50, p99)
	for i, name := range sr.oracle.names {
		fmt.Printf("  %-20s fingerprint %s (direct fork+run)\n", name, sr.oracle.want[i].Fingerprint)
	}
}
