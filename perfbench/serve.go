package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cameo/internal/runner"
	"cameo/internal/server"
	"cameo/internal/sweepapi"
)

// servePlan sizes the serve-cached workload. Zero clients means one per
// CPU.
type servePlan struct {
	benchmarks []string
	seeds      int
	cores      int
	instr      uint64
	clients    int
	setupReps  int
}

// defaultServePlan asks for CAMEO on five benchmarks at four seeds: 20
// cells, small enough that filling the cache is a set-up cost while the
// served path (cache loads, decoding, JSON) is the one every size shares.
var defaultServePlan = servePlan{
	benchmarks: []string{"mcf", "lbm", "milc", "gcc", "sphinx3"},
	seeds:      4, cores: 8, instr: 100_000, setupReps: 7,
}

func (p servePlan) clientCount() int {
	if p.clients > 0 {
		return p.clients
	}
	return runtime.NumCPU()
}

// request is the sweep every client sends; its seeds derive from the run's.
func (p servePlan) request(seed uint64) sweepapi.Request {
	values := make([]uint64, p.seeds)
	for i := range values {
		values[i] = seed + uint64(i)
	}
	return sweepapi.Request{Org: "cameo", Benchmarks: p.benchmarks, Sweep: "seed", Values: values, Instr: p.instr, Cores: p.cores}
}

// seqHeader numbers each request so the traced pass can pair the client's
// latency with the handler's time.
const seqHeader = "X-Perfbench-Seq"

// serveInstance is one cameod server on loopback over one disk cache.
type serveInstance struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer serves over disk; cache and wrap, when non-nil, decorate the
// runner's cache tier and the HTTP handler.
func startServer(disk *runner.DiskCache, clients int, cache runner.Cache, wrap func(http.Handler) http.Handler) (*serveInstance, error) {
	srv, err := server.New(server.Options{
		Jobs: runtime.NumCPU(), MaxInflight: clients, MaxQueue: clients, Disk: disk, Cache: cache,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &serveInstance{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/sweep", done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serving goroutine and drains
// the server, which closes its disk cache.
func (s *serveInstance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Drain())
}

// post sends one sweep and returns the status and body.
func post(ctx context.Context, c *http.Client, url string, body []byte, seq int) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// filled is a server whose cache holds every cell of the request.
type filled struct {
	dir  string
	inst *serveInstance
	body []byte // the request
	want []byte // the response the fill produced
	// instr is the simulated instruction count over the response's cells.
	instr uint64
	cells int
}

// fill starts a server over a fresh cache and sends the request once, so
// that every cell is simulated and stored.
func fill(ctx context.Context, env runEnv, p servePlan) (*filled, error) {
	dir, err := os.MkdirTemp(env.dir, "serve-")
	if err != nil {
		return nil, err
	}
	disk, err := runner.OpenDiskCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	inst, err := startServer(disk, p.clientCount(), nil, nil)
	if err != nil {
		disk.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	f := &filled{dir: dir, inst: inst}
	f.body, err = json.Marshal(p.request(env.seed))
	if err == nil {
		err = f.check(ctx, p)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *filled) check(ctx context.Context, p servePlan) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	status, body, err := post(ctx, &http.Client{Transport: tr}, f.inst.url, f.body, -1)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("filling the cache: status %d: %s", status, body)
	}
	var resp sweepapi.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if want := len(p.benchmarks) * p.seeds; len(resp.Cells) != want || len(resp.Failures) > 0 {
		return fmt.Errorf("filling the cache: %d of %d cells, %d failures", len(resp.Cells), want, len(resp.Failures))
	}
	for _, c := range resp.Cells {
		f.instr += c.Instructions
	}
	f.cells = len(resp.Cells)
	f.want = body
	return nil
}

func (f *filled) close() error {
	var err error
	if f.inst != nil {
		err = f.inst.stop()
	}
	return errors.Join(err, os.RemoveAll(f.dir))
}

// sample is one request of the closed loop.
type sample struct {
	seq   int
	lat   float64       // seconds, client-observed
	end   time.Duration // completion, since the loop started
	ok    bool
	notes string
}

// closedLoop runs clients goroutines, each on its own keep-alive
// connection, sending the next request only when the previous one has been
// answered, until d has passed. Every response must equal want.
func closedLoop(ctx context.Context, url string, body, want []byte, clients int, d time.Duration) []sample {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				if ctx.Err() != nil {
					return
				}
				seq := c<<32 | n
				t0 := time.Now()
				status, got, err := post(ctx, client, url, body, seq)
				s := sample{seq: seq, lat: time.Since(t0).Seconds(), end: time.Since(start)}
				switch {
				case err != nil:
					s.notes = err.Error()
				case status != http.StatusOK:
					s.notes = fmt.Sprintf("status %d", status)
				case !bytes.Equal(got, want):
					s.notes = "response differs from the cells written during fill"
				default:
					s.ok = true
				}
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// tally counts samples into out and returns their latencies.
func tally(out *outcome, samples []sample) []float64 {
	lats := make([]float64, 0, len(samples))
	for _, s := range samples {
		out.attempted++
		lats = append(lats, s.lat)
		if !s.ok {
			out.fail(1, "request %d: %s", s.seq, s.notes)
		}
	}
	return lats
}

// ratePerSecond is the median number of completions per whole second of
// the loop, which a burst of host load moves less than the overall mean.
// Runs shorter than two seconds use the overall mean.
func ratePerSecond(samples []sample, d time.Duration) float64 {
	windows := int(d / time.Second)
	if windows < 2 {
		var elapsed time.Duration
		for _, s := range samples {
			elapsed = max(elapsed, s.end)
		}
		return float64(len(samples)) / elapsed.Seconds()
	}
	counts := make([]float64, windows)
	for _, s := range samples {
		if w := int(s.end / time.Second); w < windows {
			counts[w]++
		}
	}
	return median(counts)
}

func runServe(ctx context.Context, env runEnv, p servePlan) (*outcome, error) {
	var pin *servePin
	if env.pins != nil {
		pin = env.pins.Serve
	}
	// Set-up is starting a server over a fresh disk cache and filling it
	// with the request's cells; the last of the repetitions is kept.
	var f *filled
	setup := &setupClock{fn: func() error {
		if f != nil {
			if err := f.close(); err != nil {
				return err
			}
		}
		var err error
		f, err = fill(ctx, env, p)
		return err
	}}
	if err := setup.run(p.setupReps); err != nil {
		if f != nil {
			f.close()
		}
		return nil, err
	}
	defer f.close()
	out := &outcome{pin: &servePin{Response: digest(f.want)}}
	if pin != nil && digest(f.want) != pin.Response {
		out.attempted++
		out.fail(1, "filled response digest %s differs from the pinned %s", digest(f.want), pin.Response)
	}
	if env.trace {
		return traceServe(ctx, env, p, f, out)
	}

	startPass()
	mem := readMem()
	samples := closedLoop(ctx, f.inst.url, f.body, f.want, p.clientCount(), env.seconds)
	lats := tally(out, samples)
	out.passes = len(samples)
	rate := ratePerSecond(samples, env.seconds)
	out.metrics = map[string]float64{
		"setup_s":          median(setup.times),
		"wall_s":           median(lats),
		"sim_minstr_per_s": rate * float64(f.instr) / 1e6,
		"cells_per_s":      rate * float64(f.cells),
		"req_per_s":        rate,
		"req_p50_ms":       median(lats) * 1e3,
		"req_p75_ms":       quantile(lats, 0.75) * 1e3,
		"peak_rss_mb":      peakRSSMB(),
		"alloc_kb_per_op":  float64(readMem().alloc-mem.alloc) / 1024 / float64(len(samples)),
	}
	return out, nil
}

// timedHandler records how long the service spends on each request,
// keyed by the client's sequence number.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	ns   map[int]int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := clock()
	h.next.ServeHTTP(w, r)
	d := clock() - start
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	if err != nil {
		return
	}
	h.mu.Lock()
	h.ns[seq] = d
	h.mu.Unlock()
}

// traceServe serves half the time untraced, then restarts the server over
// the same cache with the cache tier and handler timed and serves the
// other half. Both halves must answer every request with the filled cells.
func traceServe(ctx context.Context, env runEnv, p servePlan, f *filled, out *outcome) (*outcome, error) {
	half := env.seconds / 2
	mem := readMem()
	untraced := closedLoop(ctx, f.inst.url, f.body, f.want, p.clientCount(), half)
	var gcCycles, gcPause float64
	mem.gcSince(&gcCycles, &gcPause)
	err := f.inst.stop()
	f.inst = nil
	if err != nil {
		return nil, err
	}
	disk, err := runner.OpenDiskCache(f.dir)
	if err != nil {
		return nil, err
	}
	loads := &timedCache{Cache: disk}
	handler := &timedHandler{ns: map[int]int64{}}
	f.inst, err = startServer(disk, p.clientCount(), loads, func(h http.Handler) http.Handler {
		handler.next = h
		return handler
	})
	if err != nil {
		disk.Close()
		return nil, err
	}
	traced := closedLoop(ctx, f.inst.url, f.body, f.want, p.clientCount(), half)

	untracedLats := tally(out, untraced)
	tracedLats := tally(out, traced)
	out.passes = len(untraced) + len(traced)
	var handlerMS, transportMS []float64
	for _, s := range traced {
		if ns, ok := handler.ns[s.seq]; ok {
			handlerMS = append(handlerMS, float64(ns)/1e6)
			transportMS = append(transportMS, s.lat*1e3-float64(ns)/1e6)
		}
	}
	buildNS, err := timeBuildGrid(p.request(env.seed))
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"runner.cache.load_ns_per_call": ratio(float64(loads.loadNS), float64(loads.loads)),
		"sweepapi.build_grid_ns":        buildNS,
		"server.handler_p50_ms":         median(handlerMS),
		"http.transport_p50_ms":         median(transportMS),
		"gc.cycles":                     ratio(gcCycles, float64(len(untraced))),
		"gc.pause_ms":                   ratio(gcPause, float64(len(untraced))),
		"trace.overhead_s":              mean(tracedLats) - mean(untracedLats),
		"trace.clock_ns":                calibrateClock(),
	}
	fillLayerMetrics(m)
	out.metrics = m
	return out, nil
}

// timeBuildGrid returns the median cost of one sweepapi.BuildGrid call over
// batches of calls.
func timeBuildGrid(req sweepapi.Request) (float64, error) {
	const batches, calls = 21, 200
	var per []float64
	for range batches {
		start := clock()
		for range calls {
			if _, err := sweepapi.BuildGrid(req, 0); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(clock()-start)/calls)
	}
	return median(per), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
