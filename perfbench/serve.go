package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
)

// The serve workload: cmd/activeserve as a subprocess on a loopback port,
// eight tenants of the scaling family at T = 2048, and an open-loop Poisson
// request stream at a fixed rate well below the server's knee (p95 latency
// climbs steeply from about 50 req/s with two connections on a 2-vCPU VM).
const (
	serveT         = 2048
	serveN         = 256
	serveBatch     = 4
	serveRate      = 20.0 // requests per second
	goodputLimit   = 250 * time.Millisecond
	serveSetupReps = 3
	// The reference kernel is timed in gaps of the stream at least
	// kernelGap long with no request in flight, at most every kernelEvery.
	kernelGap   = 60 * time.Millisecond
	kernelEvery = 500 * time.Millisecond
)

type reqKind int

const (
	kindAdd reqKind = iota
	kindUndo
	kindRemove
	kindGet
)

var kindNames = [...]string{"add", "undo", "remove", "get"}

// kindMix returns the request kinds of a stream of n requests in seeded
// random order, in exact proportion to the mix: 40% add, 20% undo, 15%
// remove, 25% GET solution.
func kindMix(rng *rand.Rand, n int) []reqKind {
	shares := [...]float64{0.40, 0.20, 0.15, 0.25}
	kinds := make([]reqKind, 0, n)
	cum := 0.0
	for k, share := range shares {
		cum += share
		for len(kinds) < int(math.Round(cum*float64(n))) {
			kinds = append(kinds, reqKind(k))
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// request is one planned request. Every field is fixed by the workload seed
// before the run starts; only whether an undo is sent depends on the run
// (its add must have been acknowledged).
type request struct {
	Due    time.Duration // from the start of the measured stream
	Tenant int
	Kind   reqKind
	Jobs   []core.Job // add: donor jobs with fresh IDs
	IDs    []int      // remove: live original jobs; undo: the reverted add's jobs
	Dep    int        // undo: index of the add it reverts; -1 otherwise
}

// makePlan draws the request stream: Poisson arrivals at serveRate over
// length, each with a uniform tenant and a kind from the mix. The stream
// has exactly rate × length arrivals at sorted uniform times (a Poisson
// process conditioned on its count) and kinds in exact proportion, so the
// seed moves when and where requests go but not how many of each kind are
// offered. An undo reverts the tenant's latest planned add not yet
// reverted; with none outstanding it is planned as an add instead. A
// remove takes random original jobs still live in the plan and never the
// tenant's last job with deadline T, so the served horizon stays T and every
// removed ID is live when its request is sent.
func makePlan(seed int64, tenants []*core.Instance, length time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	type tenantPlan struct {
		donor     *donor
		stack     []int // indices of planned adds not yet reverted
		originals *liveSet
		atT       int // live originals with deadline T
	}
	tps := make([]*tenantPlan, len(tenants))
	for i, in := range tenants {
		tp := &tenantPlan{
			donor:     &donor{T: serveT, n: serveN, seed: seed*1000 + int64(i) + 501, nextID: freshIDBase},
			originals: newLiveSet(in),
		}
		for _, j := range in.Jobs {
			if int(j.Deadline) == serveT {
				tp.atT++
			}
		}
		tps[i] = tp
	}
	n := int(math.Round(serveRate * length.Seconds()))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * length.Seconds()
	}
	sort.Float64s(times)
	reqs := make([]request, 0, n)
	for i, kind := range kindMix(rng, n) {
		r := request{
			Due:    time.Duration(times[i] * float64(time.Second)),
			Tenant: rng.Intn(len(tenants)),
			Kind:   kind,
			Dep:    -1,
		}
		tp := tps[r.Tenant]
		if r.Kind == kindUndo && len(tp.stack) == 0 {
			r.Kind = kindAdd
		}
		switch r.Kind {
		case kindAdd:
			r.Jobs = tp.donor.take(serveBatch)
			tp.stack = append(tp.stack, len(reqs))
		case kindUndo:
			r.Dep = tp.stack[len(tp.stack)-1]
			tp.stack = tp.stack[:len(tp.stack)-1]
			for _, j := range reqs[r.Dep].Jobs {
				r.IDs = append(r.IDs, j.ID)
			}
		case kindRemove:
			for _, i := range rng.Perm(len(tp.originals.jobs)) {
				j := tp.originals.jobs[i]
				if int(j.Deadline) == serveT {
					if tp.atT == 1 {
						continue
					}
					tp.atT--
				}
				r.IDs = append(r.IDs, j.ID)
				if len(r.IDs) == serveBatch {
					break
				}
			}
			for _, id := range r.IDs {
				tp.originals.remove(id)
			}
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// outcome is what happened to one planned request.
type outcome struct {
	done    chan struct{} // closed when the request has finished
	sent    bool
	status  int
	latMS   float64 // from due time to response
	lateMS  float64 // how late the generator launched it
	good    bool    // 2xx and the output checks passed
	applied bool    // the server applied the mutation (2xx or 504)
	bytes   int
	err     string
}

// solutionBody is the part of an activeserve solution the checks read.
type solutionBody struct {
	Objective float64   `json:"objective"`
	Y         []float64 `json:"y"`
}

type serveClient struct {
	base string
	http *http.Client
}

func (c *serveClient) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// server is a running activeserve subprocess.
type server struct {
	cmd    *exec.Cmd
	exited chan struct{}
	client *serveClient
}

// startServer starts the binary on a free loopback port the benchmark
// picks and waits until it answers /healthz.
func startServer(ctx context.Context, bin string, log io.Writer, conns int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = log, log
	// The server must not outlive the benchmark, even if the benchmark is
	// killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	s.client = &serveClient{
		base: "http://" + addr,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		if st, _, err := s.client.do(ctx, "GET", "/healthz", nil); err == nil && st == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, errors.New("activeserve exited during start-up")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("activeserve did not answer /healthz within 30s")
		}
	}
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
	s.client.http.CloseIdleConnections()
}

// metrics reads the server's /metrics counters.
func (s *server) metrics(ctx context.Context) (map[string]float64, error) {
	st, data, err := s.client.do(ctx, "GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", st)
	}
	var m map[string]float64
	return m, json.Unmarshal(data, &m)
}

// cpuMS returns the server's user+system CPU time from /proc/<pid>/stat,
// assuming the usual 100 ticks per second.
func (s *server) cpuMS() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) * 10, nil
}

// setupTenants registers every tenant and waits for its first solve.
func setupTenants(ctx context.Context, c *serveClient, tenants []*core.Instance) error {
	for i, in := range tenants {
		st, data, err := c.do(ctx, "PUT", fmt.Sprintf("/v1/tenants/t%d", i), in)
		if err != nil {
			return err
		}
		if st != http.StatusCreated {
			return fmt.Errorf("PUT tenant %d: status %d: %s", i, st, data)
		}
	}
	for i := range tenants {
		st, data, err := c.do(ctx, "GET", fmt.Sprintf("/v1/tenants/t%d/solution", i), nil)
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("first solve of tenant %d: status %d: %s", i, st, data)
		}
	}
	return nil
}

// buildServer builds cmd/activeserve from the checkout once, before any
// clock starts.
func buildServer(ctx context.Context, cfg config) (string, error) {
	bin := filepath.Join(cfg.out, "activeserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/activeserve")
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building activeserve: %w", err)
	}
	return bin, nil
}

func runServe(ctx context.Context, cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	bin, err := buildServer(ctx, cfg)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.out, "activeserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	// The generator is one process using at most nproc connections and
	// OS threads.
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)
	tenants := familyInstances(serveT, serveN)
	plan := makePlan(cfg.seed, tenants, cfg.duration())

	// Set up several times and keep the last server for the measurement.
	var setups []float64
	var srv *server
	for r := 0; r < serveSetupReps; r++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = startServer(ctx, bin, logf, conns)
		if err != nil {
			return nil, err
		}
		if err := setupTenants(ctx, srv.client, tenants); err != nil {
			srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	m0, err := srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}
	// The reference kernel runs only while the server is idle (see drive):
	// run beside the server it would also time the server's own load, so a
	// program change would move it.
	probe := newSpeedProbe()
	probe.sample()
	start := time.Now()
	outs := drive(ctx, srv.client, tr, plan, start, probe)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m1, err := srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}

	// Account every planned request, then check each tenant's final state
	// against a cold SolveLP of the benchmark's mirror of it.
	var light, heavy, all, late []float64
	var good []bool
	var span time.Duration // from the stream's start to its last response
	mutations, respBytes, responses := 0, 0, 0
	mirrors := make([]*liveSet, len(tenants))
	for i, in := range tenants {
		mirrors[i] = newLiveSet(in)
	}
	for i, r := range plan {
		o := outs[i]
		if r.Kind != kindGet {
			mutations++
		}
		if o.good {
			rep.tally.ok()
		} else {
			rep.tally.fail(o.status == http.StatusOK, fmt.Sprintf("%s t%d: %s", kindNames[r.Kind], r.Tenant, o.err))
		}
		if o.applied {
			for _, j := range r.Jobs {
				mirrors[r.Tenant].add(j)
			}
			for _, id := range r.IDs {
				mirrors[r.Tenant].remove(id)
			}
		}
		if !o.sent {
			continue
		}
		late = append(late, o.lateMS)
		if o.status == http.StatusOK {
			respBytes += o.bytes
			responses++
		}
		all = append(all, o.latMS)
		good = append(good, o.good)
		span = max(span, r.Due+time.Duration(o.latMS*float64(time.Millisecond)))
		switch r.Kind {
		case kindAdd, kindUndo:
			light = append(light, o.latMS)
		case kindRemove:
			heavy = append(heavy, o.latMS)
		}
	}
	for i := range tenants {
		rep.tally.check(finalTenantCheck(ctx, srv.client, i, mirrors[i]))
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["light_p50_ms"] = median(light)
	rep.e2e["light_p90_ms"] = percentile(light, 90)
	rep.e2e["heavy_p50_ms"] = median(heavy)
	rep.e2e["heavy_p90_ms"] = percentile(heavy, 90)
	rep.e2e["tail_ms"] = percentile(all, 90)
	rep.e2e["goodput_per_s"] = goodput(all, good, goodputLimit, span)
	rep.e2e["peak_rss_mb"] = rss

	delta := func(k string) float64 { return m1[k] - m0[k] }
	rep.note("serve: %d tenants (T=%d n=%d), %d connections, %d requests over %.0fs at %.0f req/s; raw times from due time:",
		len(tenants), serveT, serveN, conns, len(plan), cfg.duration().Seconds(), serveRate)
	rep.note("  add+undo p50 %.1f p90 %.1f ms  remove p50 %.1f p90 %.1f ms  all p50 %.1f p90 %.1f p95 %.1f ms",
		rep.e2e["light_p50_ms"], rep.e2e["light_p90_ms"], rep.e2e["heavy_p50_ms"], rep.e2e["heavy_p90_ms"],
		median(all), rep.e2e["tail_ms"], percentile(all, 95))
	rep.note("  goodput %.2f req/s (%d requests over %.2fs)", rep.e2e["goodput_per_s"], len(all), span.Seconds())
	rep.note("  generator lateness p99 %.2f ms; server solves %.0f, cache hits %.0f, coalesced %.0f, cold rebuilds %.0f",
		percentile(late, 99), delta("solves"), delta("cacheHits"), delta("coalesced"), delta("coldRebuilds"))
	rep.scaleTimes(probe, false)
	if tr != nil {
		for _, name := range kindNames {
			rep.layer["serve."+name+"_p50_ms"] = median(tr.durations("serve." + name))
		}
		rep.layer["serve.p50_all_ms"] = median(all)
		rep.layer["serve.resp_kb"] = float64(respBytes) / 1024 / float64(responses)
		rep.layer["serve.gen_late_ms"] = percentile(late, 99)
		rep.layer["activeserve.cache_hit_ratio"] = delta("cacheHits") / (delta("cacheHits") + delta("solves"))
		rep.layer["activeserve.coalesced_ratio"] = delta("coalesced") / float64(mutations)
		rep.layer["activeserve.cpu_ms_per_req"] = (cpu1 - cpu0) / float64(len(plan))
		rep.layer["activeserve.cold_rebuilds"] = delta("coldRebuilds")
		rep.layer["activeserve.overloads"] = delta("overloads")
		rep.layer["activeserve.deadlines"] = delta("deadlines")
		rep.layer["activeserve.cold_fallbacks"] = delta("coldFallbacks")
	}
	return rep, nil
}

// drive sends the plan open loop: each request leaves at its due time (an
// undo also waits for its add's response) and its latency is measured from
// the due time, so a stall is charged to every request it delays.
func drive(ctx context.Context, c *serveClient, tr *tracer, plan []request, start time.Time, probe *speedProbe) []*outcome {
	outs := make([]*outcome, len(plan))
	for i := range outs {
		outs[i] = &outcome{done: make(chan struct{})}
	}
	var wg sync.WaitGroup
	var inFlight atomic.Int32
	for i, r := range plan {
		due := start.Add(r.Due)
		// Time the kernel in this gap if the server goes idle early enough.
		for time.Since(probe.last) >= kernelEvery && time.Until(due) > kernelGap {
			if inFlight.Load() == 0 {
				probe.sample()
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(due)):
		}
		if ctx.Err() != nil {
			close(outs[i].done)
			continue
		}
		late := ms(time.Since(due))
		wg.Add(1)
		inFlight.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			defer inFlight.Add(-1)
			o := outs[i]
			defer close(o.done)
			o.lateMS = late
			if r.Dep >= 0 {
				dep := outs[r.Dep]
				<-dep.done
				if !dep.good {
					o.err = "not sent: the add it reverts was not acknowledged"
					return
				}
			}
			sendRequest(ctx, c, tr, r, o)
			o.latMS = ms(time.Since(due))
		}(i, r)
	}
	wg.Wait()
	return outs
}

func sendRequest(ctx context.Context, c *serveClient, tr *tracer, r request, o *outcome) {
	path := fmt.Sprintf("/v1/tenants/t%d", r.Tenant)
	method := "POST"
	var body any
	switch r.Kind {
	case kindAdd:
		path += "/jobs:add"
		body = map[string]any{"jobs": r.Jobs}
	case kindUndo, kindRemove:
		path += "/jobs:remove"
		body = map[string]any{"ids": r.IDs}
	case kindGet:
		path += "/solution"
		method = "GET"
	}
	var st int
	var data []byte
	var err error
	tr.op("serve."+kindNames[r.Kind], tr.newOp(), func(int) { st, data, err = c.do(ctx, method, path, body) })
	o.sent = true
	o.status = st
	o.bytes = len(data)
	if err != nil {
		o.err = err.Error()
		return
	}
	o.applied = r.Kind != kindGet && (st == http.StatusOK || st == http.StatusGatewayTimeout)
	if st != http.StatusOK {
		o.err = fmt.Sprintf("status %d: %s", st, bytes.TrimSpace(data))
		return
	}
	if _, err := checkSolution(data); err != nil {
		o.err = err.Error()
		return
	}
	o.good = true
}

// checkSolution decodes a 200 response and checks it: len(y) is the
// horizon + 1, each y in [0,1] and the objective is their sum.
func checkSolution(data []byte) (solutionBody, error) {
	var sol solutionBody
	if err := json.Unmarshal(data, &sol); err != nil {
		return sol, fmt.Errorf("decoding solution: %w", err)
	}
	return sol, checkLP(sol.Y, sol.Objective, serveT)
}

// finalTenantCheck compares a tenant's served optimum with a cold SolveLP
// of the benchmark's mirror of its instance.
func finalTenantCheck(ctx context.Context, c *serveClient, i int, mirror *liveSet) error {
	st, data, err := c.do(ctx, "GET", fmt.Sprintf("/v1/tenants/t%d/solution", i), nil)
	if err != nil {
		return fmt.Errorf("tenant %d final GET: %w", i, err)
	}
	if st != http.StatusOK {
		return fmt.Errorf("tenant %d final GET: status %d", i, st)
	}
	sol, err := checkSolution(data)
	if err != nil {
		return fmt.Errorf("tenant %d final GET: %w", i, err)
	}
	cold, err := activetime.SolveLP(mirror.instance())
	if err != nil {
		return fmt.Errorf("tenant %d cold SolveLP of the mirror: %w", i, err)
	}
	if math.Abs(cold.Objective-sol.Objective) > 1e-6 {
		return fmt.Errorf("tenant %d: served objective %.9f, cold SolveLP of the mirror %.9f", i, sol.Objective, cold.Objective)
	}
	return nil
}
