// Command perfbench is the repository's performance benchmark. It drives
// the active-time solvers through one of three workloads and prints, as the
// last line of standard output, one JSON object with the fields correct,
// attempted, failed and metrics.
//
// Usage (from the repository root; run.sh builds and starts it):
//
//	bash perfbench/run.sh --workload solve|churn|serve --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) wraps every call into a layer's public function in a span,
// reports the per-layer metrics derived from those spans and the tracing
// overhead, and writes the spans to .bench_build/perfbench/. README.md
// describes the workloads, the metrics and which layer metric should move
// which end-to-end metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	root     string // repository checkout the benchmark builds and writes in
	out      string // root/.bench_build/perfbench: spans, logs, untraced results
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// report is the outcome of one workload run.
type report struct {
	e2e   map[string]float64 // end-to-end metrics by name
	layer map[string]float64 // per-layer metrics (traced runs only)
	tally tally
	// summary holds human-readable lines for standard error, naming each
	// figure by its workload-specific meaning.
	summary []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.summary = append(r.summary, fmt.Sprintf(format, args...))
}

// scaleTimes converts the run's raw end-to-end times to reference speed
// (see speed.go); a closed loop's throughput scales inversely, while an open
// loop's goodput is set by its offered rate and stays raw.
func (r *report) scaleTimes(p *speedProbe, closedLoop bool) {
	k := p.scale()
	for _, defs := range [][]metricDef{e2eMetrics, tailMetrics} {
		for _, m := range defs {
			if m.unit == "ms" || m.unit == "s" {
				r.e2e[m.name] *= k
			}
		}
	}
	if closedLoop {
		r.e2e["goodput_per_s"] /= k
	}
	r.layer["machine.ref_ms"] = p.refMS()
	r.note("  reference kernel median %.2f ms over %d samples (nominal %.1f ms); end-to-end times scaled to it",
		p.refMS(), len(p.samples), refNominalMS)
	r.note("  at reference speed: light_p90_ms %.1f  heavy_p90_ms %.1f  tail_ms %.1f (not gated)",
		r.e2e["light_p90_ms"], r.e2e["heavy_p90_ms"], r.e2e["tail_ms"])
}

type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload. Each workload has a light and
// a heavy operation class (solve: rounding vs minimal feasible; churn: add
// vs remove; serve: add and undo vs remove); README.md gives the mapping.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"light_p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// tailMetrics are the latency tails every workload also measures. Across
// workload seeds on a shared 2-vCPU VM their quartile spread reached
// 0.22–0.27 of the median in churn and serve, more than the 0.25 a bound
// may allow, so they are not end-to-end metrics: the untraced run prints
// them on standard error and the traced run reports them as latency.*.
var tailMetrics = []metricDef{
	{"light_p90_ms", "ms"},
	{"heavy_p90_ms", "ms"},
	{"tail_ms", "ms"},
}

// layerMetrics are reported by every traced run. A layer the workload does
// not call reports 0: no work was done there.
var layerMetrics = []metricDef{
	{"lp.pivots", "count"},
	{"lp.refactors", "count"},
	{"lp.forced_refactors", "count"},
	{"lp.ft_updates", "count"},
	{"lp.hyper_share", "ratio"},
	{"lp.row_refills", "count"},
	{"lp.cold_fallbacks", "count"},
	{"lp.us_per_pivot", "us"},
	{"activetime.SolveLP_ms", "ms"},
	{"activetime.rounds", "count"},
	{"activetime.cuts", "count"},
	{"activetime.purged", "count"},
	{"activetime.cuts_per_round", "ratio"},
	{"activetime.RoundLP_self_ms", "ms"},
	{"rounding.flow_checks", "count"},
	{"rounding.proxy_carries", "count"},
	{"rounding.cold_flows", "count"},
	{"rounding.repairs", "count"},
	{"solve.round_ratio", "ratio"},
	{"activetime.MinimalFeasible_ms", "ms"},
	{"flow.augments", "count"},
	{"flow.cold_flows", "count"},
	{"minimal.free_close_ratio", "ratio"},
	{"solve.minimal_ratio", "ratio"},
	{"core.VerifyActive_ms", "ms"},
	{"alloc_mb.SolveLP", "MB"},
	{"alloc_mb.RoundLP", "MB"},
	{"alloc_mb.MinimalFeasible", "MB"},
	{"session.AddJobs_ms", "ms"},
	{"session.RemoveJobs_ms", "ms"},
	{"session.Solve_after_add_ms", "ms"},
	{"session.Solve_after_remove_ms", "ms"},
	{"session.pivots_after_add", "count"},
	{"session.pivots_after_remove", "count"},
	{"session.first_solve_ms", "ms"},
	{"session.cold_fallbacks", "count"},
	{"session.warm_remove_ratio", "ratio"},
	{"activeserve.cache_hit_ratio", "ratio"},
	{"activeserve.coalesced_ratio", "ratio"},
	{"activeserve.cpu_ms_per_req", "ms"},
	{"activeserve.cold_rebuilds", "count"},
	{"activeserve.overloads", "count"},
	{"activeserve.deadlines", "count"},
	{"activeserve.cold_fallbacks", "count"},
	{"serve.add_p50_ms", "ms"},
	{"serve.undo_p50_ms", "ms"},
	{"serve.remove_p50_ms", "ms"},
	{"serve.get_p50_ms", "ms"},
	{"serve.p50_all_ms", "ms"},
	{"serve.resp_kb", "KB"},
	{"serve.gen_late_ms", "ms"},
	{"latency.light_p90_ms", "ms"},
	{"latency.heavy_p90_ms", "ms"},
	{"latency.tail_ms", "ms"},
	{"harness.fail_ratio", "ratio"},
	{"trace.bookkeeping_ms", "ms"},
	{"machine.ref_ms", "ms"},
	{"trace.delta.setup_s", "s"},
	{"trace.delta.light_p50_ms", "ms"},
	{"trace.delta.heavy_p50_ms", "ms"},
	{"trace.delta.goodput_per_s", "1/s"},
	{"trace.delta.peak_rss_mb", "MB"},
}

var workloads = map[string]func(context.Context, config, *tracer) (*report, error){
	"solve": runSolve,
	"churn": runChurn,
	"serve": runServe,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: solve, churn or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to build from and write in")
	flag.Parse()
	work, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	cfg.out = filepath.Join(cfg.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	key, err := runKey(cfg)
	if err != nil {
		return err
	}
	untracedPath := filepath.Join(cfg.out, fmt.Sprintf("untraced-%s-seed%d.json", cfg.workload, cfg.seed))
	if traceFlag != 1 {
		rep, err := work(ctx, cfg, nil)
		if err != nil {
			return err
		}
		if err := saveUntraced(untracedPath, untraced{key, rep.e2e}); err != nil {
			return err
		}
		return emit(rep, e2eMetrics, rep.e2e)
	}

	// The overhead is this run's end-to-end figures minus those of an
	// untraced run of the same binary, seed and length: the latest one of
	// this seed in this checkout if it matches, or a fresh one.
	base, err := loadUntraced(untracedPath)
	if err != nil || base.Key != key {
		fmt.Fprintln(os.Stderr, "perfbench: no untraced result of this binary, seed and length; running the workload untraced first")
		rep, err := work(ctx, cfg, nil)
		if err != nil {
			return err
		}
		base = untraced{key, rep.e2e}
	}
	tr := newTracer()
	rep, err := work(ctx, cfg, tr)
	if err != nil {
		return err
	}
	for _, m := range e2eMetrics {
		rep.layer["trace.delta."+m.name] = rep.e2e[m.name] - base.E2E[m.name]
	}
	for _, m := range tailMetrics {
		rep.layer["latency."+m.name] = rep.e2e[m.name]
	}
	rep.layer["trace.bookkeeping_ms"] = ms(tr.bookkeeping)
	rep.layer["harness.fail_ratio"] = rep.tally.failRatio()
	spansPath := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spansPath); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(tr.spans), spansPath)
	return emit(rep, layerMetrics, rep.layer)
}

// untraced is an untraced run's end-to-end result, saved for the traced
// run's overhead figures. Key names the binary, seed and length it is for.
type untraced struct {
	Key string             `json:"key"`
	E2E map[string]float64 `json:"e2e"`
}

// runKey identifies a run's code and inputs: a hash of the benchmark binary
// (which links the repository's solvers; serve rebuilds activeserve from the
// same tree), the workload seed and the measured seconds.
func runKey(cfg config) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x seed=%d seconds=%d", h.Sum(nil), cfg.seed, cfg.seconds), nil
}

func saveUntraced(path string, u untraced) error {
	b, err := json.Marshal(u)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func loadUntraced(path string) (untraced, error) {
	var u untraced
	b, err := os.ReadFile(path)
	if err != nil {
		return u, err
	}
	return u, json.Unmarshal(b, &u)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the human summary to standard error and the result line to
// standard output. Every metric in defs must have a finite value.
func emit(rep *report, defs []metricDef, values map[string]float64) error {
	if rep.tally.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	res := result{
		Correct:   rep.tally.wrong == 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, line := range rep.summary {
		fmt.Fprintln(os.Stderr, line)
	}
	fmt.Fprintf(os.Stderr, "operations: %d attempted, %d failed (%d wrong outputs), fail_ratio %.4g\n",
		rep.tally.attempted, rep.tally.failed, rep.tally.wrong, rep.tally.failRatio())
	for _, r := range rep.tally.reasons {
		fmt.Fprintln(os.Stderr, "  failure:", r)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// peakRSSMB returns the VmHWM (peak resident set) of a process in MB; pid
// "self" is the benchmark itself.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
