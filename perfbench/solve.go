package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
	"repro/internal/gen"
)

// The canonical scaling family of ROADMAP item 1: gen.LargeHorizon at
// density n = T/8 with MaxLen 16 and g = 4, over instance seeds 1..8. The
// instance seeds are fixed so that every run measures the same seed
// distribution (pivot counts vary 3.7x across them); the workload seed
// orders the visits and, in churn and serve, draws the deltas and requests.
const (
	familyMaxLen = 16
	familyG      = 4
	numInstances = 8
	solveT       = 4096
	solveN       = 512
	setupReps    = 21
	// roundReps is how many times each visit runs the rounding pipeline.
	// Rounding takes a quarter of the time of minimal feasible, and the
	// slowest seed's median (the pivot-cliff metric) needs several samples
	// per seed to be steady.
	roundReps = 3
)

func largeHorizon(T, n int, seed int64) *core.Instance {
	return gen.LargeHorizon(gen.RandomConfig{N: n, Horizon: T, MaxLen: familyMaxLen, G: familyG, Seed: seed})
}

// familyInstances returns instance seeds 1..numInstances of the family.
func familyInstances(T, n int) []*core.Instance {
	out := make([]*core.Instance, numInstances)
	for k := range out {
		out[k] = largeHorizon(T, n, int64(k+1))
	}
	return out
}

// runSolve drives each instance, closed loop and one at a time, through the
// two pipelines of the paper: LP1 + rounding (Theorem 2, checked against
// 2*LP) and minimal feasible (Theorem 1), each followed by the schedule
// verifier. Every pass visits all eight instances in a seeded order; the
// first pass always completes, later passes run until the time is up. Each
// timed pipeline starts from a collected heap (the speed probe's sample
// collects it), so one call's garbage is not charged to the next.
func runSolve(ctx context.Context, cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	var setups []float64
	var insts []*core.Instance
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		insts = familyInstances(solveT, solveN)
		setups = append(setups, time.Since(t0).Seconds())
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	probe := newSpeedProbe()
	round := map[int64][]float64{}
	minimal := map[int64][]float64{}
	var openedR, openedM, lpSum float64
	verified := 0
	// busy is the time spent in the timed pipelines: throughput is taken
	// over it, leaving out the harness's heap collections, kernel samples
	// and, in the traced run, the LP probes.
	var busy time.Duration
	start := time.Now()
	deadline := start.Add(cfg.duration())
	visit := 0
passes:
	for pass := 0; ; pass++ {
		for _, k := range rng.Perm(numInstances) {
			if pass > 0 && time.Now().After(deadline) {
				break passes
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			seed, in := int64(k+1), insts[k]
			visit++
			if tr != nil {
				probeLP(tr, in, visit)
			}

			for r := 0; r < roundReps; r++ {
				probe.sample()
				op := tr.newOp()
				t0 := time.Now()
				var rr *activetime.RoundingResult
				var err error
				tr.op("solve.round", op, func(parent int) { rr, err = roundPipeline(tr, parent, op, visit, in) })
				busy += time.Since(t0)
				round[seed] = append(round[seed], ms(time.Since(t0)))
				if err != nil {
					rep.tally.fail(true, fmt.Sprintf("seed %d: %v", seed, err))
					continue
				}
				rep.tally.ok()
				verified++
				if pass == 0 && r == 0 {
					openedR += float64(rr.Opened)
					lpSum += rr.LPValue
				}
			}

			probe.sample()
			op := tr.newOp()
			t0 := time.Now()
			var mr *activetime.MinimalResult
			var err error
			tr.op("solve.minimal", op, func(parent int) { mr, err = minimalPipeline(tr, parent, op, in) })
			busy += time.Since(t0)
			minimal[seed] = append(minimal[seed], ms(time.Since(t0)))
			if err != nil {
				rep.tally.fail(true, fmt.Sprintf("seed %d: %v", seed, err))
			} else {
				rep.tally.ok()
				verified++
				if pass == 0 {
					openedM += float64(len(mr.Schedule.Open))
				}
			}
		}
	}
	elapsed := time.Since(start)

	roundSeeds, minimalSeeds := perSeedMedians(round), perSeedMedians(minimal)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["light_p50_ms"] = median(roundSeeds)
	rep.e2e["light_p90_ms"] = percentile(roundSeeds, 90)
	rep.e2e["heavy_p50_ms"] = median(minimalSeeds)
	rep.e2e["heavy_p90_ms"] = percentile(minimalSeeds, 90)
	rep.e2e["tail_ms"] = maxOf(roundSeeds)
	rep.e2e["goodput_per_s"] = float64(verified) / busy.Seconds()
	rep.e2e["peak_rss_mb"] = rss

	rep.note("solve: T=%d n=%d MaxLen=%d g=%d, instance seeds 1..%d, %d visits in %.1fs; raw times:",
		solveT, solveN, familyMaxLen, familyG, numInstances, visit, elapsed.Seconds())
	rep.note("  round_p50_ms %.1f  round_p90_ms %.1f  round_worst_seed_ms %.1f  (per-seed medians %s)",
		rep.e2e["light_p50_ms"], rep.e2e["light_p90_ms"], rep.e2e["tail_ms"], fmtList(roundSeeds))
	rep.note("  minimal_p50_ms %.1f  minimal_p90_ms %.1f  (per-seed medians %s)",
		rep.e2e["heavy_p50_ms"], rep.e2e["heavy_p90_ms"], fmtList(minimalSeeds))
	rep.note("  round_ratio %.4f  minimal_ratio %.4f  (sum opened / sum LP over the eight seeds)",
		openedR/lpSum, openedM/lpSum)
	rep.scaleTimes(probe, true)
	if tr != nil {
		solveLayers(rep, tr)
		rep.layer["solve.round_ratio"] = openedR / lpSum
		rep.layer["solve.minimal_ratio"] = openedM / lpSum
	}
	return rep, nil
}

// roundPipeline is instance → LP1 optimum → rounded schedule → verified
// schedule, with the Theorem 2 bound opened <= 2*LP checked.
func roundPipeline(tr *tracer, parent, op, visit int, in *core.Instance) (*activetime.RoundingResult, error) {
	var rr *activetime.RoundingResult
	var err error
	id := tr.call("activetime.RoundLP", parent, op, func() { rr, err = activetime.RoundLP(in) })
	if err != nil {
		return nil, fmt.Errorf("RoundLP: %w", err)
	}
	if tr != nil {
		tr.annotate(id, map[string]float64{
			"visit":         float64(visit),
			"flow_checks":   float64(rr.FlowChecks),
			"proxy_carries": float64(rr.ProxyCarries),
			"cold_flows":    float64(rr.ColdFlows),
			"repairs":       float64(rr.Repairs),
		})
	}
	tr.call("core.VerifyActive", parent, op, func() { err = core.VerifyActive(in, rr.Schedule) })
	if err != nil {
		return nil, fmt.Errorf("rounded schedule: %w", err)
	}
	if len(rr.Schedule.Open) != rr.Opened || float64(rr.Opened) > 2*rr.LPValue+1e-6 {
		return nil, fmt.Errorf("rounded schedule opens %d (reported %d) slots, above 2*LP = %.6f",
			len(rr.Schedule.Open), rr.Opened, 2*rr.LPValue)
	}
	return rr, nil
}

// minimalPipeline is instance → minimal feasible schedule → verified
// schedule.
func minimalPipeline(tr *tracer, parent, op int, in *core.Instance) (*activetime.MinimalResult, error) {
	var mr *activetime.MinimalResult
	var err error
	id := tr.call("activetime.MinimalFeasibleStats", parent, op, func() {
		mr, err = activetime.MinimalFeasibleStats(in, activetime.MinimalOptions{})
	})
	if err != nil {
		return nil, fmt.Errorf("MinimalFeasibleStats: %w", err)
	}
	if tr != nil {
		tr.annotate(id, map[string]float64{
			"probes":      float64(mr.Probes),
			"free_closes": float64(mr.FreeCloses),
			"augments":    float64(mr.FlowAugments),
			"cold_flows":  float64(mr.ColdFlows),
		})
	}
	tr.call("core.VerifyActive", parent, op, func() { err = core.VerifyActive(in, mr.Schedule) })
	if err != nil {
		return nil, fmt.Errorf("minimal schedule: %w", err)
	}
	return mr, nil
}

// probeLP runs SolveLP on its own, outside the timed pipelines, to read the
// LP layer's counters (RoundLP does not return them) and to split RoundLP's
// wall time into its LP and rounding parts.
func probeLP(tr *tracer, in *core.Instance, visit int) {
	op := tr.newOp()
	tr.op("solve.lp_probe", op, func(parent int) {
		var res *activetime.LPResult
		var err error
		id := tr.call("activetime.SolveLP", parent, op, func() { res, err = activetime.SolveLP(in) })
		if err == nil {
			c := lpCounters(res)
			c["visit"] = float64(visit)
			tr.annotate(id, c)
		}
	})
}

// lpCounters flattens the counters an LPResult carries.
func lpCounters(res *activetime.LPResult) map[string]float64 {
	k := res.Kernel
	return map[string]float64{
		"pivots":           float64(res.Pivots),
		"refactors":        float64(res.Refactors),
		"forced_refactors": float64(k.ForcedRefactors),
		"ft_updates":       float64(k.FTUpdates),
		"hyper":            float64(k.FtranHyper + k.BtranHyper),
		"solves":           float64(k.FtranHyper + k.BtranHyper + k.FtranDense + k.BtranDense),
		"row_refills":      float64(k.RowRefills),
		"cold_fallbacks":   float64(res.ColdFallbacks),
		"rounds":           float64(res.Rounds),
		"cuts":             float64(res.Cuts),
		"purged":           float64(res.Purged),
	}
}

// lpLayers derives the internal/lp and Benders-loop metrics from the named
// spans, each of which carries lpCounters.
func lpLayers(rep *report, tr *tracer, names ...string) {
	for _, key := range []string{"pivots", "refactors", "forced_refactors", "ft_updates", "row_refills"} {
		rep.layer["lp."+key] = median(tr.counter(key, names...))
	}
	rep.layer["lp.cold_fallbacks"] = tr.counterSum("cold_fallbacks", names...)
	rep.layer["lp.hyper_share"] = tr.counterSum("hyper", names...) / tr.counterSum("solves", names...)
	rep.layer["lp.us_per_pivot"] = sum(tr.durations(names...)) * 1000 / tr.counterSum("pivots", names...)
	for _, key := range []string{"rounds", "cuts", "purged"} {
		rep.layer["activetime."+key] = median(tr.counter(key, names...))
	}
	rep.layer["activetime.cuts_per_round"] = tr.counterSum("cuts", names...) / tr.counterSum("rounds", names...)
}

func solveLayers(rep *report, tr *tracer) {
	lpLayers(rep, tr, "activetime.SolveLP")
	rep.layer["activetime.SolveLP_ms"] = median(tr.durations("activetime.SolveLP"))

	lpByVisit := map[float64]float64{}
	for _, s := range tr.named("activetime.SolveLP") {
		lpByVisit[s.Counters["visit"]] = s.ms()
	}
	var self []float64
	for _, s := range tr.named("activetime.RoundLP") {
		if lpMS, ok := lpByVisit[s.Counters["visit"]]; ok {
			self = append(self, s.ms()-lpMS)
		}
	}
	rep.layer["activetime.RoundLP_self_ms"] = median(self)
	for _, key := range []string{"flow_checks", "proxy_carries", "cold_flows"} {
		rep.layer["rounding."+key] = median(tr.counter(key, "activetime.RoundLP"))
	}
	rep.layer["rounding.repairs"] = tr.counterSum("repairs", "activetime.RoundLP")

	const mf = "activetime.MinimalFeasibleStats"
	rep.layer["activetime.MinimalFeasible_ms"] = median(tr.durations(mf))
	rep.layer["flow.augments"] = median(tr.counter("augments", mf))
	rep.layer["flow.cold_flows"] = median(tr.counter("cold_flows", mf))
	rep.layer["minimal.free_close_ratio"] = tr.counterSum("free_closes", mf) / tr.counterSum("probes", mf)

	rep.layer["core.VerifyActive_ms"] = median(tr.durations("core.VerifyActive"))
	rep.layer["alloc_mb.SolveLP"] = median(tr.allocMB("activetime.SolveLP"))
	rep.layer["alloc_mb.RoundLP"] = median(tr.allocMB("activetime.RoundLP"))
	rep.layer["alloc_mb.MinimalFeasible"] = median(tr.allocMB(mf))
	rep.note("  traced: SolveLP %.1f ms (median), RoundLP self %.1f ms, MinimalFeasible %.1f ms, VerifyActive %.2f ms, %.0f pivots",
		rep.layer["activetime.SolveLP_ms"], rep.layer["activetime.RoundLP_self_ms"],
		rep.layer["activetime.MinimalFeasible_ms"], rep.layer["core.VerifyActive_ms"], rep.layer["lp.pivots"])
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.0f", x)
	}
	return s + "]"
}
