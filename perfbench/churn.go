package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
)

const (
	churnBatch      = 8   // jobs per AddJobs and per RemoveJobs
	churnMinSamples = 100 // per step kind, whatever --seconds says
	freshIDBase     = 1 << 20
)

// liveSet is the benchmark's own mirror of one instance under deltas: the
// live jobs in a deterministic order, so that seeded random picks repeat.
type liveSet struct {
	g    int
	jobs []core.Job
	pos  map[int]int // job ID → index in jobs
}

func newLiveSet(in *core.Instance) *liveSet {
	l := &liveSet{g: in.G, pos: map[int]int{}}
	for _, j := range in.Jobs {
		l.add(j)
	}
	return l
}

func (l *liveSet) add(j core.Job) {
	l.pos[j.ID] = len(l.jobs)
	l.jobs = append(l.jobs, j)
}

// remove deletes a live job by swapping the last job into its place.
func (l *liveSet) remove(id int) {
	i := l.pos[id]
	last := l.jobs[len(l.jobs)-1]
	l.jobs[i] = last
	l.pos[last.ID] = i
	l.jobs = l.jobs[:len(l.jobs)-1]
	delete(l.pos, id)
}

// pick returns k distinct random live IDs.
func (l *liveSet) pick(rng *rand.Rand, k int) []int {
	ids := make([]int, 0, k)
	for _, i := range rng.Perm(len(l.jobs))[:k] {
		ids = append(ids, l.jobs[i].ID)
	}
	return ids
}

func (l *liveSet) instance() *core.Instance {
	return &core.Instance{G: l.g, Jobs: append([]core.Job(nil), l.jobs...)}
}

func (l *liveSet) horizon() int {
	h := 0
	for _, j := range l.jobs {
		h = max(h, int(j.Deadline))
	}
	return h
}

// donor hands out jobs of a donor instance of the same family, renumbered
// with fresh IDs; it draws another donor instance when one runs out.
type donor struct {
	T, n   int
	seed   int64
	jobs   []core.Job
	nextID int
}

func (d *donor) take(k int) []core.Job {
	out := make([]core.Job, 0, k)
	for len(out) < k {
		if len(d.jobs) == 0 {
			d.jobs = largeHorizon(d.T, d.n, d.seed).Jobs
			d.seed += 1 << 32
		}
		j := d.jobs[0]
		d.jobs = d.jobs[1:]
		j.ID = d.nextID
		d.nextID++
		out = append(out, j)
	}
	return out
}

// checkLP checks an LP answer's shape: y has one entry per slot 0..horizon,
// each in [0,1], and the objective is their sum.
func checkLP(y []float64, objective float64, horizon int) error {
	if len(y) != horizon+1 {
		return fmt.Errorf("len(y) = %d, want horizon+1 = %d", len(y), horizon+1)
	}
	total := 0.0
	for t, v := range y {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("y[%d] = %g outside [0,1]", t, v)
		}
		total += v
	}
	if math.Abs(total-objective) > 1e-6*math.Max(1, objective) {
		return fmt.Errorf("objective %.9f != sum(y) %.9f", objective, total)
	}
	return nil
}

type churnSession struct {
	seed    int64
	sess    *activetime.Session
	live    *liveSet
	donor   *donor
	addNext bool
	add     []float64
	remove  []float64
}

// runChurn keeps one live activetime.Session per instance seed and steps
// them in seeded round-robin order; each session alternates AddJobs (donor
// jobs with fresh IDs) and RemoveJobs (random live jobs), each followed by
// Solve. At the end every session's objective must equal a cold SolveLP of
// the benchmark's mirror of its instance to within 1e-6.
func runChurn(ctx context.Context, cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	insts := familyInstances(solveT, solveN)
	sessions := make([]*churnSession, numInstances)
	probe := newSpeedProbe()
	var setup time.Duration
	for k, in := range insts {
		probe.sample()
		t0 := time.Now()
		cs := &churnSession{
			seed:    int64(k + 1),
			live:    newLiveSet(in),
			addNext: true,
			donor:   &donor{T: solveT, n: solveN, seed: cfg.seed*1000 + int64(k) + 101, nextID: freshIDBase},
		}
		var err error
		op := tr.newOp()
		tr.op("churn.setup", op, func(parent int) {
			tr.call("activetime.NewSession", parent, op, func() { cs.sess, err = activetime.NewSession(in) })
			if err != nil {
				return
			}
			var res *activetime.LPResult
			id := tr.call("session.Solve/first", parent, op, func() { res, err = cs.sess.Solve() })
			if err == nil && tr != nil {
				tr.annotate(id, lpCounters(res))
			}
		})
		if err != nil {
			return nil, fmt.Errorf("churn setup, seed %d: %w", cs.seed, err)
		}
		setup += time.Since(t0)
		sessions[k] = cs
	}

	nAdd, nRemove, verified := 0, 0, 0
	var busy time.Duration // in steps, leaving out the speed probe's samples
	start := time.Now()
	deadline := start.Add(cfg.duration())
	for time.Now().Before(deadline) || nAdd < churnMinSamples || nRemove < churnMinSamples {
		for _, k := range rng.Perm(numInstances) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			probe.maybe(500 * time.Millisecond)
			cs := sessions[k]
			t0 := time.Now()
			err := cs.step(tr, rng)
			busy += time.Since(t0)
			if cs.addNext {
				nRemove++ // the step just taken was a removal
			} else {
				nAdd++
			}
			if err != nil {
				rep.tally.fail(true, fmt.Sprintf("seed %d: %v", cs.seed, err))
			} else {
				rep.tally.ok()
				verified++
			}
		}
	}
	elapsed := time.Since(start)

	var adds, removes []float64
	coldRebuilds, removeCalls, coldFallbacks := 0, 0, 0
	for _, cs := range sessions {
		adds = append(adds, cs.add...)
		removes = append(removes, cs.remove...)
		st := cs.sess.Stats()
		coldRebuilds += st.ColdRebuilds
		removeCalls += st.RemoveCalls
		coldFallbacks += st.ColdFallbacks
		rep.tally.check(cs.finalCheck())
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup.Seconds()
	rep.e2e["light_p50_ms"] = median(adds)
	rep.e2e["light_p90_ms"] = percentile(adds, 90)
	rep.e2e["heavy_p50_ms"] = median(removes)
	rep.e2e["heavy_p90_ms"] = percentile(removes, 90)
	// The tail is over all steps: with at least 200 of them, p95 leaves at
	// least ten beyond it.
	rep.e2e["tail_ms"] = percentile(append(append([]float64(nil), adds...), removes...), 95)
	rep.e2e["goodput_per_s"] = float64(verified) / busy.Seconds()
	rep.e2e["peak_rss_mb"] = rss

	rep.note("churn: %d sessions (T=%d n=%d), batches of %d, %d adds + %d removes in %.1fs, setup %.2fs; raw times:",
		numInstances, solveT, solveN, churnBatch, nAdd, nRemove, elapsed.Seconds(), setup.Seconds())
	rep.note("  add_p50_ms %.1f  add_p90_ms %.1f  remove_p50_ms %.1f  remove_p90_ms %.1f  step_p95_ms %.1f",
		rep.e2e["light_p50_ms"], rep.e2e["light_p90_ms"], rep.e2e["heavy_p50_ms"], rep.e2e["heavy_p90_ms"], rep.e2e["tail_ms"])
	rep.note("  removals that rebuilt the master cold: %d of %d; lp warm-start fallbacks: %d",
		coldRebuilds, removeCalls, coldFallbacks)
	rep.scaleTimes(probe, true)
	if tr != nil {
		const afterAdd, afterRemove = "session.Solve/add", "session.Solve/remove"
		lpLayers(rep, tr, afterAdd, afterRemove)
		rep.layer["session.AddJobs_ms"] = median(tr.durations("session.AddJobs"))
		rep.layer["session.RemoveJobs_ms"] = median(tr.durations("session.RemoveJobs"))
		rep.layer["session.Solve_after_add_ms"] = median(tr.durations(afterAdd))
		rep.layer["session.Solve_after_remove_ms"] = median(tr.durations(afterRemove))
		rep.layer["session.pivots_after_add"] = median(tr.counter("pivots", afterAdd))
		rep.layer["session.pivots_after_remove"] = median(tr.counter("pivots", afterRemove))
		rep.layer["session.first_solve_ms"] = median(tr.durations("session.Solve/first"))
		rep.layer["session.cold_fallbacks"] = float64(coldFallbacks)
		rep.layer["session.warm_remove_ratio"] = 1 - float64(coldRebuilds)/float64(removeCalls)
	}
	return rep, nil
}

// step applies the session's next delta and re-solves, recording the
// step's wall time; the answer must have the mirror's shape.
func (cs *churnSession) step(tr *tracer, rng *rand.Rand) error {
	isAdd := cs.addNext
	cs.addNext = !cs.addNext
	var jobs []core.Job
	var ids []int
	kind := "remove"
	if isAdd {
		kind = "add"
		jobs = cs.donor.take(churnBatch)
	} else {
		ids = cs.live.pick(rng, churnBatch)
	}
	var res *activetime.LPResult
	var err error
	mutated := false
	op := tr.newOp()
	t0 := time.Now()
	tr.op("churn."+kind, op, func(parent int) {
		if isAdd {
			tr.call("session.AddJobs", parent, op, func() { err = cs.sess.AddJobs(jobs) })
		} else {
			tr.call("session.RemoveJobs", parent, op, func() { err = cs.sess.RemoveJobs(ids) })
		}
		if err != nil {
			return
		}
		mutated = true
		id := tr.call("session.Solve/"+kind, parent, op, func() { res, err = cs.sess.Solve() })
		if err == nil && tr != nil {
			tr.annotate(id, lpCounters(res))
		}
	})
	lat := ms(time.Since(t0))
	if isAdd {
		cs.add = append(cs.add, lat)
	} else {
		cs.remove = append(cs.remove, lat)
	}
	if mutated { // the session accepted the delta, so the mirror follows it
		for _, j := range jobs {
			cs.live.add(j)
		}
		for _, id := range ids {
			cs.live.remove(id)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	if err := checkLP(res.Y, res.Objective, cs.live.horizon()); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	return nil
}

// finalCheck compares the session's current optimum with a cold SolveLP of
// the mirror of its instance.
func (cs *churnSession) finalCheck() error {
	res, err := cs.sess.Solve()
	if err != nil {
		return fmt.Errorf("seed %d final Solve: %w", cs.seed, err)
	}
	cold, err := activetime.SolveLP(cs.live.instance())
	if err != nil {
		return fmt.Errorf("seed %d cold SolveLP of the mirror: %w", cs.seed, err)
	}
	if math.Abs(cold.Objective-res.Objective) > 1e-6 {
		return fmt.Errorf("seed %d: session objective %.9f, cold SolveLP of the mirror %.9f",
			cs.seed, res.Objective, cold.Objective)
	}
	return nil
}
