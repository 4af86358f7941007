package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/activetime"
	"repro/internal/core"
	"repro/internal/gen"
)

// deltaCell is one family of the E20 grid: a base instance plus a donor
// instance of the same family whose jobs arrive mid-session.
type deltaCell struct {
	family string
	T      int
	make   func(seed int64) *core.Instance
}

// e20Grid enumerates every generator family at a horizon small enough
// that the scripted mutation trace (each step re-solved twice: once
// through the live session, once cold) stays cheap, plus the canonical
// scaling family. The headline pivot-ratio cell is separate (see
// e20Headline).
func e20Grid(quick bool) []deltaCell {
	T := 64
	if quick {
		T = 32
	}
	return []deltaCell{
		{"flexible", T, func(seed int64) *core.Instance {
			return gen.RandomFlexible(gen.RandomConfig{N: T / 4, Horizon: T, MaxLen: 4, Slack: 4, G: 3, Seed: seed})
		}},
		{"interval", T, func(seed int64) *core.Instance {
			return gen.RandomInterval(gen.RandomConfig{N: T / 4, Horizon: T, MaxLen: 4, G: 3, Seed: seed})
		}},
		{"unit", T, func(seed int64) *core.Instance {
			return gen.RandomUnit(gen.RandomConfig{N: T / 4, Horizon: T, Slack: 4, G: 3, Seed: seed})
		}},
		{"proper", T, func(seed int64) *core.Instance {
			return gen.RandomProper(gen.RandomConfig{N: T / 2, Horizon: T, MaxLen: 6, G: 3, Seed: seed})
		}},
		{"laminar", T, func(seed int64) *core.Instance {
			return gen.RandomLaminar(gen.RandomConfig{N: T / 4, Horizon: T, G: 6, Seed: seed})
		}},
		{"hardness", 24, func(seed int64) *core.Instance {
			return gen.Hardness(8, 3)
		}},
		{"scaling", 4 * T, func(seed int64) *core.Instance {
			return gen.LargeHorizon(gen.RandomConfig{N: T / 2, Horizon: 4 * T, MaxLen: 8, G: 4, Seed: seed})
		}},
	}
}

// e20Headline is the pivot-ratio deliverable: the canonical scaling
// instance (the endurance family at seed 3) at T = 4096, where a small
// arrival batch re-solved through the live basis must be at least 5x
// cheaper in pivots than re-solving cold. Quick mode shrinks the horizon;
// the >= 5x merge gate only arms at T >= 4096, so quick runs record the
// ratio without being held to the large-horizon bound.
func e20Headline(quick bool) (T int) {
	if quick {
		return 256
	}
	return 4096
}

// DeltaSummary is the machine-readable digest of one E20 run. paperbench
// exports it into the bench records and gates the committed trajectory on
// it: the delta-vs-cold objective divergence is bounded absolutely at
// 1e-6, the warm-start fallback counter must be exactly zero (a nonzero
// count means the simplex silently abandoned a live basis — the bug class
// this experiment exists to keep extinct), and the headline add-ratio
// must stay >= 5 whenever the headline horizon is the full 4096; the
// removal rebuild count may not rise above the previous entry's.
type DeltaSummary struct {
	MaxObjDelta      float64 `json:"maxObjDelta"`      // worst |session - cold| objective gap
	ColdFallbacks    int     `json:"coldFallbacks"`    // warm-start fallbacks across every solve (must be 0)
	RemoveRebuilds   int     `json:"removeRebuilds"`   // removals that dropped the live basis (SessionStats.ColdRebuilds)
	RejectedDeltas   int     `json:"rejectedDeltas"`   // arrivals refused atomically as infeasible
	HeadlineT        int     `json:"headlineT"`        // horizon of the pivot-ratio cell
	HeadlineAddRatio float64 `json:"headlineAddRatio"` // cold pivots / delta pivots on the headline arrival
	Steps            int     `json:"steps"`            // delta-vs-cold comparisons performed
	Cells            int     `json:"cells"`
}

// E20DeltaResolve drives a live activetime.Session through a scripted
// arrival/departure trace on every generator family, re-solving after each
// mutation both through the patched master (the delta path) and from
// scratch, and records the worst objective divergence plus the fallback
// and rebuild counters. A final headline cell measures the point of the
// machinery: the pivot cost of absorbing a small arrival batch at T = 4096
// through the live basis versus cold.
func E20DeltaResolve(cfg Config) (*Table, error) {
	tab := &Table{
		ID:    "E20",
		Title: "Live instance deltas: patched-master re-solves vs cold solves",
		Claim: "session re-solves after arrivals/departures match cold optima to 1e-6 with zero warm-start fallbacks, and a T=4096 arrival re-solve is >= 5x cheaper in pivots than solving cold",
		Columns: []string{"family", "T", "n0", "adds", "rejects", "removes", "rebuilds",
			"maxΔobj", "Δpivots", "coldpivots", "fallbacks"},
	}
	sum := &DeltaSummary{}
	for ci, c := range e20Grid(cfg.Quick) {
		if err := runDeltaCell(tab, sum, c, cfg.Seed, int64(ci)); err != nil {
			return nil, err
		}
	}
	if err := runDeltaHeadline(tab, sum, cfg); err != nil {
		return nil, err
	}
	tab.Delta = sum
	tab.Notes = append(tab.Notes,
		"maxΔobj compares each post-mutation session solve against a cold SolveLP of the identical instance state",
		"fallbacks counts warm-start abandonments across both solve paths; any nonzero value fails the trajectory merge",
		"rebuilds counts removals that dropped the live basis (SessionStats.ColdRebuilds: a refused tight-row relaxation); the trajectory merge rejects an increase",
		"the headline row's Δpivots/coldpivots ratio is the tentpole gate: >= 5x at T = 4096")
	return tab, nil
}

// runDeltaCell executes one family's mutation trace: two arrival batches
// and two departure batches interleaved, each followed by a delta-vs-cold
// comparison.
func runDeltaCell(tab *Table, sum *DeltaSummary, c deltaCell, seed, cellIdx int64) error {
	in := c.make(seed)
	donor := c.make(seed + 1)
	sess, err := activetime.NewSession(in)
	if err == activetime.ErrInfeasible {
		tab.AddRow(c.family, di(c.T), di(len(in.Jobs)), "-", "-", "-", "-", "infeasible", "-", "-", "-")
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s T=%d: NewSession: %w", c.family, c.T, err)
	}
	if _, err := sess.Solve(); err != nil {
		return fmt.Errorf("%s T=%d: initial solve: %w", c.family, c.T, err)
	}
	rng := rand.New(rand.NewSource(seed*1001 + cellIdx))
	nextID := 1 + maxJobID(in)
	for _, j := range donor.Jobs {
		if j.ID >= nextID {
			nextID = j.ID + 1
		}
	}
	var maxDelta float64
	adds, rejects, removes, deltaPivots := 0, 0, 0, 0
	fallbacks := 0
	donorAt := 0
	for step := 0; step < 4; step++ {
		if step%2 == 0 {
			// Arrival batch: 1-2 donor jobs under fresh IDs.
			k := 1 + rng.Intn(2)
			var batch []core.Job
			for i := 0; i < k && donorAt < len(donor.Jobs); i++ {
				j := donor.Jobs[donorAt]
				donorAt++
				j.ID = nextID
				nextID++
				batch = append(batch, j)
			}
			if len(batch) == 0 {
				continue
			}
			switch err := sess.AddJobs(batch); {
			case err == activetime.ErrInfeasible:
				rejects++
				continue
			case err != nil:
				return fmt.Errorf("%s T=%d step %d: AddJobs: %w", c.family, c.T, step, err)
			}
			adds += len(batch)
		} else {
			if sess.NumJobs() < 3 {
				continue
			}
			jobs := sess.Instance().Jobs
			if err := sess.RemoveJobs([]int{jobs[rng.Intn(len(jobs))].ID}); err != nil {
				return fmt.Errorf("%s T=%d step %d: RemoveJobs: %w", c.family, c.T, step, err)
			}
			removes++
		}
		res, err := sess.Solve()
		if err != nil {
			return fmt.Errorf("%s T=%d step %d: delta solve: %w", c.family, c.T, step, err)
		}
		cold, err := activetime.SolveLP(sess.Instance())
		if err != nil {
			return fmt.Errorf("%s T=%d step %d: cold solve: %w", c.family, c.T, step, err)
		}
		if d := math.Abs(res.Objective - cold.Objective); d > maxDelta {
			maxDelta = d
		}
		deltaPivots += res.Pivots
		fallbacks += res.ColdFallbacks + cold.ColdFallbacks
		sum.Steps++
	}
	st := sess.Stats()
	sum.Cells++
	sum.RejectedDeltas += rejects
	sum.RemoveRebuilds += st.ColdRebuilds
	sum.ColdFallbacks += fallbacks
	if maxDelta > sum.MaxObjDelta {
		sum.MaxObjDelta = maxDelta
	}
	tab.AddRow(c.family, di(c.T), di(len(in.Jobs)), di(adds), di(rejects), di(removes),
		di(st.ColdRebuilds), fmt.Sprintf("%.2e", maxDelta), di(deltaPivots), "-", di(fallbacks))
	return nil
}

// runDeltaHeadline measures the tentpole ratio: solve the canonical
// scaling instance, add a small donor batch, and compare the delta
// re-solve's pivot count against a cold solve of the grown instance.
func runDeltaHeadline(tab *Table, sum *DeltaSummary, cfg Config) error {
	T := e20Headline(cfg.Quick)
	in := gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 3})
	donor := gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 4})
	sess, err := activetime.NewSession(in)
	if err != nil {
		return fmt.Errorf("headline T=%d: NewSession: %w", T, err)
	}
	if _, err := sess.Solve(); err != nil {
		return fmt.Errorf("headline T=%d: initial solve: %w", T, err)
	}
	nextID := 1 + maxJobID(in)
	batch := make([]core.Job, 0, 8)
	for i := 0; i < 8 && i < len(donor.Jobs); i++ {
		j := donor.Jobs[i]
		j.ID = nextID
		nextID++
		batch = append(batch, j)
	}
	if err := sess.AddJobs(batch); err != nil {
		return fmt.Errorf("headline T=%d: AddJobs: %w", T, err)
	}
	res, err := sess.Solve()
	if err != nil {
		return fmt.Errorf("headline T=%d: delta solve: %w", T, err)
	}
	cold, err := activetime.SolveLP(sess.Instance())
	if err != nil {
		return fmt.Errorf("headline T=%d: cold solve: %w", T, err)
	}
	d := math.Abs(res.Objective - cold.Objective)
	if d > sum.MaxObjDelta {
		sum.MaxObjDelta = d
	}
	fallbacks := res.ColdFallbacks + cold.ColdFallbacks
	sum.ColdFallbacks += fallbacks
	sum.Steps++
	sum.Cells++
	sum.HeadlineT = T
	if res.Pivots > 0 {
		sum.HeadlineAddRatio = float64(cold.Pivots) / float64(res.Pivots)
	} else {
		// A zero-pivot re-solve means the old basis stayed optimal: the
		// delta path is as cheap as it gets; report the cold count as the
		// realized ratio floor.
		sum.HeadlineAddRatio = float64(cold.Pivots)
	}
	tab.AddRow("scaling-headline", di(T), di(len(in.Jobs)), di(len(batch)), "0", "0",
		di(sess.Stats().ColdRebuilds), fmt.Sprintf("%.2e", d), di(res.Pivots), di(cold.Pivots), di(fallbacks))
	return nil
}

// maxJobID returns the largest job ID of the instance (0 when empty).
func maxJobID(in *core.Instance) int {
	m := 0
	for _, j := range in.Jobs {
		if j.ID > m {
			m = j.ID
		}
	}
	return m
}
