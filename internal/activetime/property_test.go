package activetime

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// lpFamilies enumerates every seeded random family of package gen, plus the
// large-horizon scaling family, at sizes small enough for the exact
// rational engine. The cross-solver suite runs each family across enough
// seeds for ~150 instances total.
var lpFamilies = []struct {
	name string
	make func(seed int64) *core.Instance
}{
	{"flexible", func(seed int64) *core.Instance {
		return gen.RandomFlexible(gen.RandomConfig{N: 8, Horizon: 16, MaxLen: 3, Slack: 3, G: 3, Seed: seed})
	}},
	{"interval", func(seed int64) *core.Instance {
		return gen.RandomInterval(gen.RandomConfig{N: 8, Horizon: 16, MaxLen: 3, G: 4, Seed: seed})
	}},
	{"unit", func(seed int64) *core.Instance {
		return gen.RandomUnit(gen.RandomConfig{N: 10, Horizon: 12, Slack: 4, G: 3, Seed: seed})
	}},
	// Clique jobs are rigid intervals through one common point, so the
	// instance is feasible only when N <= G.
	{"clique", func(seed int64) *core.Instance {
		return gen.RandomClique(gen.RandomConfig{N: 4, Horizon: 12, MaxLen: 4, G: 4, Seed: seed})
	}},
	{"proper", func(seed int64) *core.Instance {
		return gen.RandomProper(gen.RandomConfig{N: 7, Horizon: 20, MaxLen: 4, G: 3, Seed: seed})
	}},
	// Laminar jobs fill their whole window, so g must cover the nesting
	// depth (the generator recurses to depth ~5).
	{"laminar", func(seed int64) *core.Instance {
		return gen.RandomLaminar(gen.RandomConfig{N: 8, Horizon: 14, G: 6, Seed: seed})
	}},
	{"large-horizon", func(seed int64) *core.Instance {
		return gen.LargeHorizon(gen.RandomConfig{N: 8, Horizon: 64, MaxLen: 8, G: 4, Seed: seed})
	}},
}

// TestLPCrossSolverMetamorphic is the cross-solver property suite of the
// LP1 pipeline: on every family, the batched float pipeline, the
// single-cut float pipeline, and the exact rational pipeline must agree on
// the LP optimum to 1e-6 — independently wrong solvers agreeing on ~150
// instances × 3 pipelines is the strongest equivalence evidence the repo
// can buy without a reference LP library. Batching must also never need
// more separation rounds than single-cut generation.
func TestLPCrossSolverMetamorphic(t *testing.T) {
	const seedsPerFamily = 22 // 7 families × 22 = 154 instances
	solved := 0
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			batched, err := SolveLP(in)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: SolveLP: %v", fam.name, seed, err)
			}
			single, err := SolveLPSingleCut(in)
			if err != nil {
				t.Fatalf("%s seed %d: SolveLPSingleCut: %v", fam.name, seed, err)
			}
			exact, err := SolveLPExact(in)
			if err != nil {
				t.Fatalf("%s seed %d: SolveLPExact: %v", fam.name, seed, err)
			}
			want, _ := exact.Objective.Float64()
			if math.Abs(batched.Objective-want) > 1e-6 {
				t.Errorf("%s seed %d: batched LP %.9f, exact %.9f", fam.name, seed, batched.Objective, want)
			}
			if math.Abs(single.Objective-want) > 1e-6 {
				t.Errorf("%s seed %d: single-cut LP %.9f, exact %.9f", fam.name, seed, single.Objective, want)
			}
			if batched.Rounds > single.Rounds {
				t.Errorf("%s seed %d: batched took %d rounds, single-cut only %d",
					fam.name, seed, batched.Rounds, single.Rounds)
			}
			solved++
		}
	}
	if solved < 140 {
		t.Fatalf("only %d feasible instances exercised; want >= 140 (generator drift?)", solved)
	}
}

// TestRoundLPBoundsAcrossFamilies locks the paper's approximation bounds on
// every family: RoundLP's output must verify against core.VerifyActive and
// open at most 2·LP slots (Theorem 2) — and a fortiori at most 3·LP, the
// minimal-feasible guarantee of Theorem 1, asserted separately so a future
// relaxation of the rounding cannot silently degrade past the weaker paper
// bound either.
func TestRoundLPBoundsAcrossFamilies(t *testing.T) {
	const seedsPerFamily = 22
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			res, err := RoundLP(in)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: RoundLP: %v", fam.name, seed, err)
			}
			if verr := core.VerifyActive(in, res.Schedule); verr != nil {
				t.Errorf("%s seed %d: rounded schedule invalid: %v", fam.name, seed, verr)
			}
			opened := float64(res.Opened)
			if opened > 2*res.LPValue+1e-6 {
				t.Errorf("%s seed %d: opened %d > 2·LP = %.6f", fam.name, seed, res.Opened, 2*res.LPValue)
			}
			if opened > 3*res.LPValue+1e-6 {
				t.Errorf("%s seed %d: opened %d > 3·LP = %.6f", fam.name, seed, res.Opened, 3*res.LPValue)
			}
			if res.InvariantViolated {
				t.Errorf("%s seed %d: 2·LP charging invariant violated during rounding", fam.name, seed)
			}
		}
	}
}
