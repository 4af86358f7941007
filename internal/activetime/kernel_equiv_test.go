package activetime

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// pivotRec is one basis change observed through lp.Problem.SetPivotHook.
type pivotRec struct{ row, col int }

// solveTraced runs the default purging pipeline with a pivot-sequence
// recorder, optionally pinning the simplex engine to the dense
// triangular-solve path.
func solveTraced(in *core.Instance, dense bool) (*LPResult, []pivotRec, error) {
	var trace []pivotRec
	res, err := solveLP(in, lpOptions{
		purge:        true,
		denseKernels: dense,
		pivotHook:    func(row, col int) { trace = append(trace, pivotRec{row, col}) },
	})
	return res, trace, err
}

// TestKernelPathEquivalence is the hypersparse-kernel property suite: on
// every seeded family of package gen, on the adversarial Hardness gadget
// chains (arXiv:2112.03255 — maximally dual-degenerate masters), and on
// large-horizon instances big enough for the hypersparse path to engage,
// the default engine and the forced-dense engine must walk the *identical
// pivot sequence* — every (row, col) basis change, in order — and land on
// the identical objective, not merely objectives within a tolerance.
//
// This is the strongest statement the kernel refactor admits: the
// Gilbert–Peierls reach is processed in sorted elimination-step order, so
// the hypersparse solves perform the same float operations in the same
// order as the dense solves and the path choice is a pure cost knob that
// cannot perturb the trajectory. A tolerance-only comparison would accept
// a kernel that silently reorders accumulation — exactly the bug class
// the Harris-style magnitude tie-breaks amplify into doubled pivot counts.
//
// The suite also asserts non-vacuity in both directions: forced-dense runs
// must never report hypersparse kernel activity, and the default runs must
// report some in aggregate (otherwise the equivalence is dense-vs-dense).
func TestKernelPathEquivalence(t *testing.T) {
	type instCase struct {
		name string
		in   *core.Instance
	}
	var cases []instCase
	const seedsPerFamily = 22
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			cases = append(cases, instCase{fam.name, fam.make(seed)})
		}
	}
	for _, kg := range []struct{ k, g int }{{1, 2}, {3, 2}, {5, 3}, {8, 4}, {12, 2}} {
		cases = append(cases, instCase{"hardness", gen.Hardness(kg.k, kg.g)})
	}
	// Horizons where the basis dimension clears the hypersparse engagement
	// threshold, so the two engines genuinely take different code paths.
	horizons := []int{512, 1024}
	if !testing.Short() {
		horizons = append(horizons, 2048)
	}
	for _, T := range horizons {
		for _, seed := range []int64{3, 7} {
			cases = append(cases, instCase{"large-horizon",
				gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: seed})})
		}
	}

	hyperSeen := 0
	for _, tc := range cases {
		def, defTrace, err := solveTraced(tc.in, false)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatalf("%s (%s): default engine: %v", tc.name, tc.in.Name, err)
		}
		den, denTrace, err := solveTraced(tc.in, true)
		if err != nil {
			t.Fatalf("%s (%s): dense engine: %v", tc.name, tc.in.Name, err)
		}
		if def.Objective != den.Objective {
			t.Errorf("%s (%s): objective diverged: hypersparse %.17g, dense %.17g",
				tc.name, tc.in.Name, def.Objective, den.Objective)
		}
		if len(defTrace) != len(denTrace) {
			t.Errorf("%s (%s): pivot count diverged: hypersparse %d, dense %d",
				tc.name, tc.in.Name, len(defTrace), len(denTrace))
		} else {
			for i := range defTrace {
				if defTrace[i] != denTrace[i] {
					t.Errorf("%s (%s): pivot %d diverged: hypersparse (%d,%d), dense (%d,%d)",
						tc.name, tc.in.Name, i,
						defTrace[i].row, defTrace[i].col, denTrace[i].row, denTrace[i].col)
					break
				}
			}
		}
		if h := den.Kernel.FtranHyper + den.Kernel.BtranHyper; h != 0 {
			t.Errorf("%s (%s): forced-dense run reported %d hypersparse kernel solves", tc.name, tc.in.Name, h)
		}
		hyperSeen += def.Kernel.FtranHyper + def.Kernel.BtranHyper
	}
	if hyperSeen == 0 {
		t.Fatal("no case engaged the hypersparse kernels; the equivalence suite is vacuous")
	}
	t.Logf("%d cases, %d hypersparse kernel solves on the default path", len(cases), hyperSeen)
}
