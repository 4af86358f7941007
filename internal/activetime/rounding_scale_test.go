package activetime

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestTrialCloseMatchesFreshFlow is the equivalence property behind the
// flow-carrying rewrite of the closing loops: on every family, a closing
// sweep that carries one max flow across all trial closes must make exactly
// the same close/keep decision at every slot as the historical loop that
// recomputed a fresh max flow per probe. The decisions agree because the
// max-flow *value* does not depend on which maximal flow happens to be
// routed — this test is the executable form of that argument.
func TestTrialCloseMatchesFreshFlow(t *testing.T) {
	const seedsPerFamily = 8
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			open := AllSlots(in)
			if !CheckFeasible(in, open) {
				continue
			}
			fc := fullChecker(in, open)
			if !fc.feasible() {
				t.Fatalf("%s seed %d: checker disagrees with CheckFeasible on the full slot set", fam.name, seed)
			}
			isOpen := make(map[core.Time]bool, len(open))
			for _, s := range open {
				isOpen[s] = true
			}
			for _, s := range open {
				// Fresh-flow oracle: close s iff the remaining open set still
				// carries all jobs, computed on a brand-new one-shot network.
				rest := make([]core.Time, 0, len(open))
				for _, u := range open {
					if isOpen[u] && u != s {
						rest = append(rest, u)
					}
				}
				want := CheckFeasible(in, rest)
				if got := fc.trialCloseSlot(s); got != want {
					t.Fatalf("%s seed %d slot %d: incremental close=%v, fresh-flow close=%v",
						fam.name, seed, s, got, want)
				}
				if want {
					isOpen[s] = false
				}
			}
			if fc.coldFlows != 1 {
				t.Errorf("%s seed %d: %d cold flows across the sweep, want exactly 1", fam.name, seed, fc.coldFlows)
			}
		}
	}
}

// TestMinimalFeasibleStatsCounters pins the incremental-flow contract of
// the closing loop on every family: exactly one cold (from-zero) max flow
// per feasible run no matter how many slots are probed, every window slot
// probed exactly once, and a result that is verified feasible and minimal.
func TestMinimalFeasibleStatsCounters(t *testing.T) {
	const seedsPerFamily = 6
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			res, err := MinimalFeasibleStats(in, MinimalOptions{Strategy: CloseRightToLeft})
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			if res.ColdFlows != 1 {
				t.Errorf("%s seed %d: %d cold flows, want exactly 1", fam.name, seed, res.ColdFlows)
			}
			if want := len(AllSlots(in)); res.Probes != want {
				t.Errorf("%s seed %d: probed %d slots, want %d", fam.name, seed, res.Probes, want)
			}
			if res.FreeCloses > res.Probes {
				t.Errorf("%s seed %d: %d free closes exceed %d probes", fam.name, seed, res.FreeCloses, res.Probes)
			}
			if verr := core.VerifyActive(in, res.Schedule); verr != nil {
				t.Errorf("%s seed %d: minimal schedule invalid: %v", fam.name, seed, verr)
			}
			if !IsMinimalFeasible(in, res.Schedule.Open) {
				t.Errorf("%s seed %d: MinimalFeasibleStats output is not minimal", fam.name, seed)
			}
		}
	}
}

// TestSlotRepairerOrder pins the repair-candidate policy: rightmost
// window-covered slot first, already-open slots skipped, and exhaustion
// reported as an explicit error instead of the historical 0 sentinel
// (slot 0 is outside every window by validation, so the sentinel silently
// conflated "nothing to open" with a real slot).
func TestSlotRepairerOrder(t *testing.T) {
	in := &core.Instance{G: 2, Jobs: []core.Job{
		{ID: 0, Release: 2, Deadline: 5, Length: 1},
		{ID: 1, Release: 7, Deadline: 9, Length: 1},
	}}
	rep := newSlotRepairer(in)
	opened := map[core.Time]bool{8: true, 4: true}
	var got []core.Time
	for {
		s, err := rep.next(opened)
		if err != nil {
			break
		}
		got = append(got, s)
		opened[s] = true
	}
	want := []core.Time{9, 5, 3} // slots {3,4,5,8,9} descending, minus the pre-opened {8,4}
	if len(got) != len(want) {
		t.Fatalf("repairer handed out %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("repairer handed out %v, want %v", got, want)
		}
	}
	if _, err := rep.next(opened); err == nil {
		t.Error("exhausted repairer returned a slot instead of an error")
	}
}

// TestRoundingHybridCloseRepairFree pins the instances on which the
// historical due-jobs-only close rule produced integrally infeasible sweeps
// (hundreds of defensive repairs: the proxy mass of a certified close
// migrated past the deadlines of not-yet-due jobs sharing the closed slot,
// breaking their joint Hall condition on mass-bound-tight optimal
// vertices). The hybrid close rule — certify every close against the full
// hybrid solution — must round all of them repair-free, both on the
// vertex SolveLP finds today and on the different optimal vertex the
// product-form eta-file simplex found (the vertices that exposed the bug
// in the first place; that engine is gone, so its optima are fixed in
// testdata/pfi-vertices).
func TestRoundingHybridCloseRepairFree(t *testing.T) {
	cases := []struct {
		T    int
		seed int64
	}{{1024, 0}, {1024, 5}, {2048, 11}, {4096, 8}}
	for _, c := range cases {
		in := gen.LargeHorizon(gen.RandomConfig{N: c.T / 8, Horizon: c.T, MaxLen: 16, G: 4, Seed: c.seed})
		lpres, err := SolveLP(in)
		if err != nil {
			t.Fatalf("T=%d seed %d: SolveLP: %v", c.T, c.seed, err)
		}
		pfi := loadVertex(t, fmt.Sprintf("testdata/pfi-vertices/pfi-vertex-T%d-seed%d.txt", c.T, c.seed), c.T)
		if math.Abs(pfi.Objective-lpres.Objective) > 1e-6 {
			t.Fatalf("T=%d seed %d: fixed vertex objective %.9f, SolveLP %.9f", c.T, c.seed, pfi.Objective, lpres.Objective)
		}
		for _, v := range []struct {
			name string
			lp   *LPResult
		}{{"SolveLP", lpres}, {"pfi vertex", pfi}} {
			res, err := roundWithLP(in, v.lp)
			if err != nil {
				t.Fatalf("T=%d seed %d %s: round: %v", c.T, c.seed, v.name, err)
			}
			if res.Repairs != 0 {
				t.Errorf("T=%d seed %d %s: %d defensive repairs, want 0", c.T, c.seed, v.name, res.Repairs)
			}
			if verr := core.VerifyActive(in, res.Schedule); verr != nil {
				t.Errorf("T=%d seed %d %s: rounded schedule invalid: %v", c.T, c.seed, v.name, verr)
			}
			if float64(res.Opened) > 2*res.LPValue+1e-6 {
				t.Errorf("T=%d seed %d %s: opened %d > 2·LP = %.6f", c.T, c.seed, v.name, res.Opened, 2*res.LPValue)
			}
			if res.ColdFlows > 1 {
				t.Errorf("T=%d seed %d %s: %d cold flows, incremental contract allows 1", c.T, c.seed, v.name, res.ColdFlows)
			}
		}
	}
}

// loadVertex reads a fixed LP1 optimum: an "objective <value>" line, then
// one "<t> <y_t>" line per nonzero slot of the horizon T ('#' starts a
// comment line). Values are printed with %.17g, so the vertex is
// reproduced bit for bit.
func loadVertex(t *testing.T, path string, T int) *LPResult {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res := &LPResult{Y: make([]float64, T+1)}
	sawObjective := false
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if f[0] == "objective" {
			res.Objective, sawObjective = v, true
			continue
		}
		slot, err := strconv.Atoi(f[0])
		if err != nil || slot < 1 || slot > T {
			t.Fatalf("%s: bad slot in %q", path, line)
		}
		res.Y[slot] = v
	}
	if !sawObjective {
		t.Fatalf("%s: no objective line", path)
	}
	sum := 0.0
	for _, y := range res.Y {
		sum += y
	}
	if math.Abs(sum-res.Objective) > 1e-6 {
		t.Fatalf("%s: slots sum to %.9f, objective line says %.9f", path, sum, res.Objective)
	}
	return res
}

// enduranceRoundingFamilies are the two stress families of the ISSUE 7
// scaling gates: the canonical large-horizon family (wide flexible windows,
// n = T/8) and a laminar tree whose rigid full-window jobs keep nearly every
// slot saturated — the worst case for the flow-carrying closing loop, since
// almost no trial close is free.
func enduranceRoundingFamilies(T int) []struct {
	name string
	in   *core.Instance
} {
	laminarN := T / 4
	if laminarN > 48 {
		laminarN = 48 // one depth-5 laminar tree ~saturates g·T; a second root job overflows
	}
	return []struct {
		name string
		in   *core.Instance
	}{
		{"scaling", gen.LargeHorizon(*scalingInstance(T, 8))},
		{"laminar", gen.RandomLaminar(gen.RandomConfig{N: laminarN, Horizon: T, G: 6, Seed: 5})},
	}
}

// runRoundingEndurance is the shared body of the rounding/minimal-feasible
// scaling gates (satellite 4 of ISSUE 7): at horizon T, on both endurance
// families, RoundLP must meet the Theorem 2 bound with zero defensive
// repairs, an intact charging invariant, no dropped proxy mass and at most
// one cold flow; MinimalFeasibleStats must likewise run on a single carried
// flow. All gated quantities are deterministic counters, not wall times.
func runRoundingEndurance(t *testing.T, T int) {
	for _, fam := range enduranceRoundingFamilies(T) {
		start := time.Now()
		res, err := RoundLP(fam.in)
		if err != nil {
			t.Fatalf("%s T=%d: RoundLP: %v", fam.name, T, err)
		}
		if verr := core.VerifyActive(fam.in, res.Schedule); verr != nil {
			t.Fatalf("%s T=%d: rounded schedule invalid: %v", fam.name, T, verr)
		}
		if float64(res.Opened) > 2*res.LPValue+1e-6 {
			t.Errorf("%s T=%d: opened %d > 2·LP = %.6f", fam.name, T, res.Opened, 2*res.LPValue)
		}
		if res.InvariantViolated {
			t.Errorf("%s T=%d: 2·LP charging invariant violated", fam.name, T)
		}
		if res.Repairs != 0 {
			t.Errorf("%s T=%d: %d defensive repairs, want 0 (tolerance drift?)", fam.name, T, res.Repairs)
		}
		if res.ColdFlows > 1 {
			t.Errorf("%s T=%d: rounding ran %d cold flows, incremental contract allows 1", fam.name, T, res.ColdFlows)
		}
		if res.DroppedMass > 1e-3 {
			t.Errorf("%s T=%d: %.6f proxy mass dropped uncharged", fam.name, T, res.DroppedMass)
		}
		minres, err := MinimalFeasibleStats(fam.in, MinimalOptions{Strategy: CloseRightToLeft})
		if err != nil {
			t.Fatalf("%s T=%d: MinimalFeasibleStats: %v", fam.name, T, err)
		}
		if minres.ColdFlows > 1 {
			t.Errorf("%s T=%d: minimal-feasible ran %d cold flows, incremental contract allows 1",
				fam.name, T, minres.ColdFlows)
		}
		if verr := core.VerifyActive(fam.in, minres.Schedule); verr != nil {
			t.Fatalf("%s T=%d: minimal schedule invalid: %v", fam.name, T, verr)
		}
		if lb := res.LPValue; float64(minres.Schedule.Cost()) > 3*lb+1e-6 {
			// Minimal feasible is 3·OPT >= 3·LP only when LP is tight; a trip
			// here means either bound broke, so it is worth failing loudly.
			t.Errorf("%s T=%d: minimal cost %d > 3·LP = %.6f", fam.name, T, minres.Schedule.Cost(), 3*lb)
		}
		t.Logf("%s T=%d: LP=%.3f opened=%d minimal=%d probes=%d free=%d augments=%d cold=%d+%d in %v",
			fam.name, T, res.LPValue, res.Opened, minres.Schedule.Cost(),
			minres.Probes, minres.FreeCloses, minres.FlowAugments, res.ColdFlows, minres.ColdFlows,
			time.Since(start).Round(time.Millisecond))
	}
}

// TestRoundingHorizon8k gates the rounding/minimal-feasible pipeline at
// T = 8192 on both endurance families. Skips in -short and under the
// default go test deadline like the LP endurance tests.
func TestRoundingHorizon8k(t *testing.T) {
	skipUnlessEndurance(t, 10*time.Minute)
	runRoundingEndurance(t, 8192)
}

// TestRoundingHorizon16k is the headline scaling gate of ISSUE 7: RoundLP
// and MinimalFeasible complete at T = 16384 canonical density inside the CI
// scaling budget with zero repairs, an intact invariant and single-digit
// flow effort — gated on the cold-flow counter, not wall time.
func TestRoundingHorizon16k(t *testing.T) {
	if raceEnabled {
		t.Skip("minutes-long run; the race build exercises the 8k gate instead")
	}
	skipUnlessEndurance(t, 20*time.Minute)
	runRoundingEndurance(t, 16384)
}

// TestTheorem1CertificateAtScale exercises the full certificate pipeline —
// Lemma 1 transform plus Lemma 2 witness extraction — on MinimalFeasible
// output at T = 4096, the scale at which the historical per-probe rescans
// made the transform quadratic. The certificate's own check() validates the
// structural properties; here we additionally pin the Theorem 1 arithmetic
// on the transformed schedule.
func TestTheorem1CertificateAtScale(t *testing.T) {
	skipUnlessEndurance(t, 8*time.Minute)
	const T = 4096
	in := gen.LargeHorizon(*scalingInstance(T, 8))
	sched, err := MinimalFeasible(in, MinimalOptions{Strategy: CloseRightToLeft})
	if err != nil {
		t.Fatalf("MinimalFeasible at T=%d: %v", T, err)
	}
	start := time.Now()
	cert, err := BuildTheorem1Certificate(in, sched)
	if err != nil {
		t.Fatalf("BuildTheorem1Certificate at T=%d: %v", T, err)
	}
	if got, want := len(cert.FullSlots)+len(cert.NonFullSlots), len(sched.Open); got != want {
		t.Errorf("certificate partitions %d slots, schedule opens %d", got, want)
	}
	if bound := cert.MassBound + cert.WitnessMass; core.Time(len(sched.Open)) > bound {
		t.Errorf("certificate bound broken: %d open slots > mass %d + witness %d",
			len(sched.Open), cert.MassBound, cert.WitnessMass)
	}
	j1, j2 := cert.TwoTrackSplit()
	if len(j1)+len(j2) != len(cert.Witness) {
		t.Errorf("two-track split loses witness jobs: %d + %d != %d", len(j1), len(j2), len(cert.Witness))
	}
	t.Logf("T=%d: |open|=%d full=%d nonfull=%d witness=%d massBound=%d witnessMass=%d in %v",
		T, len(sched.Open), len(cert.FullSlots), len(cert.NonFullSlots), len(cert.Witness),
		cert.MassBound, cert.WitnessMass, time.Since(start).Round(time.Millisecond))
}
