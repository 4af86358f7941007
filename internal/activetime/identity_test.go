package activetime

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// decisionGolden pins, per instance seed, every deterministic counter that
// depends on which max flow Dinic routes, not just on its value. The values
// were captured with the full-BFS Dinic that predates the sink-level
// truncation; a flow layer that routes different augmenting paths moves
// FreeCloses (a slot closes for free only if the routed flow avoids it) and,
// through the separation cuts, the LP trajectory.
type decisionGolden struct {
	seed int64
	// MinimalFeasibleStats with default options.
	probes, freeCloses, flowAugments, opened int
	openHash                                 uint64
	// SolveLP effort counters and the rounding sweep on that LP.
	pivots, rounds, cuts    int
	roundOpened, flowChecks int
}

var decisionGoldens = []decisionGolden{
	{seed: 1, probes: 1024, freeCloses: 285, flowAugments: 818, opened: 78, openHash: 14246153420741745920,
		pivots: 168, rounds: 12, cuts: 181, roundOpened: 73, flowChecks: 63},
	{seed: 2, probes: 1024, freeCloses: 298, flowAugments: 817, opened: 90, openHash: 7425293588820884547,
		pivots: 146, rounds: 12, cuts: 179, roundOpened: 83, flowChecks: 6},
	{seed: 3, probes: 1024, freeCloses: 434, flowAugments: 668, opened: 77, openHash: 6347303961294027573,
		pivots: 212, rounds: 17, cuts: 212, roundOpened: 78, flowChecks: 13},
}

// slotHash fingerprints an open set (order-sensitive; Schedule.Open is
// sorted).
func slotHash(open []core.Time) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range open {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestDecisionIdentity locks the closing loop, the LP trajectory and the
// rounding sweep to the counters of the reference flow layer on the
// canonical scaling family (T = 1024, n = T/8, g = 4).
func TestDecisionIdentity(t *testing.T) {
	for _, want := range decisionGoldens {
		in := gen.LargeHorizon(gen.RandomConfig{N: 128, Horizon: 1024, MaxLen: 16, G: 4, Seed: want.seed})
		mr, err := MinimalFeasibleStats(in, MinimalOptions{})
		if err != nil {
			t.Fatalf("seed %d: MinimalFeasibleStats: %v", want.seed, err)
		}
		lpres, err := SolveLP(in)
		if err != nil {
			t.Fatalf("seed %d: SolveLP: %v", want.seed, err)
		}
		rr, err := roundWithLP(in, lpres)
		if err != nil {
			t.Fatalf("seed %d: rounding: %v", want.seed, err)
		}
		got := decisionGolden{
			seed:         want.seed,
			probes:       mr.Probes,
			freeCloses:   mr.FreeCloses,
			flowAugments: mr.FlowAugments,
			opened:       len(mr.Schedule.Open),
			openHash:     slotHash(mr.Schedule.Open),
			pivots:       lpres.Pivots,
			rounds:       lpres.Rounds,
			cuts:         lpres.Cuts,
			roundOpened:  rr.Opened,
			flowChecks:   rr.FlowChecks,
		}
		if got != want {
			t.Errorf("seed %d: counters moved:\n got %+v\nwant %+v", want.seed, got, want)
		}
	}
}
