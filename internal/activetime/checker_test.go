package activetime

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestFeasCheckerToggleEquivalence drives the flow-carrying checker
// through random mixes of its callers' mutation patterns — free slot and
// job toggles (reopening slots, switching jobs off and back on), the exact
// search's close/probe/reopen, the rounding sweep's growing deadline prefix
// and opening slots, and the closing loops' trial closes — from both of
// its starting states (everything on, as in fullChecker, and everything
// off, as in the rounding sweep). After every step it checks the verdict
// against a fresh one-shot max flow, the checker's flow bookkeeping against
// the network, and the closed-slot gate. This is the state-corruption net
// for the SetCapacityKeepFlow/PushBack bookkeeping and the gate: excess
// mis-cancelled on a capacity decrease, or a gate left open or shut, shows
// up within a few steps.
func TestFeasCheckerToggleEquivalence(t *testing.T) {
	const seedsPerFamily = 6
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			for _, full := range []bool{true, false} {
				in := fam.make(seed)
				jobs := append([]core.Job(nil), in.Jobs...)
				sortJobsByDeadline(jobs)
				w := newCheckerWalk(t, in.G, jobs, full)
				w.where = fmt.Sprintf("%s seed %d full=%v", fam.name, seed, full)
				w.check()
				rng := newRand(seed*131 + 7)
				for w.steps = 1; w.steps <= 80; w.steps++ {
					w.step(rng.Intn(5), rng.Intn(1<<30))
					w.check()
				}
			}
		}
	}
}

// checkerWalk is a feasChecker plus the slot and job state it should be in.
type checkerWalk struct {
	t      *testing.T
	where  string // instance label for failures
	steps  int
	slots  []core.Time
	fc     *feasChecker
	slotOn map[core.Time]bool
	jobOn  []bool
	prefix int // rounding pattern: jobs[:prefix] were switched on in order
}

func (w *checkerWalk) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%s step %d: %s", w.where, w.steps, fmt.Sprintf(format, args...))
}

func newCheckerWalk(t *testing.T, g int, jobs []core.Job, full bool) *checkerWalk {
	w := &checkerWalk{
		t:      t,
		slots:  AllSlots(&core.Instance{G: g, Jobs: jobs}),
		fc:     newFeasChecker(g, jobs),
		slotOn: make(map[core.Time]bool),
		jobOn:  make([]bool, len(jobs)),
	}
	if full {
		for i := range jobs {
			w.setJob(i, true)
		}
		for _, s := range w.slots {
			w.setSlot(s, true)
		}
		w.prefix = len(jobs)
	}
	return w
}

func (w *checkerWalk) setSlot(s core.Time, open bool) {
	w.slotOn[s] = open
	w.fc.setSlot(s, open)
}

func (w *checkerWalk) setJob(i int, on bool) {
	w.jobOn[i] = on
	w.fc.setJob(i, on)
}

// oneShot answers the current configuration, less slot skip (0 for none:
// slot 0 lies outside every window), with a freshly built network.
func (w *checkerWalk) oneShot(skip core.Time) bool {
	var jobs []core.Job
	var total int64
	for i, j := range w.fc.jobs {
		if w.jobOn[i] {
			jobs = append(jobs, j)
			total += j.Length
		}
	}
	var open []core.Time
	for _, s := range w.slots {
		if w.slotOn[s] && s != skip {
			open = append(open, s)
		}
	}
	got, _ := feasibleFlow(w.fc.g, jobs, open, false)
	return got == total
}

func (w *checkerWalk) step(op, r int) {
	w.t.Helper()
	s := w.slots[r%len(w.slots)]
	switch op {
	case 0: // free slot toggle
		w.setSlot(s, !w.slotOn[s])
	case 1: // free job toggle
		if len(w.jobOn) > 0 {
			i := r % len(w.jobOn)
			w.setJob(i, !w.jobOn[i])
		}
	case 2: // exact search: close for the subtree, probe, reopen
		if w.slotOn[s] {
			w.setSlot(s, false)
			if got, want := w.fc.feasible(), w.oneShot(0); got != want {
				w.fatalf("exact-search probe of slot %d: checker says %v, one-shot flow %v", s, got, want)
			}
			w.setSlot(s, true)
		}
	case 3: // rounding sweep: grow the deadline prefix, open a slot
		if w.prefix < len(w.jobOn) {
			w.setJob(w.prefix, true)
			w.prefix++
		}
		w.setSlot(s, true)
	case 4: // closing loop: trial close under a maximal flow that meets demand
		if w.slotOn[s] && w.fc.feasible() {
			want := w.oneShot(s)
			if got := w.fc.trialCloseSlot(s); got != want {
				w.fatalf("trial close of slot %d: checker says %v, one-shot flow %v", s, got, want)
			}
			w.slotOn[s] = !want
		}
	}
}

// check asserts the checker's invariants before and after a feasibility
// query, and the query's verdict.
func (w *checkerWalk) check() {
	w.t.Helper()
	w.checkState()
	if got, want := w.fc.feasible(), w.oneShot(0); got != want {
		w.fatalf("feasible() = %v, one-shot flow %v", got, want)
	}
	w.checkState()
}

func (w *checkerWalk) checkState() {
	w.t.Helper()
	net := w.fc.net
	var supplied int64
	for _, id := range w.fc.jobEdges {
		supplied += net.Flow(id)
	}
	if supplied != w.fc.flow {
		w.fatalf("supply edges carry %d, checker records %d", supplied, w.fc.flow)
	}
	for _, s := range w.slots {
		want := int64(0)
		if w.slotOn[s] {
			want = 1
		}
		for _, ref := range w.fc.slotIn[s] {
			if c := net.Capacity(ref.id); c != want {
				w.fatalf("slot %d (open=%v) has a job edge of capacity %d", s, w.slotOn[s], c)
			}
			if f := net.Flow(ref.id); !w.slotOn[s] && f != 0 {
				w.fatalf("closed slot %d has a job edge carrying %d", s, f)
			}
		}
	}
}
