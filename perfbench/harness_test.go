package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestPerSeedMedians(t *testing.T) {
	got := perSeedMedians(map[int64][]float64{2: {10, 30}, 1: {7}})
	if !reflect.DeepEqual(got, []float64{7, 20}) {
		t.Errorf("perSeedMedians = %v, want [7 20] in seed order", got)
	}
}

func TestGoodputCountsOnlyGoodRequestsWithinLimit(t *testing.T) {
	lat := []float64{100, 250, 251, 10}
	good := []bool{true, true, true, false}
	// 100 and 250 ms qualify; 251 ms is over the limit and the 10 ms
	// request failed, so it misses the limit whatever its latency.
	if got := goodput(lat, good, 250*time.Millisecond, 2*time.Second); got != 1 {
		t.Errorf("goodput = %v, want 1 req/s", got)
	}
}

func TestTallyFailRatio(t *testing.T) {
	var a tally
	a.ok()
	a.ok()
	a.fail(false, "refused")
	a.check(nil)
	a.check(errTest("wrong answer"))
	if a.attempted != 5 || a.failed != 2 || a.wrong != 1 {
		t.Fatalf("tally = %+v, want 5 attempted, 2 failed, 1 wrong", a)
	}
	if got := a.failRatio(); got != 0.4 {
		t.Errorf("failRatio = %v, want 0.4", got)
	}
	if len(a.reasons) != 2 {
		t.Errorf("reasons = %v, want both failures kept", a.reasons)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestTracerLinksCallsToTheirOperation(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	tr.op("outer", op, func(parent int) {
		tr.call("inner", parent, op, func() { time.Sleep(20 * time.Millisecond) })
	})
	outer, inner := tr.named("outer")[0], tr.named("inner")[0]
	if inner.Parent != outer.ID || inner.Op != op {
		t.Fatalf("inner span %+v not linked to outer %+v", inner, outer)
	}
	if inner.StartUS < outer.StartUS || inner.EndUS > outer.EndUS || inner.ms() < 20 {
		t.Errorf("inner span [%v, %v] not inside outer [%v, %v] or too short", inner.StartUS, inner.EndUS, outer.StartUS, outer.EndUS)
	}
	var nilTracer *tracer
	ran := false
	nilTracer.op("x", nilTracer.newOp(), func(int) { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the call")
	}
}

func TestServePlanIsDeterministic(t *testing.T) {
	tenants := familyInstances(256, 32)
	a := makePlan(7, tenants, 3*time.Second)
	b := makePlan(7, tenants, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request plans")
	}
	if reflect.DeepEqual(a, makePlan(8, tenants, 3*time.Second)) {
		t.Fatal("different seeds gave the same plan")
	}
}

// TestServePlanOnlyTouchesLiveJobs replays a plan against per-tenant job
// sets: every undo reverts an earlier add of its own tenant that no other
// undo reverted, and every removed ID is live when removed, so a failure in
// the run is the program's own.
func TestServePlanOnlyTouchesLiveJobs(t *testing.T) {
	tenants := familyInstances(512, 64)
	plan := makePlan(3, tenants, 10*time.Second)
	live := make([]map[int]bool, len(tenants))
	for i, in := range tenants {
		live[i] = map[int]bool{}
		for _, j := range in.Jobs {
			live[i][j.ID] = true
		}
	}
	reverted := map[int]bool{}
	kinds := map[reqKind]int{}
	for i, r := range plan {
		kinds[r.Kind]++
		if r.Due < 0 || r.Due >= 10*time.Second {
			t.Fatalf("request %d due at %v, outside the 10 s stream", i, r.Due)
		}
		if i > 0 && r.Due < plan[i-1].Due {
			t.Fatalf("request %d due before its predecessor", i)
		}
		switch r.Kind {
		case kindAdd:
			for _, j := range r.Jobs {
				if live[r.Tenant][j.ID] {
					t.Fatalf("request %d adds ID %d twice", i, j.ID)
				}
				live[r.Tenant][j.ID] = true
			}
		case kindUndo:
			dep := plan[r.Dep]
			if r.Dep >= i || dep.Kind != kindAdd || dep.Tenant != r.Tenant || reverted[r.Dep] {
				t.Fatalf("undo %d reverts request %d (%+v)", i, r.Dep, dep)
			}
			reverted[r.Dep] = true
			fallthrough
		case kindRemove:
			if len(r.IDs) != serveBatch {
				t.Fatalf("request %d removes %d jobs", i, len(r.IDs))
			}
			for _, id := range r.IDs {
				if !live[r.Tenant][id] {
					t.Fatalf("request %d removes ID %d, which is not live", i, id)
				}
				delete(live[r.Tenant], id)
			}
		}
	}
	for k := kindAdd; k <= kindGet; k++ {
		if kinds[k] == 0 {
			t.Errorf("no %s request in the plan", kindNames[k])
		}
	}
	// 20 req/s over 10 s.
	if len(plan) != 200 {
		t.Errorf("%d requests, want 200", len(plan))
	}
}

func TestKindMixIsExact(t *testing.T) {
	count := map[reqKind]int{}
	for _, k := range kindMix(rand.New(rand.NewSource(1)), 200) {
		count[k]++
	}
	want := map[reqKind]int{kindAdd: 80, kindUndo: 40, kindRemove: 30, kindGet: 50}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("kind counts %v, want %v", count, want)
	}
}

func TestChurnChoicesAreDeterministic(t *testing.T) {
	draw := func() ([][]int, [][]int) {
		in := largeHorizon(256, 32, 1)
		live := newLiveSet(in)
		d := &donor{T: 256, n: 32, seed: 5, nextID: freshIDBase}
		rng := rand.New(rand.NewSource(11))
		var adds, removes [][]int
		for step := 0; step < 20; step++ {
			var ids []int
			for _, j := range d.take(churnBatch) {
				live.add(j)
				ids = append(ids, j.ID)
			}
			adds = append(adds, ids)
			rm := live.pick(rng, churnBatch)
			for _, id := range rm {
				live.remove(id)
			}
			removes = append(removes, rm)
		}
		return adds, removes
	}
	a1, r1 := draw()
	a2, r2 := draw()
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("the same seeds gave different churn deltas")
	}
	seen := map[int]bool{}
	for _, ids := range a1 {
		for _, id := range ids {
			if seen[id] || id < freshIDBase {
				t.Fatalf("donor ID %d is not fresh", id)
			}
			seen[id] = true
		}
	}
}

func TestCheckLP(t *testing.T) {
	if err := checkLP([]float64{0, 0.5, 1}, 1.5, 2); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	for _, c := range []struct {
		y   []float64
		obj float64
	}{
		{[]float64{0, 0.5}, 0.5},         // wrong length
		{[]float64{0, 1.5, 0}, 1.5},      // y above 1
		{[]float64{0, 0.5, 0.5}, 1.2},    // objective is not the sum
		{[]float64{0, math.NaN(), 0}, 0}, // not a number
	} {
		if err := checkLP(c.y, c.obj, 2); err == nil {
			t.Errorf("checkLP(%v, %v) accepted a wrong answer", c.y, c.obj)
		}
	}
}
