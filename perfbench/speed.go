package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// A VM that shares its host's cores runs the same fixed computation at 0.8x
// to 2x its usual time for stretches of seconds to minutes (measured on a
// 2-vCPU Xeon 2.1 GHz VM), which moves every wall time of a run together.
// To keep that common mode out of the end-to-end times, each run also times
// a fixed reference kernel that uses none of the repository's code, and
// reports its times scaled to the reference speed: raw × refNominalMS /
// (the run's median kernel time). A change to the program leaves the kernel
// alone, so it shows in full; a slow stretch of the machine slows both and
// cancels. The raw times are printed on standard error.

// refNominalMS is the reference kernel's median time on the 2-vCPU Xeon
// 2.1 GHz VM the baseline was recorded on; normalized times are
// milliseconds at that speed.
const refNominalMS = 18.5

var refInput = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	in := make([]float64, 1<<17)
	for i := range in {
		in[i] = rng.Float64()
	}
	return in
}()

// refKernel sorts a fixed slice of 128K floats and returns the wall time in
// milliseconds.
func refKernel(buf []float64) float64 {
	t0 := time.Now()
	copy(buf, refInput)
	sort.Float64s(buf)
	return ms(time.Since(t0))
}

// speedProbe collects reference-kernel times over a run.
type speedProbe struct {
	buf     []float64
	samples []float64
	last    time.Time
}

func newSpeedProbe() *speedProbe { return &speedProbe{buf: make([]float64, len(refInput))} }

// sample collects the heap and then times the kernel once, so that the
// kernel never times background GC work left by the program's own
// allocation (which would make a change that allocates more slow the kernel
// too, and the scaling would then hide part of it).
func (p *speedProbe) sample() {
	runtime.GC()
	p.samples = append(p.samples, refKernel(p.buf))
	p.last = time.Now()
}

// maybe samples when the last sample is at least every old, or when
// there is none yet.
func (p *speedProbe) maybe(every time.Duration) {
	if len(p.samples) == 0 || time.Since(p.last) >= every {
		p.sample()
	}
}

// scale returns the factor that converts the run's raw times into
// reference-speed times: refNominalMS / the median kernel time.
func (p *speedProbe) scale() float64 { return refNominalMS / median(p.samples) }

// refMS is the run's median kernel time.
func (p *speedProbe) refMS() float64 { return median(p.samples) }
