package main

import (
	"runtime/debug"
	"time"
)

// The machine's speed drifts: on the 2-vCPU VM the benchmark was built
// on, plain-Go elimination on a fixed matrix took 0.33 ms in fast spells
// and 0.64 ms in slow ones, spells lasted from seconds to minutes, and
// the workloads' op times moved with it (see README.md). So every
// end-to-end time is scaled to a reference speed: the speed at which the
// calibration kernel below takes refKernelMs. The kernel is timed before
// each set-up and each chunk of ops, and a segment's times are scaled by
// refKernelMs over the median of its kernel times. One kernel time is
// noisy; a segment's median of dozens or hundreds is not. The kernel
// mixes compute with goroutine hand-offs because the workloads do not
// all slow alike: in a fast spell elimination ran 1.85 times as fast as
// in a slow one, 64 KiB copies 1.05 times and channel round trips 1.3
// times, and the op times of study, handoff and mesh_rw moved between
// those (README.md). A segment lasts a few seconds, shorter than most
// spells, and the op latency quantiles are medians over windows of
// consecutive ops (main.go), so the few windows in which a spell ends do
// not count. Only time the process spends computing is scaled: of a
// set-up, its CPU time, not the time it waits on a timer.
const (
	refKernelMs   = 0.24
	calibN        = 48  // matrix order of the kernel's elimination
	calibHandoffs = 200 // goroutine round trips in the kernel
)

// speedometer times the calibration kernel.
type speedometer struct {
	all  []float64 // every kernel time, ms
	a    []float64 // the kernel's matrix
	ping chan int  // the kernel's hand-offs, to and from a partner goroutine
	pong chan int
	sink float64
}

func newSpeedometer() *speedometer {
	s := &speedometer{a: make([]float64, calibN*calibN), ping: make(chan int), pong: make(chan int)}
	go func() {
		for x := range s.ping {
			s.pong <- x + 1
		}
	}()
	return s
}

// close stops the partner goroutine.
func (s *speedometer) close() { close(s.ping) }

// sample times the kernel once and returns the time in ms. It first
// waits for any garbage collection in progress to end, so the kernel
// does not share the CPU with the program's collector, and it allocates
// nothing itself.
func (s *speedometer) sample() float64 {
	prev := debug.SetGCPercent(-1) // returns once no collection is running
	t0 := time.Now()
	s.kernel()
	ms := float64(time.Since(t0)) / 1e6
	debug.SetGCPercent(prev)
	s.all = append(s.all, ms)
	return ms
}

// kernel is fixed plain-Go work, independent of the program under test:
// Gaussian elimination on a diagonally dominant matrix, the compute
// shape of the study programs, and calibHandoffs round trips of a value
// between two goroutines over unbuffered channels, the scheduler
// hand-off every DSM access, lock grant and barrier goes through.
func (s *speedometer) kernel() {
	a := s.a
	for i := range calibN {
		for j := range calibN {
			a[i*calibN+j] = float64((i*7+j*13)%17) + 1
		}
		a[i*calibN+i] += 4 * calibN
	}
	for k := range calibN {
		for i := k + 1; i < calibN; i++ {
			f := a[i*calibN+k] / a[k*calibN+k]
			for j := k; j < calibN; j++ {
				a[i*calibN+j] -= f * a[k*calibN+j]
			}
		}
	}
	x := 0
	for range calibHandoffs {
		s.ping <- x
		x = <-s.pong
	}
	s.sink += a[calibN*calibN-1] + float64(x)
}
