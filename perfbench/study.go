package main

import (
	"fmt"
	"math"
	"time"

	"munin/internal/api"
	"munin/internal/apps"
	"munin/internal/core"
)

// program is one study program of a study pass, with its plain-Go
// reference result.
type program struct {
	name string
	run  func(api.System) float64
	want float64
}

// resultOK compares a program's result with its reference, allowing
// float rounding: a wrong element moves a checksum by far more.
func resultOK(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(got)+math.Abs(want))
}

// study runs one pass of the four barrier-synchronised study programs
// per op, each on a freshly built two-node in-process cluster.
type study struct {
	progs []program
	done  counters // counters of every cluster closed so far
	ops   int64
}

// Every study program runs 2 threads on 2 nodes.
const (
	studyNodes   = 2
	studyThreads = 2
)

func newStudy(seed int64) *study {
	mm := apps.MatMul{N: 128, Threads: studyThreads, Seed: seed}
	ga := apps.Gauss{N: 96, Threads: studyThreads, Seed: seed}
	ff := apps.FFT{N: 1024, Threads: studyThreads, Seed: seed}
	li := apps.Life{Rows: 128, Cols: 64, Generations: 24, Threads: studyThreads, Seed: seed}
	return &study{progs: []program{
		{"matmul", mm.Run, mm.Sequential()},
		{"gauss", ga.Run, ga.Sequential()},
		{"fft", ff.Run, ff.Sequential()},
		{"life", func(s api.System) float64 { return float64(li.Run(s)) }, float64(li.Sequential())},
	}}
}

// pass runs every program once and reports whether all of them matched
// their references. With hold set it also returns the clusters still
// open, for the heap reading.
func (s *study) pass(tr *tracer, hold bool) (ok bool, open []*core.System, err error) {
	if tr != nil {
		tr.op.Store(s.ops)
	}
	s.ops++
	ok = true
	for _, p := range s.progs {
		sys, err := core.New(core.Config{Nodes: studyNodes})
		if err != nil {
			return false, open, fmt.Errorf("%s: %w", p.name, err)
		}
		got := p.run(tr.wrap(sys))
		if !resultOK(got, p.want) {
			ok = false
		}
		s.done.add(sys)
		if hold {
			open = append(open, sys)
		} else {
			sys.Close()
		}
	}
	return ok, open, nil
}

// setup is one warm-up pass: every cluster of a pass is built per op,
// so there is nothing else to build ahead of the timed ops.
func (s *study) setup() (int, error) {
	ok, _, err := s.pass(nil, false)
	if !ok {
		return 1, err
	}
	return 0, err
}

func (s *study) chunk(tr *tracer, lat []float64) ([]float64, int, int, error) {
	t0 := time.Now()
	ok, _, err := s.pass(tr, false)
	if err != nil {
		return lat, 0, 0, err
	}
	lat = append(lat, float64(time.Since(t0))/1e6)
	if !ok {
		return lat, 1, 1, nil
	}
	return lat, 1, 0, nil
}

func (s *study) counters() counters {
	var c counters
	c.plus(s.done)
	return c
}

// verify has nothing to add: each op's check covers its whole output.
func (s *study) verify() (bool, error) { return true, nil }

// heapLive runs one more pass and reads the heap while its four
// clusters are still open.
func (s *study) heapLive() (float64, error) {
	ok, open, err := s.pass(nil, true)
	defer func() {
		for _, sys := range open {
			sys.Close()
		}
	}()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("heap pass failed its check")
	}
	return heapLiveMiB(), nil
}

func (s *study) close() {}

func (s *study) shape() probeShape {
	// A result row of matmul or a grid row of gauss: 1 KiB runs in a
	// 32 KiB object, 8 of them dirty per flush.
	return probeShape{payload: 8 << 10, objSize: 32 << 10, runs: 8, runLen: 1 << 10}
}
