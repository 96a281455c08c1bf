package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"munin/internal/api"
	"munin/internal/core"
	"munin/internal/dlock"
	"munin/internal/protocol"
)

// The hand-off shape: a 64 KiB migratory object whose stripes two
// threads on two nodes rewrite in strict alternation.
const (
	hoSize     = 64 << 10
	hoStripe   = 4 << 10
	hoPatterns = 64  // distinct stripe contents, picked per round
	hoChunk    = 256 // rounds per Run
	hoWarm     = 256 // warm-up rounds per set-up
)

// handoff passes a migratory object and its lock between two threads
// on two in-process nodes. One op is one turn: the turn's thread
// acquires the lock (the object rides in the grant), checks the
// previous holder's stamp, rewrites one stripe and its own stamp,
// releases, and meets the other thread at a barrier that hands over the
// turn.
type handoff struct {
	seed     int64
	patterns [][]byte
	init     []byte

	sys   *core.System
	obj   api.RegionID
	lock  dlock.LockID
	bar   dlock.BarrierID
	round int64  // rounds run on sys
	want  []byte // plain-Go replay of every round run on sys
	ops   int64  // rounds run in every set-up so far: the next op's trace id
}

func newHandoff(seed int64) *handoff {
	h := &handoff{seed: seed, init: fill(seed, -1, hoSize)}
	binary.BigEndian.PutUint64(h.init, 0) // no turns taken yet
	for i := 0; i < hoPatterns; i++ {
		h.patterns = append(h.patterns, fill(seed, int64(i), hoStripe))
	}
	return h
}

// stripe returns round r's stripe offset and contents.
func (h *handoff) stripe(r int64) (int, []byte) {
	x := mix(h.seed, r)
	return int(x%(hoSize/hoStripe)) * hoStripe, h.patterns[(x>>32)%hoPatterns]
}

// stamp is the object's first 8 bytes: the number of turns taken.
func stamp(obj []byte) int64 { return int64(binary.BigEndian.Uint64(obj)) }

// apply is one turn's effect on the object, shared by the threads and
// the replay.
func (h *handoff) apply(obj []byte, r int64) {
	off, pat := h.stripe(r)
	copy(obj[off:], pat)
	binary.BigEndian.PutUint64(obj, uint64(r+1))
}

func (h *handoff) setup() (int, error) {
	h.close()
	sys, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		return 0, err
	}
	h.sys = sys
	h.lock = sys.NewLock()
	opts := protocol.DefaultOptions()
	opts.Lock = h.lock
	h.obj = sys.Alloc("handoff.obj", hoSize, protocol.Migratory, opts, h.init)
	h.bar = sys.NewBarrier()
	h.round = 0
	h.want = append([]byte(nil), h.init...)
	_, _, failed := h.rounds(nil, nil, hoWarm)
	return failed, nil
}

func (h *handoff) chunk(tr *tracer, lat []float64) ([]float64, int, int, error) {
	lat, n, failed := h.rounds(tr, lat, hoChunk)
	return lat, n, failed, nil
}

// rounds runs n turns in one Run and replays them.
func (h *handoff) rounds(tr *tracer, lat []float64, n int) ([]float64, int, int) {
	base, first := h.round, h.ops
	took := make([]float64, n)
	bad := make([]bool, n)
	tr.wrap(h.sys).Run(2, func(c api.Ctx) {
		me := int64(c.ThreadID())
		obj := make([]byte, hoSize)
		for i := range n {
			r := base + int64(i)
			turn(c, first+int64(i))
			if r%2 != me {
				c.Barrier(h.bar, 2)
				continue
			}
			t0 := time.Now()
			c.Acquire(h.lock)
			c.Read(h.obj, 0, obj)
			bad[i] = stamp(obj) != r
			off, pat := h.stripe(r)
			c.Write(h.obj, off, pat)
			var st [8]byte
			binary.BigEndian.PutUint64(st[:], uint64(r+1))
			c.Write(h.obj, 0, st[:])
			c.Release(h.lock)
			c.Barrier(h.bar, 2)
			took[i] = float64(time.Since(t0)) / 1e6
		}
	})
	failed := 0
	for i := range n {
		h.apply(h.want, base+int64(i))
		if bad[i] {
			failed++
		}
	}
	h.round += int64(n)
	h.ops += int64(n)
	return append(lat, took...), n, failed
}

// verify reads the object under its lock and compares it with the
// replay.
func (h *handoff) verify() (bool, error) {
	final := make([]byte, hoSize)
	h.sys.Run(1, func(c api.Ctx) {
		c.Acquire(h.lock)
		c.Read(h.obj, 0, final)
		c.Release(h.lock)
	})
	return bytes.Equal(final, h.want), nil
}

func (h *handoff) counters() counters {
	var c counters
	c.add(h.sys)
	return c
}

func (h *handoff) heapLive() (float64, error) { return heapLiveMiB(), nil }

func (h *handoff) close() {
	if h.sys != nil {
		h.sys.Close()
		h.sys = nil
	}
}

func (h *handoff) shape() probeShape {
	return probeShape{payload: hoSize, objSize: hoSize, runs: 1, runLen: hoStripe}
}

// fill returns n deterministic pseudo-random bytes for (seed, stream).
func fill(seed, stream int64, n int) []byte {
	b := make([]byte, n)
	x := mix(seed, stream)
	for i := 0; i+8 <= n; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// mix hashes (seed, i) to 64 well-mixed bits (splitmix64).
func mix(seed, i int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}
