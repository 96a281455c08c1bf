package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"munin/internal/api"
	"munin/internal/core"
	"munin/internal/dlock"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/protocol"
	"munin/internal/transport"
)

// The mesh shape: a 16 KiB write-many table in 64 slots of 256 bytes;
// every round rewrites 4 of them.
const (
	mrSlot    = 256
	mrSlots   = 64
	mrTable   = mrSlot * mrSlots
	mrStripes = 4
	mrChunk   = 128 // rounds per Run
	mrWarm    = 32  // warm-up rounds per set-up
)

// meshRW runs two SPMD members (Config.Topology) in this process,
// joined by one loopback TCP connection, one DSM thread each. In round
// r, member w = r%2's thread rewrites four slots of the table and stamps
// the round into its record rec[w], and both meet at a barrier; then the
// other member's thread reads the record and the four slots back and
// checks them. The table is write-many, so the writer's barrier flushes
// a diff that the home relays to the other copy. Each record is a
// replicated read-mostly object in invalidate mode, homed at its
// writer: the stamp invalidates the reader's copy, so every read of it
// is a read fault.
type meshRW struct {
	seed     int64
	init     []byte
	patterns [][]byte

	sys   [2]*core.System
	ids   [2]meshIDs // ids[i]: the shared objects as member i named them
	round int64      // rounds run on sys
	want  []byte     // plain-Go replay of the table after those rounds
	ops   int64      // rounds run in every set-up so far: the next op's trace id
}

// meshIDs names the shared objects on one member. Both members allocate
// in the same order, so the names agree.
type meshIDs struct {
	table api.RegionID
	rec   [2]api.RegionID // rec[w]: the stamp of member w's last round
	bar   dlock.BarrierID
}

func newMeshRW(seed int64) *meshRW {
	m := &meshRW{seed: seed, init: fill(seed, -2, mrTable)}
	for i := 0; i < mrSlots; i++ {
		m.patterns = append(m.patterns, fill(seed, int64(1000+i), mrSlot))
	}
	return m
}

// slot returns the offset and contents of stripe j of round r. A
// round's stripes are distinct slots, so none overwrites another. The
// writer stamps the round over a stripe's first 8 bytes, so every
// stripe differs from what its slot held before and every round has a
// diff to send.
func (m *meshRW) slot(r int64, j int) (int, []byte) {
	x := mix(m.seed, r)
	s := (int(x%mrSlots) + j*(mrSlots/mrStripes)) % mrSlots
	return s * mrSlot, m.patterns[(int(x>>32)+j)%mrSlots]
}

func (m *meshRW) setup() (int, error) {
	m.close()
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		return 0, err
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	m.round = 0
	m.want = append([]byte(nil), m.init...)
	// Each member is built and runs its first Run in its own goroutine,
	// as the two processes of an SPMD program started together would. A
	// member whose first Run dials before its peer has bound its
	// listener waits out the dial back-off, and set-up includes that.
	boot := func(i int) error {
		topo := transport.Topology{Self: msg.NodeID(i), Peers: peers}
		sys, err := core.New(core.Config{Topology: &topo})
		if err != nil {
			return err
		}
		m.sys[i] = sys
		ids := &m.ids[i]
		ids.table = sys.Alloc("mesh.table", mrTable, protocol.WriteMany, protocol.DefaultOptions(), m.init)
		for w := range ids.rec {
			opts := protocol.DefaultOptions()
			opts.Home, opts.Update, opts.ForceReplicated = msg.NodeID(w), protocol.Invalidate, true
			ids.rec[w] = sys.Alloc(fmt.Sprintf("mesh.record.%d", w), 8, protocol.ReadMostly, opts, nil)
		}
		ids.bar = sys.NewBarrier()
		return nil
	}
	_, _, failed, err := m.rounds(nil, nil, mrWarm, boot)
	return failed, err
}

func (m *meshRW) chunk(tr *tracer, lat []float64) ([]float64, int, int, error) {
	return m.rounds(tr, lat, mrChunk, nil)
}

// members runs body as one Run on both members at once, as the two
// processes of an SPMD program would. A non-nil boot(i) runs first in
// member i's goroutine, and the Run is skipped if it fails.
func (m *meshRW) members(tr *tracer, nthreads int, boot func(i int) error, body func(c api.Ctx)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(m.sys))
	for i := range m.sys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("member %d: %v", i, p)
				}
			}()
			if boot != nil {
				if errs[i] = boot(i); errs[i] != nil {
					return
				}
			}
			tr.wrap(m.sys[i]).Run(nthreads, body)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rounds runs n rounds in one Run on each member, after boot if it is
// non-nil, and replays them.
func (m *meshRW) rounds(tr *tracer, lat []float64, n int, boot func(i int) error) ([]float64, int, int, error) {
	base, first := m.round, m.ops
	epoch := time.Now()
	// The writer and the reader of a round are on different members,
	// ordered only by the barrier's messages, so the start time crosses
	// between them atomically.
	start := make([]atomic.Int64, n)
	took := make([]float64, n)
	bad := make([]bool, n)
	err := m.members(tr, 2, boot, func(c api.Ctx) {
		me := int64(c.ThreadID())
		ids := &m.ids[me]
		buf := make([]byte, mrSlot)
		var st [8]byte
		for i := range n {
			r := base + int64(i)
			turn(c, first+int64(i))
			if r%2 == me {
				start[i].Store(int64(time.Since(epoch)))
				binary.BigEndian.PutUint64(st[:], uint64(r+1))
				for j := range mrStripes {
					off, b := m.slot(r, j)
					c.Write(ids.table, off, b)
					c.Write(ids.table, off, st[:])
				}
				c.Write(ids.rec[me], 0, st[:])
				c.Barrier(ids.bar, 2)
				continue
			}
			c.Barrier(ids.bar, 2)
			c.Read(ids.rec[1-me], 0, st[:])
			bad[i] = stamp(st[:]) != r+1
			for j := range mrStripes {
				off, _ := m.slot(r, j)
				c.Read(ids.table, off, buf)
				if !m.stripeOK(buf, r, j) {
					bad[i] = true
				}
			}
			took[i] = float64(int64(time.Since(epoch))-start[i].Load()) / 1e6
		}
	})
	if err != nil {
		return lat, 0, 0, err
	}
	failed := 0
	for i := range n {
		for j := range mrStripes {
			off, b := m.slot(base+int64(i), j)
			copy(m.want[off:], b)
			binary.BigEndian.PutUint64(m.want[off:], uint64(base+int64(i)+1))
		}
		if bad[i] {
			failed++
		}
	}
	m.round += int64(n)
	m.ops += int64(n)
	return append(lat, took...), n, failed, nil
}

// stripeOK reports whether buf holds stripe j as round r wrote it.
func (m *meshRW) stripeOK(buf []byte, r int64, j int) bool {
	_, b := m.slot(r, j)
	return stamp(buf) == r+1 && bytes.Equal(buf[8:], b[8:])
}

// verify compares both members' digests of the table and the records
// with the replay's.
func (m *meshRW) verify() (bool, error) {
	var got [2]uint64
	err := m.members(nil, 2, nil, func(c api.Ctx) {
		ids := &m.ids[c.ThreadID()]
		buf := make([]byte, mrTable+16)
		c.Read(ids.table, 0, buf[:mrTable])
		c.Read(ids.rec[0], 0, buf[mrTable:mrTable+8])
		c.Read(ids.rec[1], 0, buf[mrTable+8:])
		got[c.ThreadID()] = digest(buf)
	})
	if err != nil {
		return false, err
	}
	// Member w last wrote in round r, the last round with r%2 == w,
	// and stamped it r+1.
	last := func(w int64) uint64 {
		r := m.round - 1
		if r%2 != w {
			r--
		}
		return uint64(max(r+1, 0))
	}
	b := append([]byte(nil), m.want...)
	b = binary.BigEndian.AppendUint64(b, last(0))
	b = binary.BigEndian.AppendUint64(b, last(1))
	want := digest(b)
	return got[0] == want && got[1] == want, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (m *meshRW) counters() counters {
	var c counters
	for _, sys := range m.sys {
		c.add(sys)
	}
	return c
}

func (m *meshRW) heapLive() (float64, error) { return heapLiveMiB(), nil }

// close shuts both members down together: each one's goodbye waits for
// the other's acknowledgement.
func (m *meshRW) close() {
	var wg sync.WaitGroup
	for i, sys := range m.sys {
		if sys == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys.Close()
		}()
		m.sys[i] = nil
	}
	wg.Wait()
}

func (m *meshRW) shape() probeShape {
	return probeShape{mesh: true, payload: mrStripes * mrSlot, objSize: mrTable, runs: mrStripes, runLen: mrSlot}
}
