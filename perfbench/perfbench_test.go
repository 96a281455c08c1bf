package main

import (
	"encoding/binary"
	"testing"

	"munin/internal/api"
	"munin/internal/core"
)

// runChunks sets w up, runs n chunks and fails the test on any failed
// op or final check.
func runChunks(t *testing.T, w workload, n int) {
	t.Helper()
	if failed, err := w.setup(); err != nil || failed != 0 {
		t.Fatalf("setup: %d warm-up ops failed, err %v", failed, err)
	}
	for range n {
		_, ops, failed, err := w.chunk(nil, nil)
		if err != nil || ops == 0 || failed != 0 {
			t.Fatalf("chunk: %d of %d ops failed, err %v", failed, ops, err)
		}
	}
	if ok, err := w.verify(); err != nil || !ok {
		t.Fatalf("final check: ok=%v err=%v", ok, err)
	}
}

func TestStudyChecksResults(t *testing.T) {
	s := newStudy(3)
	defer s.close()
	runChunks(t, s, 1)
	for _, p := range s.progs {
		sys, err := core.New(core.Config{Nodes: studyNodes})
		if err != nil {
			t.Fatal(err)
		}
		got := p.run(sys)
		sys.Close()
		if !resultOK(got, p.want) {
			t.Errorf("%s: result %v, reference %v", p.name, got, p.want)
		}
		if resultOK(got+1, p.want) {
			t.Errorf("%s: corrupted result %v accepted", p.name, got+1)
		}
	}
}

func TestHandoffChecksStampsAndReplay(t *testing.T) {
	h := newHandoff(5)
	defer h.close()
	runChunks(t, h, 2)

	// A stamp the last holder did not write fails the next turn only:
	// that turn writes its own stamp.
	corrupt := func(off int, b []byte) {
		h.sys.Run(1, func(c api.Ctx) {
			c.Acquire(h.lock)
			c.Write(h.obj, off, b)
			c.Release(h.lock)
		})
	}
	corrupt(0, make([]byte, 8))
	if _, ops, failed, err := h.chunk(nil, nil); err != nil || failed != 1 {
		t.Fatalf("after a lost stamp: %d of %d ops failed (want 1), err %v", failed, ops, err)
	}
	if ok, _ := h.verify(); !ok {
		t.Fatal("final check failed although every later turn was right")
	}
	corrupt(hoSize-1, []byte{^h.want[hoSize-1]})
	if ok, _ := h.verify(); ok {
		t.Fatal("final check accepted a corrupted object")
	}
}

func TestMeshRWChecksStripesAndDigests(t *testing.T) {
	m := newMeshRW(7)
	defer m.close()
	runChunks(t, m, 1)

	off, b := m.slot(m.round, 0)
	good := append([]byte(nil), b...)
	binary.BigEndian.PutUint64(good, uint64(m.round+1))
	if !m.stripeOK(good, m.round, 0) {
		t.Fatal("stripe check rejected a correct stripe")
	}
	for _, i := range []int{0, 9, mrSlot - 1} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 1
		if m.stripeOK(bad, m.round, 0) {
			t.Fatalf("stripe check accepted a stripe corrupted at byte %d", i)
		}
	}

	// One member's thread overwrites a slot outside any round: both
	// members then read it, and their digests no longer match the replay.
	if err := m.members(nil, 2, nil, func(c api.Ctx) {
		if c.ThreadID() == 0 {
			c.Write(m.ids[0].table, off, make([]byte, mrSlot))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if ok, err := m.verify(); err != nil || ok {
		t.Fatalf("final check accepted a corrupted table (err %v)", err)
	}
}

// A traced op keeps its own id across set-ups, so app self time is
// summed per op, not over the same round of several set-ups.
func TestTraceOpIDsSpanSetups(t *testing.T) {
	for name, w := range map[string]workload{"handoff": newHandoff(2), "mesh_rw": newMeshRW(2)} {
		tr := newTracer()
		ops := 0
		for range 2 {
			if _, err := w.setup(); err != nil {
				t.Fatal(err)
			}
			_, n, _, err := w.chunk(tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			ops += n
		}
		w.close()
		if got := len(tr.appSelfMs()); got != ops {
			t.Errorf("%s: %d op ids for %d traced ops", name, got, ops)
		}
	}
}

// Every latency falls in exactly one window, in order, and no window
// holds fewer than window ops unless the segment does.
func TestWindowsCoverEveryOp(t *testing.T) {
	for _, n := range []int{0, 1, window - 1, window, 2*window - 1, 2 * window, 5*window + 17} {
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = float64(i)
		}
		next := 0
		for _, win := range windows(lat) {
			if len(win) < min(window, n) || len(win) >= 2*window {
				t.Errorf("n=%d: window of %d ops", n, len(win))
			}
			for _, x := range win {
				if x != float64(next) {
					t.Fatalf("n=%d: op %v where op %d was due", n, x, next)
				}
				next++
			}
		}
		if next != n {
			t.Errorf("n=%d: windows hold %d ops", n, next)
		}
	}
}
