package main

import (
	"fmt"
	"sync"
	"time"

	"munin/internal/cluster"
	"munin/internal/core"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/netutil"
	"munin/internal/transport"
	"munin/internal/vkernel"
)

// probeShape fixes the sizes the inner-layer probes run at, taken from
// the workload: the vkernel call payload, the object a diff and twin are
// taken of, the dirty runs in it, and whether locks cross the mesh.
type probeShape struct {
	mesh         bool
	payload      int
	objSize      int
	runs, runLen int
}

// Probe sample counts. Each probe times single calls, so a count fixes
// the probe's share of a traced run whatever --seconds is.
const (
	probeCodec = 4000 // memory and msg calls
	probeCalls = 1000 // vkernel round trips per transport
	probeLocks = 400  // remote lock acquisitions
)

// probeKind is a vkernel message kind no runtime layer registers: the
// probe clusters carry no DSM traffic, only the echo below.
const probeKind = msg.KindAppBase + 0xf0

// probe times calls into the inner layers at the workload's shapes.
func probe(sh probeShape) ([]metric, error) {
	out := memoryProbes(sh)
	codec, err := codecProbes(sh)
	if err != nil {
		return nil, err
	}
	calls, err := callProbes(sh)
	if err != nil {
		return nil, err
	}
	lock, err := lockProbe(sh)
	if err != nil {
		return nil, err
	}
	return append(append(append(out, codec...), calls...), lock), nil
}

// timeN times n calls of f, in µs each.
func timeN(n int, f func()) []float64 {
	s := make([]float64, n)
	for i := range s {
		t0 := time.Now()
		f()
		s[i] = float64(time.Since(t0)) / 1e3
	}
	return s
}

func p50(name string, s []float64) metric { return metric{name, quantile(s, 0.5), "us", len(s)} }
func p90(name string, s []float64) metric { return metric{name, quantile(s, 0.9), "us", len(s)} }

// dirty returns a twin of objSize bytes and a copy of it with the
// shape's runs rewritten, spread evenly over the object.
func dirty(sh probeShape) (twin, cur []byte) {
	twin = fill(99, 0, sh.objSize)
	cur = append([]byte(nil), twin...)
	step := sh.objSize / sh.runs
	for i := 0; i < sh.runs; i++ {
		for j := 0; j < sh.runLen; j++ {
			cur[i*step+j] ^= 0x5a
		}
	}
	return twin, cur
}

func memoryProbes(sh probeShape) []metric {
	twin, cur := dirty(sh)
	var spans []memory.Span
	var buf, dst []byte
	diff := timeN(probeCodec, func() { spans, buf = memory.Diff(spans[:0], buf[:0], twin, cur, 0) })
	tw := timeN(probeCodec, func() { dst = memory.MakeTwinInto(dst, cur) })
	return []metric{p50("memory.diff_us_p50", diff), p50("memory.twin_us_p50", tw)}
}

// codecProbes time a diff's span encoding packed into a one-entry
// frame, and the reverse.
func codecProbes(sh probeShape) ([]metric, error) {
	twin, cur := dirty(sh)
	spans := memory.DiffAlloc(twin, cur, 0)
	b := msg.NewBuilder(memory.EncodedSpansSize(spans))
	var frame []byte
	enc := timeN(probeCodec, func() {
		b.Reset(b.Bytes()[:0])
		memory.EncodeSpans(b, spans)
		frame = msg.EncodeFrame([][]byte{b.Bytes()})
	})
	var got []memory.Span
	var buf []byte
	var decErr error
	dec := timeN(probeCodec, func() {
		entries, err := msg.DecodeFrameRaw(frame)
		if err != nil {
			decErr = err
			return
		}
		got, buf = memory.DecodeSpansInto(got[:0], buf[:0], msg.NewReader(entries[0]))
	})
	if decErr != nil || len(got) != len(spans) {
		return nil, fmt.Errorf("codec probe: decoded %d of %d spans: %v", len(got), len(spans), decErr)
	}
	return []metric{p50("msg.encode_us_p50", enc), p50("msg.decode_us_p50", dec)}, nil
}

// echo acknowledges a probe call with an empty reply, as a flush's
// destination acknowledges a batch.
func echo(k *vkernel.Kernel, req *msg.Msg) {
	_ = k.Reply(req, nil) // a lost reply fails the caller's Call
}

// callProbes time vkernel.Call round trips carrying the workload's
// payload, over the chan transport and across a two-member mesh.
func callProbes(sh probeShape) ([]metric, error) {
	payload := fill(98, 0, sh.payload)
	chanClu, err := cluster.New(cluster.Config{Nodes: 2})
	if err != nil {
		return nil, err
	}
	chanClu.Kernel(1).Handle(probeKind, probeKind, echo)
	ch, err := timeCalls(chanClu.Kernel(0), payload)
	chanClu.Close()
	if err != nil {
		return nil, fmt.Errorf("chan call probe: %w", err)
	}

	topos, err := meshTopologies()
	if err != nil {
		return nil, err
	}
	var mesh [2]*cluster.Cluster
	defer closeAll(len(mesh), func(i int) {
		if mesh[i] != nil {
			mesh[i].Close()
		}
	})
	for i := range mesh {
		if mesh[i], err = cluster.New(cluster.Config{Topology: &topos[i]}); err != nil {
			return nil, err
		}
	}
	mesh[1].Kernel(1).Handle(probeKind, probeKind, echo)
	ms, err := timeCalls(mesh[0].Kernel(0), payload)
	if err != nil {
		return nil, fmt.Errorf("mesh call probe: %w", err)
	}
	return []metric{
		p50("vkernel.call_chan_us_p50", ch), p90("vkernel.call_chan_us_p90", ch),
		p50("vkernel.call_mesh_us_p50", ms), p90("vkernel.call_mesh_us_p90", ms),
	}, nil
}

// timeCalls times round trips from k to node 1. The first call, which
// dials the mesh, is not timed.
func timeCalls(k *vkernel.Kernel, payload []byte) ([]float64, error) {
	var err error
	call := func() {
		if _, cerr := k.Call(1, probeKind, payload); cerr != nil && err == nil {
			err = cerr
		}
	}
	call()
	s := timeN(probeCalls, call)
	return s, err
}

// meshTopologies reserves two loopback addresses for a two-member mesh.
func meshTopologies() ([2]transport.Topology, error) {
	addrs, err := netutil.ReserveAddrs(2)
	if err != nil {
		return [2]transport.Topology{}, err
	}
	peers := map[msg.NodeID]string{0: addrs[0], 1: addrs[1]}
	return [2]transport.Topology{{Self: 0, Peers: peers}, {Self: 1, Peers: peers}}, nil
}

// closeAll runs close(i) for i < n at once and waits: mesh members'
// goodbyes wait on each other.
func closeAll(n int, close func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(i)
		}()
	}
	wg.Wait()
}

// lockProbe times acquisitions of a lock with no attached data that
// alternates between two nodes, so every acquisition is remote: on two
// in-process nodes, or on two mesh members for a mesh workload.
func lockProbe(sh probeShape) (metric, error) {
	var sys [2]*core.System
	if sh.mesh {
		topos, err := meshTopologies()
		if err != nil {
			return metric{}, err
		}
		defer closeAll(len(sys), func(i int) {
			if sys[i] != nil {
				sys[i].Close()
			}
		})
		for i := range sys {
			if sys[i], err = core.New(core.Config{Topology: &topos[i]}); err != nil {
				return metric{}, err
			}
		}
		sys[1].NewLock()
	} else {
		s, err := core.New(core.Config{Nodes: 2})
		if err != nil {
			return metric{}, err
		}
		defer s.Close()
		sys = [2]*core.System{s, s}
	}
	lock := sys[0].NewLock()
	var samples []float64
	for i := 0; i < probeLocks+1; i++ {
		ls := sys[i%2].LockService(i % 2)
		t0 := time.Now()
		ls.Acquire(lock)
		d := float64(time.Since(t0)) / 1e3
		ls.Release(lock)
		if i > 0 { // the first acquisition dials the mesh
			samples = append(samples, d)
		}
	}
	return p50("dlock.acquire_us_p50", samples), nil
}
