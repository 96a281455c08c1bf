package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"munin/internal/api"
	"munin/internal/dlock"
)

// spanKind names what a span covers. run, thread and turn are
// containers; the rest are one api.Ctx call each, except flush, which
// is also the child of every synchronizing call (see tracedCtx.sync).
type spanKind uint8

const (
	spanRun spanKind = iota
	spanThread
	spanTurn
	spanRead
	spanWrite
	spanAcquire
	spanRelease
	spanBarrier
	spanFetchAdd
	spanFlush
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"run", "thread", "turn", "read", "write", "acquire", "release", "barrier", "fetchadd", "flush",
}

// keptSpans bounds how many spans one run keeps for the span file; the
// self-time samples behind the per-layer metrics are kept for every span.
const keptSpans = 20_000

// span is one traced interval. Times are nanoseconds since the tracer
// was made; self is the part of the interval no child span covers.
type span struct {
	id, parent int64
	op         int64 // the op the span belongs to; -1 for run-level spans
	start, end int64
	self       int64
	kind       spanKind
}

// tracer collects spans from a tracedSystem and its contexts. Spans are
// kept in memory and written out by writeSpans when the run ends.
type tracer struct {
	base   time.Time
	nextID atomic.Int64
	// op is stamped on Run and thread spans: the harness sets it before
	// each op whose Runs belong to one op (study). Workloads that run
	// many ops inside one Run tag them per thread with turn instead.
	op atomic.Int64

	mu      sync.Mutex
	kept    []span
	dropped int64
	self    [numSpanKinds][]float32 // self time per span, µs
	appSelf map[int64]int64         // op -> ns spent in the benchmark's own code
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), appSelf: make(map[int64]int64)}
	t.op.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record stores finished spans and their self-time samples.
func (t *tracer) record(spans []span, appSelf map[int64]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		t.self[s.kind] = append(t.self[s.kind], float32(s.self)/1e3)
		if len(t.kept) < keptSpans {
			t.kept = append(t.kept, s)
		} else {
			t.dropped++
		}
	}
	for op, ns := range appSelf {
		t.appSelf[op] += ns
	}
}

// selfUs returns the self-time samples of one span kind, in µs.
func (t *tracer) selfUs(k spanKind) []float32 { return t.self[k] }

// appSelfMs returns, per op, the time the op's threads spent in the
// benchmark's own code (container self time), in ms.
func (t *tracer) appSelfMs() []float64 {
	out := make([]float64, 0, len(t.appSelf))
	for _, ns := range t.appSelf {
		out = append(out, float64(ns)/1e6)
	}
	return out
}

// writeSpans writes the kept spans as JSON lines, one span per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(struct {
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			Op     int64  `json:"op"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Self   int64  `json:"self_ns"`
		}{s.id, s.parent, s.op, spanNames[s.kind], s.start, s.end, s.self}); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\": %d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedSystem decorates an api.System so every Run, thread and api.Ctx
// call records a span. Programs written against api.System run on it
// unchanged.
type tracedSystem struct {
	api.System
	tr *tracer
}

// wrap returns sys traced by t, or sys itself when t is nil.
func (t *tracer) wrap(sys api.System) api.System {
	if t == nil {
		return sys
	}
	return &tracedSystem{System: sys, tr: t}
}

// Run records a run span around the inner Run and a thread span around
// each thread body. The run span's self time is the part of it no
// thread covers: thread start-up, the run gates and the exit flush wait.
func (s *tracedSystem) Run(nthreads int, body func(c api.Ctx)) {
	tr := s.tr
	op := tr.op.Load()
	id := tr.nextID.Add(1)
	start := tr.now()
	var mu sync.Mutex
	var threads [][2]int64
	s.System.Run(nthreads, func(c api.Ctx) {
		tc := &tracedCtx{Ctx: c, tr: tr, appSelf: make(map[int64]int64)}
		tc.open(spanThread, id, op)
		body(tc)
		iv := tc.closeAll()
		tr.record(tc.spans, tc.appSelf)
		mu.Lock()
		threads = append(threads, iv)
		mu.Unlock()
	})
	end := tr.now()
	tr.record([]span{{id: id, parent: -1, op: op, start: start, end: end,
		self: end - start - union(threads), kind: spanRun}}, nil)
}

// union returns the total length covered by the intervals.
func union(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + curHi - curLo
}

// container is an open thread or turn span: its api.Ctx calls are its
// children.
type container struct {
	id, parent, op int64
	start, child   int64
	kind           spanKind
}

// tracedCtx decorates one thread's api.Ctx. Spans are buffered per
// thread and handed to the tracer when the thread ends.
type tracedCtx struct {
	api.Ctx
	tr      *tracer
	spans   []span
	appSelf map[int64]int64
	stack   []container // thread, then the open turn if any
}

func (c *tracedCtx) open(kind spanKind, parent, op int64) {
	c.stack = append(c.stack, container{id: c.tr.nextID.Add(1), parent: parent, op: op,
		start: c.tr.now(), kind: kind})
}

// closeTop ends the innermost container. Its self time is time spent in
// the benchmark body rather than in the runtime, and is charged to the
// container's op.
func (c *tracedCtx) closeTop() [2]int64 {
	top := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	end := c.tr.now()
	self := end - top.start - top.child
	c.spans = append(c.spans, span{id: top.id, parent: top.parent, op: top.op,
		start: top.start, end: end, self: self, kind: top.kind})
	if top.op >= 0 {
		c.appSelf[top.op] += self
	}
	if n := len(c.stack); n > 0 {
		c.stack[n-1].child += end - top.start
	}
	return [2]int64{top.start, end}
}

func (c *tracedCtx) closeAll() (thread [2]int64) {
	for len(c.stack) > 0 {
		thread = c.closeTop()
	}
	return thread
}

// turn starts op's part of this thread: it ends the previous turn, if
// any, and opens a turn span that the following calls belong to.
func (c *tracedCtx) turn(op int64) {
	if c.stack[len(c.stack)-1].kind == spanTurn {
		c.closeTop()
	}
	c.open(spanTurn, c.stack[0].id, op)
}

// leaf records one api.Ctx call as a child of the open container;
// childNs is the part of it covered by its own child span.
func (c *tracedCtx) leaf(kind spanKind, start, end, childNs int64) int64 {
	top := &c.stack[len(c.stack)-1]
	top.child += end - start
	id := c.tr.nextID.Add(1)
	c.spans = append(c.spans, span{id: id, parent: top.id, op: top.op,
		start: start, end: end, self: end - start - childNs, kind: kind})
	return id
}

// sync traces a synchronizing call. The runtime flushes the delayed
// update queue first thing in every one of them; the wrapper makes that
// flush an explicit Flush so it gets its own child span, which leaves
// the inner call's own flush with nothing to send.
func (c *tracedCtx) sync(kind spanKind, call func()) {
	t0 := c.tr.now()
	c.Ctx.Flush()
	t1 := c.tr.now()
	call()
	t2 := c.tr.now()
	id := c.leaf(kind, t0, t2, t1-t0)
	op := c.stack[len(c.stack)-1].op
	c.spans = append(c.spans, span{id: c.tr.nextID.Add(1), parent: id, op: op,
		start: t0, end: t1, self: t1 - t0, kind: spanFlush})
}

func (c *tracedCtx) Read(r api.RegionID, off int, buf []byte) {
	t0 := c.tr.now()
	c.Ctx.Read(r, off, buf)
	c.leaf(spanRead, t0, c.tr.now(), 0)
}

func (c *tracedCtx) Write(r api.RegionID, off int, data []byte) {
	t0 := c.tr.now()
	c.Ctx.Write(r, off, data)
	c.leaf(spanWrite, t0, c.tr.now(), 0)
}

func (c *tracedCtx) Flush() {
	t0 := c.tr.now()
	c.Ctx.Flush()
	c.leaf(spanFlush, t0, c.tr.now(), 0)
}

func (c *tracedCtx) Acquire(l dlock.LockID) { c.sync(spanAcquire, func() { c.Ctx.Acquire(l) }) }
func (c *tracedCtx) Release(l dlock.LockID) { c.sync(spanRelease, func() { c.Ctx.Release(l) }) }

func (c *tracedCtx) Barrier(b dlock.BarrierID, n int) {
	c.sync(spanBarrier, func() { c.Ctx.Barrier(b, n) })
}

func (c *tracedCtx) FetchAdd(a dlock.AtomicID, delta int64) (v int64) {
	c.sync(spanFetchAdd, func() { v = c.Ctx.FetchAdd(a, delta) })
	return v
}

// turn tags the calls c makes from here on with op, when c is traced.
func turn(c api.Ctx, op int64) {
	if tc, ok := c.(*tracedCtx); ok {
		tc.turn(op)
	}
}
