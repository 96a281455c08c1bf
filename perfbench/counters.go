package main

import (
	"runtime"

	"munin/internal/bufpool"
	"munin/internal/core"
)

// counters is a cumulative snapshot of what the program itself counts,
// summed over every node of every system a workload has run on.
type counters struct {
	msgs, bytes   int64
	protocol      map[string]int64 // NodeCounters, summed over nodes
	lockMsgs      int64            // transport "lock" class
	lockBytes     int64
	syncMsgs      int64 // transport "sync" class
	remoteAcq     int64 // dlock.Service.RemoteAcquires
	wireWrites    int64
	wireFrames    int64
	wireCoalesced int64
	queueStalls   int64
}

// add accumulates sys's counters. In mesh shape a system holds one
// member's node and that member's view of the traffic; adding every
// member gives the cluster's.
func (c *counters) add(sys *core.System) {
	if c.protocol == nil {
		c.protocol = make(map[string]int64)
	}
	st := sys.Stats()
	c.msgs += st.Messages()
	c.bytes += st.Bytes()
	c.lockMsgs += st.ClassMessages("lock")
	c.lockBytes += st.ClassBytes("lock")
	c.syncMsgs += st.ClassMessages("sync")
	c.wireWrites += st.WireWrites()
	c.wireFrames += st.WireFrames()
	c.wireCoalesced += st.WireCoalesced()
	c.queueStalls += st.WireQueueStalls()
	for i := 0; i < sys.Nodes(); i++ {
		if self := sys.Self(); self >= 0 && i != self {
			continue
		}
		for k, v := range sys.NodeCounters(i) {
			c.protocol[k] += v
		}
		c.remoteAcq += sys.LockService(i).RemoteAcquires()
	}
}

// plus adds o to c.
func (c *counters) plus(o counters) {
	if c.protocol == nil {
		c.protocol = make(map[string]int64)
	}
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.lockMsgs += o.lockMsgs
	c.lockBytes += o.lockBytes
	c.syncMsgs += o.syncMsgs
	c.remoteAcq += o.remoteAcq
	c.wireWrites += o.wireWrites
	c.wireFrames += o.wireFrames
	c.wireCoalesced += o.wireCoalesced
	c.queueStalls += o.queueStalls
	for k, v := range o.protocol {
		c.protocol[k] += v
	}
}

// minus returns c - o.
func (c counters) minus(o counters) counters {
	d := counters{
		msgs: c.msgs - o.msgs, bytes: c.bytes - o.bytes,
		lockMsgs: c.lockMsgs - o.lockMsgs, lockBytes: c.lockBytes - o.lockBytes,
		syncMsgs: c.syncMsgs - o.syncMsgs, remoteAcq: c.remoteAcq - o.remoteAcq,
		wireWrites: c.wireWrites - o.wireWrites, wireFrames: c.wireFrames - o.wireFrames,
		wireCoalesced: c.wireCoalesced - o.wireCoalesced, queueStalls: c.queueStalls - o.queueStalls,
		protocol: make(map[string]int64),
	}
	for k, v := range c.protocol {
		d.protocol[k] = v - o.protocol[k]
	}
	return d
}

// process is the process-wide state read around the timed ops: bytes
// allocated on the heap, GC cycles, and the pooled-buffer arena's fresh
// allocations and oversize bypasses.
type process struct {
	alloc, gcs       int64
	poolNew, poolBig int64
}

func readProcess() process {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	_, _, news, oversize := bufpool.Stats()
	return process{alloc: int64(ms.TotalAlloc), gcs: int64(ms.NumGC), poolNew: news, poolBig: oversize}
}

func (p process) minus(o process) process {
	return process{p.alloc - o.alloc, p.gcs - o.gcs, p.poolNew - o.poolNew, p.poolBig - o.poolBig}
}

func (p *process) plus(o process) {
	p.alloc += o.alloc
	p.gcs += o.gcs
	p.poolNew += o.poolNew
	p.poolBig += o.poolBig
}

// heapLiveMiB forces a full collection and returns the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
