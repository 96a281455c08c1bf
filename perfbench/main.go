// Command perfbench is munin's benchmark. It drives one closed-loop
// workload through the public DSM API for a fixed time, checks every
// op's output against an independent computation, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Run it from the root of a munin checkout through run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload handoff --seed 7 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one closed-loop workload. Ops run in whole chunks of a
// fixed size, so every run attempts a whole number of identical rounds.
type workload interface {
	// setup builds the workload's systems and warms them up, closing
	// any it built before. It returns how many warm-up ops failed their
	// check.
	setup() (int, error)
	// chunk runs one chunk of ops, traced by tr when tr is non-nil, and
	// appends each op's latency in ms to lat. It returns the number of
	// ops run and how many failed their check.
	chunk(tr *tracer, lat []float64) ([]float64, int, int, error)
	// counters returns the program's cumulative counters.
	counters() counters
	// verify checks the final shared state against a plain-Go replay of
	// every op run since the last setup.
	verify() (bool, error)
	// heapLive returns the live heap, in MiB, with the workload's
	// systems built and warm.
	heapLive() (float64, error)
	close()
	// shape gives the sizes the inner-layer probes run at.
	shape() probeShape
}

var workloads = map[string]func(seed int64) workload{
	"study":   func(seed int64) workload { return newStudy(seed) },
	"handoff": func(seed int64) workload { return newHandoff(seed) },
	"mesh_rw": func(seed int64) workload { return newMeshRW(seed) },
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // directory the span file is written to
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 9

// gomaxprocs: every workload's two DSM threads hand work back and
// forth. At GOMAXPROCS=2 the cross-CPU wake-ups made the runs slower
// and less steady, and the study pass's message count varied from run
// to run (see README.md).
const gomaxprocs = 1

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: study, handoff or mesh_rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long the timed ops run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 ||
		(traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload study|handoff|mesh_rw --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	res, table, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, m := range table {
		fmt.Printf("%-32s %14.6g %-7s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures the workload in setups segments of equal length.
// Each segment sets the workload up afresh, runs its timed ops and
// checks the final state, so the set-ups whose median is setup_s are
// spread over the whole run like the ops are.
func run(cfg config) (result, []metric, error) {
	runtime.GOMAXPROCS(gomaxprocs)
	w := workloads[cfg.workload](cfg.seed)
	defer w.close()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	correct := true
	t := timed{sp: newSpeedometer()}
	defer t.sp.close()
	segment := time.Duration(cfg.seconds) * time.Second / setups
	for range setups {
		warmFailed, err := t.segment(w, segment, tr)
		if err != nil {
			return result{}, nil, err
		}
		ok, err := w.verify()
		if err != nil {
			return result{}, nil, fmt.Errorf("verify: %w", err)
		}
		if warmFailed > 0 || !ok {
			correct = false
		}
	}

	var table, info []metric
	if !cfg.trace {
		samples := len(t.rawLat)
		info = []metric{
			{"unscaled.setup_s", median(t.rawSetupS), "s", len(t.rawSetupS)},
			{"unscaled.ops_per_s", median(t.rawRate), "1/s", len(t.rawRate)},
			{"unscaled.op_ms_p50", quantile(t.rawLat, 0.5), "ms", samples},
			{"unscaled.op_ms_p90", quantile(t.rawLat, 0.9), "ms", samples},
			{"calibration.kernel_ms_p50", median(t.sp.all), "ms", len(t.sp.all)},
		}
		table = []metric{
			{"setup_s", median(t.setupS), "s", len(t.setupS)},
			{"ops_per_s", median(t.rate), "1/s", len(t.rate)},
			{"op_ms_p50", median(t.p50), "ms", samples},
			{"op_ms_p90", median(t.p90), "ms", samples},
			{"msgs_per_op", perOp(t.d.msgs, t.ops), "1/op", 0},
			{"wire_kib_per_op", perOp(t.d.bytes, t.ops) / 1024, "KiB/op", 0},
			{"alloc_kib_per_op", perOp(t.proc.alloc, t.ops) / 1024, "KiB/op", 0},
		}
		// The heap reading is the program's, not the benchmark's: drop
		// every sample, whose number grows with the machine's speed.
		t.rawLat, t.p50, t.p90, t.rate, t.rawRate, t.sp = nil, nil, nil, nil, nil, nil
		heap, err := w.heapLive()
		if err != nil {
			return result{}, nil, fmt.Errorf("heap: %w", err)
		}
		table = append(table, metric{"heap_live_mib", heap, "MiB", 0})
	} else {
		// Every traced op must have its own id, or app self time would
		// sum over several ops.
		if got := len(tr.appSelfMs()); got != t.opsBy[1] {
			return result{}, nil, fmt.Errorf("trace: %d op ids for %d traced ops", got, t.opsBy[1])
		}
		table = layerMetrics(tr, t)
		untraced := float64(t.opsBy[0]) / t.busy[0].Seconds()
		traced := float64(t.opsBy[1]) / t.busy[1].Seconds()
		table = append(table, metric{"trace.overhead_pct", (untraced - traced) / untraced * 100, "%", 0})
		probes, err := probe(w.shape())
		if err != nil {
			return result{}, nil, fmt.Errorf("probe: %w", err)
		}
		table = append(table, probes...)
		path := filepath.Join(cfg.spans, cfg.workload+".jsonl")
		if err := tr.writeSpans(path); err != nil {
			return result{}, nil, fmt.Errorf("write spans: %w", err)
		}
	}
	res := result{Correct: correct, Attempted: t.ops, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, m := range table {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res, append(table, info...), nil
}

// timed sums up the set-ups and timed ops of every segment: their
// count, failures and latencies, and the counter and process deltas
// over them. Times are kept as measured and scaled to the reference
// speed (speed.go).
type timed struct {
	ops, failed       int
	opsBy             [2]int           // untraced, traced
	busy              [2]time.Duration // untraced, traced chunk time
	rate, rawRate     []float64        // each untraced chunk's ops per second: scaled, as measured
	p50, p90          []float64        // each window's op latency quantiles, ms, scaled
	rawLat            []float64        // op latency, ms, as measured
	setupS, rawSetupS []float64        // set-up time, s: scaled, as measured
	d                 counters
	proc              process
	sp                *speedometer
}

// segment sets w up and then runs whole chunks of ops until limit has
// passed. With a tracer, every other chunk is traced, and at least one
// chunk of each kind runs. The calibration kernel runs before the
// set-up and before each chunk, and the segment's times are scaled by
// the median of its kernel times: the op latencies, the chunk time and
// the CPU time of the set-up. The rest of the set-up's time, in which
// the process waits (the dial back-off of a mesh), is kept as measured.
// It returns how many warm-up ops failed.
func (t *timed) segment(w workload, limit time.Duration, tr *tracer) (int, error) {
	kernel := []float64{t.sp.sample()}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	warmFailed, err := w.setup()
	setup := time.Since(t0).Seconds()
	setupCPU := min(cpuSeconds()-cpu0, setup)
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	c0, p0 := w.counters(), readProcess()
	var lat, rates []float64 // op latencies, untraced chunks' ops per second
	start := time.Now()
	for i := 0; time.Since(start) < limit || (tr != nil && i < 2); i++ {
		var ctr *tracer
		side := 0
		if tr != nil && i%2 == 1 {
			ctr, side = tr, 1
		}
		kernel = append(kernel, t.sp.sample())
		t0 := time.Now()
		var n, f int
		lat, n, f, err = w.chunk(ctr, lat)
		if err != nil {
			return 0, err
		}
		took := time.Since(t0)
		t.busy[side] += took
		if side == 0 {
			rates = append(rates, float64(n)/took.Seconds())
		}
		t.opsBy[side] += n
		t.ops += n
		t.failed += f
	}
	t.proc.plus(readProcess().minus(p0))
	t.d.plus(w.counters().minus(c0))

	scale := refKernelMs / median(kernel)
	t.rawSetupS = append(t.rawSetupS, setup)
	t.setupS = append(t.setupS, setup-setupCPU+setupCPU*scale)
	for _, r := range rates {
		t.rate = append(t.rate, r/scale)
	}
	t.rawRate = append(t.rawRate, rates...)
	for _, win := range windows(lat) {
		t.p50 = append(t.p50, quantile(win, 0.5)*scale)
		t.p90 = append(t.p90, quantile(win, 0.9)*scale)
	}
	t.rawLat = append(t.rawLat, lat...)
	return warmFailed, nil
}

// window is how many consecutive ops' latencies each quantile is taken
// over. op_ms_p50 and op_ms_p90 are the median over the run's windows of
// each window's quantile: a spell in which the machine runs slowly or
// another program takes the CPU moves the quantiles of the windows it
// falls in, and the median over windows only if it covers most of the
// run.
const window = 128

// windows splits a segment's op latencies into windows of window ops,
// the last one taking the ops left over. A segment of fewer than
// 2*window ops (a study segment runs a few dozen) is one window.
func windows(lat []float64) [][]float64 {
	var out [][]float64
	for len(lat) >= 2*window {
		out = append(out, lat[:window])
		lat = lat[window:]
	}
	if len(lat) > 0 {
		out = append(out, lat)
	}
	return out
}

// cpuSeconds returns the CPU time the process has used, user and
// system, over all its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// layerMetrics computes the traced run's span and counter metrics.
func layerMetrics(tr *tracer, t timed) []metric {
	d, ops := t.d, t.ops
	us := func(name string, k spanKind, q float64) metric {
		s := tr.selfUs(k)
		return metric{name, quantile(s, q), "us", len(s)}
	}
	runMs := tr.selfUs(spanRun)
	runMsP50 := quantile(runMs, 0.5) / 1e3
	app := tr.appSelfMs()
	pc := func(name string) int64 { return d.protocol[name] }
	return []metric{
		us("core.read_us_p50", spanRead, 0.5),
		us("core.read_us_p90", spanRead, 0.9),
		us("core.write_us_p50", spanWrite, 0.5),
		us("core.acquire_us_p50", spanAcquire, 0.5),
		us("core.acquire_us_p90", spanAcquire, 0.9),
		us("core.release_us_p50", spanRelease, 0.5),
		us("core.flush_us_p50", spanFlush, 0.5),
		us("core.flush_us_p90", spanFlush, 0.9),
		us("core.barrier_us_p50", spanBarrier, 0.5),
		us("core.barrier_us_p90", spanBarrier, 0.9),
		{"core.run_ms_p50", runMsP50, "ms", len(runMs)},
		{"core.app_self_ms_p50", median(app), "ms", len(app)},
		{"protocol.fault_read_per_op", perOp(pc("fault.read"), ops), "1/op", 0},
		{"protocol.fault_write_per_op", perOp(pc("fault.write"), ops), "1/op", 0},
		{"protocol.twin_per_op", perOp(pc("twin"), ops), "1/op", 0},
		{"protocol.diff_sent_per_op", perOp(pc("diff.sent"), ops), "1/op", 0},
		{"protocol.diff_kib_per_op", perOp(pc("diff.bytes"), ops) / 1024, "KiB/op", 0},
		{"protocol.batch_sent_per_op", perOp(pc("batch.sent"), ops), "1/op", 0},
		{"protocol.batch_objs_per_op", perOp(pc("batch.objs"), ops), "1/op", 0},
		{"protocol.eager_push_per_op", perOp(pc("eager.push"), ops), "1/op", 0},
		{"protocol.home_relay_per_op", perOp(pc("home.relay"), ops), "1/op", 0},
		{"protocol.fetch_served_per_op", perOp(pc("fetch.served"), ops), "1/op", 0},
		{"dlock.remote_acquires_per_op", perOp(d.remoteAcq, ops), "1/op", 0},
		{"dlock.lock_msgs_per_op", perOp(d.lockMsgs, ops), "1/op", 0},
		{"dlock.lock_kib_per_op", perOp(d.lockBytes, ops) / 1024, "KiB/op", 0},
		{"dlock.sync_msgs_per_op", perOp(d.syncMsgs, ops), "1/op", 0},
		{"transport.wire_writes_per_op", perOp(d.wireWrites, ops), "1/op", 0},
		{"transport.frames_per_op", perOp(d.wireFrames, ops), "1/op", 0},
		{"transport.coalesced_per_op", perOp(d.wireCoalesced, ops), "1/op", 0},
		{"transport.queue_stall_per_op", perOp(d.queueStalls, ops), "1/op", 0},
		{"bufpool.new_per_op", perOp(t.proc.poolNew, ops), "1/op", 0},
		{"bufpool.oversize_per_op", perOp(t.proc.poolBig, ops), "1/op", 0},
		{"runtime.gc_per_kop", perOp(t.proc.gcs, ops) * 1000, "1/kop", 0},
	}
}
