// Command perfbench is the repository's end-to-end benchmark: a
// single-process load generator that drives the unmodified internal/wire
// server over loopback with samples replayed from internal/sim traces and
// checks every decision against the serial detector's record.
//
// Run it from the repository root (see run.sh, which builds it first):
//
//	perfbench --workload bulk --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the gated end-to-end metrics of the workload;
// with --trace 1 it prints the per-layer metrics of a separate traced run.
// The last line of standard output is the JSON result; RATIONALE.md says
// why each workload and metric is what it is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workload is one named traffic mix: a closed loop doing a fixed amount
// of work per --seconds second. RATIONALE.md says why each is sized as it
// is.
type workload struct {
	name      string
	streams   int
	perStream int // samples per stream per --seconds second
	ckpts     int // checkpoints during ingest per --seconds second
	endCkpts  int // quiescent checkpoints after ingest
}

var workloads = []workload{
	{name: "bulk", streams: 10000, perStream: 32, endCkpts: 16},
	{name: "checkpointed", streams: 5000, perStream: 57, ckpts: 2},
}

const (
	// attackedShare is the share of each workload's streams that replay
	// an attacked trace.
	attackedShare = 0.1
	// frameCap is the samples per IngestBatch frame, and the most a paced
	// probe frame carries.
	frameCap = 256
	// setups is the number of set-ups per run; setup_s is their median.
	setups = 3
	// restores is the number of restores per run; restore_s is their
	// interquartile mean. Single restores of one checkpoint vary by ±25%
	// within a run, and the host's speed shifts every few seconds, so
	// they are many and span ~20 s on bulk.
	restores = 9
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checkpointName is the file every checkpoint of a run overwrites.
const checkpointName = "bench.awds"

// options is one invocation; tests shrink streams and seconds and set
// corruptAt to prove a wrong decision fails the run.
type options struct {
	w         workload
	seed      int64
	seconds   int
	trace     bool
	root, out string
	corruptAt int64 // index of the decided sample to corrupt; -1 for none
}

// bench is one run's state.
type bench struct {
	w         workload
	seconds   int
	in        *inputs
	dir       string // checkpoint directory
	next      []int  // per-stream trace cursor: the next step to send
	tl        tally
	attempted int64
	corruptAt int64
	spans     *spanLog // nil when untraced
	traceAlt  bool     // trace every other frame only
	frames    int      // frames sent so far
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var workloadName string
	var traceFlag int
	flag.StringVar(&workloadName, "workload", "", "workload name: bulk or checkpointed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal run length in seconds; sizes the fixed work")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the gated one")
	flag.StringVar(&o.root, "root", ".", "repository root (source fingerprint)")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for checkpoints and span files")
	flag.Parse()
	w, ok := findWorkload(workloadName)
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", workloadName, o.seconds, traceFlag)
		os.Exit(2)
	}
	o.w, o.trace, o.corruptAt = w, traceFlag == 1, -1
	res, ctx, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	c, _ := json.Marshal(map[string]runContext{"context": ctx})
	fmt.Println(string(c))
	r, _ := json.Marshal(res)
	fmt.Println(string(r))
}

// run performs one invocation. A non-nil error means no result could be
// produced; decision failures are reported in the result instead.
func run(o options) (*result, runContext, error) {
	ctx := newContext(o.root)
	ctx.Workload, ctx.Seed, ctx.Seconds, ctx.Trace = o.w.name, o.seed, o.seconds, o.trace
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, ctx, fmt.Errorf("output directory: %w", err)
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, ctx, fmt.Errorf("checkpoint directory: %w", err)
	}
	defer os.RemoveAll(dir)

	b := &bench{w: o.w, seconds: o.seconds, dir: dir, corruptAt: o.corruptAt}
	steps := b.traceSteps(o.trace)
	b.in, err = buildInputs(o.seed, o.w.streams, steps, attackedShare)
	if err != nil {
		return nil, ctx, err
	}
	b.next = make([]int, o.w.streams)
	steal := startSteal()

	var m map[string]metric
	if o.trace {
		b.spans = &spanLog{t0: time.Now()}
		m, err = b.traced(rand.New(rand.NewSource(o.seed^0x5eed)), &ctx)
		if err == nil {
			err = b.spans.write(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", o.w.name, o.seed)))
		}
	} else {
		m, err = b.gated()
	}
	ctx.StealFrac = steal.frac()
	if o.trace {
		m["host.steal_frac"] = metric{ctx.StealFrac, "frac"}
	}
	if err != nil && b.tl.failed == 0 {
		return nil, ctx, err
	}
	if b.tl.firstFailure != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed operations; first: %s\n", b.tl.failed, b.tl.firstFailure)
	}
	if m == nil {
		m = map[string]metric{}
	}
	n := float64(max(b.tl.samples, 1))
	ctx.AttackedFrac = b.in.attackedFrac()
	ctx.AlarmFrac, ctx.ComplementaryFrac = float64(b.tl.alarms)/n, float64(b.tl.compl)/n
	return &result{
		Correct:   b.tl.failed == 0 && err == nil,
		Attempted: b.attempted,
		Failed:    b.tl.failed,
		Metrics:   m,
	}, ctx, nil
}

// closedWork is the samples per stream the ingest loop sends.
func (b *bench) closedWork() int { return b.w.perStream * b.seconds }

// traceSteps sizes the pooled traces so no stream wraps: the run's ingest
// plus one post-restore sample, and for the traced run the tour and probe.
func (b *bench) traceSteps(traced bool) int {
	ingest := b.closedWork()
	if !traced {
		return ingest + 1
	}
	// Traced: the ingest pass, the entry-point tour and the probe.
	return ingest + b.tourSteps() + probeSeconds*50 + 1
}

// gated is the untraced run that produces the end-to-end metrics. Each
// timed phase that runs alone (a set-up, the ingest loop, a quiescent
// checkpoint, a restore) starts from a freshly collected heap, so the
// phase is timed with the collector in the same state on every run rather
// than wherever the previous phase's garbage left it; collections the
// phase itself causes are still inside its time.
func (b *bench) gated() (map[string]metric, error) {
	base := liveHeap()
	var setupS []float64
	var f *fixture
	for i := 0; i < setups; i++ {
		runtime.GC()
		fx, d, _, err := b.setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			fx.close()
			continue
		}
		f = fx
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()

	runtime.GC()
	m, ckptMs, err := b.ingestMetrics(f)
	if err != nil {
		return nil, err
	}
	// The loop's per-frame records are garbage by now, so this counts the
	// served fleet, not the generator's measurements.
	m["heap_mb"] = metric{(liveHeap() - base) / 1e6, "MB"}

	// The first quiescent checkpoint is a warm-up and is not timed: the
	// first checkpoint of a run took up to 2× the later ones.
	warm := min(b.w.endCkpts, 1)
	for i := 0; i < warm+b.w.endCkpts; i++ {
		runtime.GC()
		t0 := time.Now()
		_, err := f.cli.Checkpoint(checkpointName)
		b.attempted++
		if err != nil {
			b.tl.fail(1, fmt.Sprintf("checkpoint: %v", err))
			return nil, err
		}
		if i >= warm {
			ckptMs = append(ckptMs, ms(time.Since(t0)))
		}
	}
	f.close()
	f = nil

	var restoreS []float64
	for i := 0; i < restores; i++ {
		d, err := b.restore(i == restores-1)
		if err != nil {
			return nil, err
		}
		restoreS = append(restoreS, d.Seconds())
	}

	m["setup_s"] = metric{median(setupS), "s"}
	m["checkpoint_ms"] = metric{iqMean(ckptMs), "ms"}
	m["restore_s"] = metric{iqMean(restoreS), "s"}
	return m, nil
}

// ingestMetrics runs the workload's loop and returns its end-to-end
// metrics and the in-loop checkpoint times.
func (b *bench) ingestMetrics(f *fixture) (map[string]metric, []float64, error) {
	lr, err := b.ingest(f)
	if err != nil {
		return nil, nil, err
	}
	return map[string]metric{
		"samples_per_s":    {lr.segmentRate(), "1/s"},
		"batch_rtt_p50_us": {lr.segmentRTT(0.5), "us"},
		"batch_rtt_p90_us": {lr.segmentRTT(0.9), "us"},
	}, lr.checkpoints, nil
}

// ingest runs the workload's loop over its whole fixed work.
func (b *bench) ingest(f *fixture) (*loopResult, error) {
	return b.closedLoop(f, b.closedWork(), b.w.ckpts*b.seconds)
}

// restore times a fresh server restoring the run's last checkpoint; with
// check it then proves the restored fleet continues every stream's
// reference sequence.
func (b *bench) restore(check bool) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	f, err := b.startServer()
	if err != nil {
		return 0, err
	}
	defer f.close()
	_, err = f.cli.Restore(checkpointName)
	d := time.Since(t0)
	b.attempted++
	if err != nil {
		b.tl.fail(1, fmt.Sprintf("restore: %v", err))
		return 0, err
	}
	if !check {
		return d, nil
	}
	return d, b.restoreCheck(f)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// span is one timed call into a layer, relative to the run's start.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// log records nothing, so the untraced paths pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// add records a span and returns its id (0 when the log is nil).
func (l *spanLog) add(name string, start, end time.Time) int {
	return l.addChild(name, 0, start, end)
}

func (l *spanLog) addChild(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent,
		StartNs: int64(start.Sub(l.t0)), EndNs: int64(end.Sub(l.t0))})
	return id
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
