package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/wire"
)

// fixture is one served fleet: a wire server over loopback, a client
// connection, and every stream's ingest handle.
type fixture struct {
	srv     *wire.Server
	cli     *wire.Client
	addr    string
	handles []uint64
}

func (f *fixture) close() {
	f.cli.Close()
	f.srv.Close()
}

// startServer starts a fresh server and dials it.
func (b *bench) startServer() (*fixture, error) {
	srv := wire.NewServer(wire.Config{CheckpointDir: b.dir})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	cli, err := wire.Dial(addr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &fixture{srv: srv, cli: cli, addr: addr}, nil
}

// setup starts a server and opens every stream through the client; the
// returned duration runs from wire.NewServer to the last Open returned.
// With tracing on, each Open is a span and its round trip is kept.
func (b *bench) setup() (*fixture, time.Duration, []time.Duration, error) {
	t0 := time.Now()
	f, err := b.startServer()
	if err != nil {
		return nil, 0, nil, err
	}
	f.handles = make([]uint64, len(b.in.streams))
	var opens []time.Duration
	for i, s := range b.in.streams {
		ts := time.Now()
		h, err := f.cli.Open("bench", s.name, s.model, "adaptive", 0)
		b.attempted++
		if err != nil {
			b.tl.fail(1, fmt.Sprintf("open %s: %v", s.name, err))
			f.close()
			return nil, 0, nil, err
		}
		if b.spans != nil {
			te := time.Now()
			b.spans.add("wire.Client.Open", ts, te)
			opens = append(opens, te.Sub(ts))
		}
		f.handles[i] = h
	}
	return f, time.Since(t0), opens, nil
}

// frame is one IngestBatch request under construction, with the stream
// and step each item replays so its decision can be checked.
type frame struct {
	idx     []int
	steps   []int
	handles []uint64
	ests    [][]float64
	us      [][]float64
	out     []wire.IngestResult
}

func newFrame(capacity int) *frame {
	return &frame{
		idx:     make([]int, 0, capacity),
		steps:   make([]int, 0, capacity),
		handles: make([]uint64, 0, capacity),
		ests:    make([][]float64, 0, capacity),
		us:      make([][]float64, 0, capacity),
		out:     make([]wire.IngestResult, capacity),
	}
}

func (fr *frame) reset() {
	fr.idx, fr.steps, fr.handles = fr.idx[:0], fr.steps[:0], fr.handles[:0]
	fr.ests, fr.us = fr.ests[:0], fr.us[:0]
}

// add appends stream i's next sample and advances its cursor.
func (b *bench) add(fr *frame, i int, handles []uint64) {
	t := b.next[i]
	b.next[i]++
	tr := b.in.streams[i].tr
	fr.idx = append(fr.idx, i)
	fr.steps = append(fr.steps, t)
	fr.handles = append(fr.handles, handles[i])
	fr.ests = append(fr.ests, tr.est[t])
	fr.us = append(fr.us, tr.uPrev[t])
}

// send round-trips the frame through the client and checks every
// decision; it returns the round-trip time. When the run is traced, the
// round trip is recorded as a span on every frame, or with traceAlt on
// every other frame, so the loop can compare traced with untraced frames.
func (b *bench) send(cli *wire.Client, fr *frame) (time.Duration, error) {
	n := len(fr.idx)
	t0 := time.Now()
	err := cli.IngestBatch(fr.handles, fr.ests, fr.us, fr.out[:n])
	t1 := time.Now()
	if !b.traceAlt || b.frames%2 == 0 {
		b.spans.add("wire.Client.IngestBatch", t0, t1)
	}
	b.frames++
	b.attempted += int64(n)
	if err != nil {
		b.tl.fail(int64(n), fmt.Sprintf("ingest batch: %v", err))
		return t1.Sub(t0), err
	}
	b.verify(fr)
	return t1.Sub(t0), nil
}

// verify checks a decided frame against the reference.
func (b *bench) verify(fr *frame) {
	for k, i := range fr.idx {
		corrupt := b.tl.samples == b.corruptAt
		b.tl.check(&b.in.streams[i], fr.steps[k], fr.out[k].Decision, fr.out[k].Err, corrupt)
	}
}

// loopResult is what one pass of a workload's ingest loop measured.
type loopResult struct {
	samples     int64
	wall        time.Duration
	rtts        []float64 // µs per IngestBatch round trip
	lat         []float64 // µs from due to decided, per sample (paced probe)
	late        []float64 // µs from due to sent, per sample (paced probe)
	checkpoints []float64 // ms per in-loop Checkpoint
	segs        []segment // the closed loop's equal-sample segments
	// work is the µs the generator spent on each frame, building,
	// sending and checking it: work[0] for traced frames, work[1] for
	// untraced ones (filled only when tracing alternates).
	work [2][]float64
}

// segment is one stretch of the closed loop: its decided samples, wall
// time and frames (indices into rtts).
type segment struct {
	samples  int64
	wall     time.Duration
	from, to int
}

// segments is the number of equal-sample segments a closed loop is split
// into. The gated metrics are medians over segments, so a burst of host
// slowness that covers less than half the segments does not move them.
const segments = 20

// samplesPerSec is decided samples over the loop's wall time.
func (r *loopResult) samplesPerSec() float64 { return float64(r.samples) / r.wall.Seconds() }

// segmentRate is the median over segments of decided samples per second.
func (r *loopResult) segmentRate() float64 {
	rates := make([]float64, len(r.segs))
	for k, sg := range r.segs {
		rates[k] = float64(sg.samples) / sg.wall.Seconds()
	}
	return median(rates)
}

// segmentRTT is the median over segments of the q-quantile of each
// segment's frame round trips.
func (r *loopResult) segmentRTT(q float64) float64 {
	qs := make([]float64, len(r.segs))
	for k, sg := range r.segs {
		qs[k] = quantile(append([]float64(nil), r.rtts[sg.from:sg.to]...), q)
	}
	return median(qs)
}

// noteWork records one frame's generator time when tracing alternates.
func (b *bench) noteWork(res *loopResult, since time.Time) {
	if b.traceAlt {
		k := (b.frames - 1) % 2 // send already counted this frame
		res.work[k] = append(res.work[k], us(time.Since(since)))
	}
}

// closedLoop runs perStream samples for every stream, round-robin in
// frames of frameCap, each frame sent only after the previous one's
// decisions came back. With ckpts > 0 a second connection checkpoints
// each time ingest crosses one of ckpts equal sample-count marks, the
// last one when ingest ends.
func (b *bench) closedLoop(f *fixture, perStream, ckpts int) (*loopResult, error) {
	n := len(b.in.streams)
	total := int64(n) * int64(perStream)
	res := &loopResult{rtts: make([]float64, 0, total/int64(frameCap)+1)}

	var ckptDone chan struct{}
	var marks chan struct{}
	var ckptFails int64
	var ckptErr error
	if ckpts > 0 {
		c2, err := wire.Dial(f.addr)
		if err != nil {
			return nil, fmt.Errorf("dial checkpoint connection: %w", err)
		}
		defer c2.Close()
		marks = make(chan struct{}, ckpts) // one send per mark
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			for range marks {
				t0 := time.Now()
				_, err := c2.Checkpoint(checkpointName)
				t1 := time.Now()
				b.spans.add("wire.Client.Checkpoint", t0, t1)
				if err != nil {
					ckptFails++
					if ckptErr == nil {
						ckptErr = err
					}
				}
				res.checkpoints = append(res.checkpoints, ms(t1.Sub(t0)))
			}
		}()
	}

	fr := newFrame(frameCap)
	rr := 0
	var done int64
	mark := 1
	start := time.Now()
	segFrom, segDone, segStart, segMark := 0, int64(0), start, int64(1)
	var loopErr error
	for done < total {
		t0 := time.Now()
		fr.reset()
		for len(fr.idx) < frameCap && done+int64(len(fr.idx)) < total {
			b.add(fr, rr, f.handles)
			rr = (rr + 1) % n
		}
		rtt, err := b.send(f.cli, fr)
		res.rtts = append(res.rtts, us(rtt))
		done += int64(len(fr.idx))
		b.noteWork(res, t0)
		if err != nil {
			loopErr = err
			break
		}
		if marks != nil && done >= total*int64(mark)/int64(ckpts) {
			marks <- struct{}{}
			mark++
		}
		if done >= total*segMark/segments {
			now := time.Now()
			res.segs = append(res.segs, segment{samples: done - segDone, wall: now.Sub(segStart), from: segFrom, to: len(res.rtts)})
			segFrom, segDone, segStart = len(res.rtts), done, now
			for done >= total*segMark/segments {
				segMark++
			}
		}
	}
	res.wall = time.Since(start)
	res.samples = done
	if marks != nil {
		close(marks)
		<-ckptDone
		b.attempted += int64(len(res.checkpoints))
		if ckptErr != nil {
			b.tl.fail(ckptFails, fmt.Sprintf("checkpoint: %v", ckptErr))
			if loopErr == nil {
				loopErr = ckptErr
			}
		}
	}
	return res, loopErr
}

// event is one paced sample: stream i is due at offset due.
type event struct {
	due time.Duration
	i   int
}

// schedule lays out, for every stream, one sample per control period of
// its plant over seconds, at a seeded phase; it returns them in due order.
func (b *bench) schedule(rng *rand.Rand, streams []int, seconds float64) []event {
	var ev []event
	for _, i := range streams {
		period := time.Duration(b.in.plants[b.in.streams[i].tr.plant].Sys.Dt * float64(time.Second))
		phase := time.Duration(rng.Int63n(int64(period)))
		for due := phase; due < time.Duration(seconds*float64(time.Second)); due += period {
			ev = append(ev, event{due: due, i: i})
		}
	}
	sort.Slice(ev, func(a, c int) bool {
		if ev[a].due != ev[c].due {
			return ev[a].due < ev[c].due
		}
		return ev[a].i < ev[c].i
	})
	return ev
}

// pacedLoop sends each scheduled sample when it falls due, in one frame
// with whatever else is due at that moment (at most frameCap). It paces
// with a Gosched spin because a sleep overshoots by hundreds of µs.
// Latency is measured from when a sample was due, so a stall counts
// against every sample it delays.
func (b *bench) pacedLoop(f *fixture, ev []event) (*loopResult, error) {
	res := &loopResult{
		lat:  make([]float64, 0, len(ev)),
		late: make([]float64, 0, len(ev)),
		rtts: make([]float64, 0, len(ev)),
	}
	fr := newFrame(frameCap)
	start := time.Now()
	var lastDecided time.Duration
	for k := 0; k < len(ev); {
		now := time.Since(start)
		if ev[k].due > now {
			runtime.Gosched()
			continue
		}
		fr.reset()
		j := k
		for j < len(ev) && j-k < frameCap && ev[j].due <= now {
			b.add(fr, ev[j].i, f.handles)
			j++
		}
		sent := time.Since(start)
		rtt, err := b.send(f.cli, fr)
		decided := sent + rtt
		res.rtts = append(res.rtts, us(rtt))
		for _, e := range ev[k:j] {
			res.late = append(res.late, us(sent-e.due))
			res.lat = append(res.lat, us(decided-e.due))
		}
		res.samples += int64(j - k)
		lastDecided = decided
		b.noteWork(res, start.Add(now))
		if err != nil {
			return res, err
		}
		k = j
	}
	res.wall = lastDecided
	return res, nil
}

// restoreCheck re-opens every stream on a restored server and sends each
// its next sample, proving the restored fleet continues the reference
// decision sequence.
func (b *bench) restoreCheck(f *fixture) error {
	f.handles = make([]uint64, len(b.in.streams))
	for i, s := range b.in.streams {
		h, err := f.cli.Open("bench", s.name, s.model, "adaptive", 0)
		b.attempted++
		if err != nil {
			b.tl.fail(1, fmt.Sprintf("re-open %s after restore: %v", s.name, err))
			return err
		}
		f.handles[i] = h
	}
	fr := newFrame(frameCap)
	for i := 0; i < len(b.in.streams); {
		fr.reset()
		for len(fr.idx) < frameCap && i < len(b.in.streams) {
			b.add(fr, i, f.handles)
			i++
		}
		if _, err := b.send(f.cli, fr); err != nil {
			return err
		}
	}
	return nil
}
