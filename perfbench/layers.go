package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/wire"
)

// probeSeconds is the length of the paced probe the traced run adds to
// measure latency under a fixed offered load and the generator's lateness.
const probeSeconds = 2

// probeStreams caps the streams the paced probe drives.
const probeStreams = 1000

// tourRounds is how many frames the traced run sends through each of the
// three ingest entry points.
func (b *bench) tourRounds() int { return 50 * b.seconds }

// tourSteps is how many steps the entry-point tour advances a stream by at
// most.
func (b *bench) tourSteps() int {
	return (3*b.tourRounds()*frameCap+b.w.streams-1)/b.w.streams + 1
}

// traced is the separate per-layer run. From outside the program it times
// the public entry points of each layer on the workload's own fleet:
// Client.IngestBatch, Server.IngestBatch and fleet.Batcher.Submit on the
// same frames; core.System.Step serially; the checkpoint path split into
// Engine.Snapshot and state.WriteFile; restore split into state.ReadFile
// and Server.Restore; and Open and cold detector construction for set-up.
// Before that it runs the workload loop once with every other frame
// traced, which gives the tracing overhead and the layer budget's
// end-to-end side. A short paced probe adds open-loop latency.
func (b *bench) traced(rng *rand.Rand, ctx *runContext) (map[string]metric, error) {
	m := map[string]metric{}
	m["reach.detector_new_ms"] = metric{b.coldDetectorMs(), "ms"}

	// The collector's work is counted from set-up to the end of the ingest
	// pass: a closed loop on a set-up fleet may allocate too little to
	// start a cycle of its own, so set-up's heap growth is included.
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	f, _, opens, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer f.close()
	m["wire.open_us_p50"] = metric{b.warmOpenUs(opens), "us"}

	runtime.GC()
	b.traceAlt = true
	lr, err := b.ingest(f)
	b.traceAlt = false
	runtime.ReadMemStats(&gc1)
	if err != nil {
		return nil, err
	}
	m["runtime.gc_cycles"] = metric{float64(gc1.NumGC - gc0.NumGC), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6, "ms"}
	m["trace.overhead_ratio"] = metric{median(lr.work[0]) / median(lr.work[1]), "ratio"}
	m["batch_rtt_p99_us"] = metric{quantile(lr.rtts, 0.99), "us"}

	client, server, batcher, err := b.tour(f)
	if err != nil {
		return nil, err
	}
	bs := float64(frameCap)
	m["wire.socket_codec_us_per_sample"] = metric{(client - server) / bs, "us"}
	m["wire.dispatch_us_per_sample"] = metric{(server - batcher) / bs, "us"}
	m["fleet.submit_us_per_sample"] = metric{batcher / bs, "us"}
	m["fleet.samples_per_s"] = metric{bs / batcher * 1e6, "1/s"}
	m["budget.unexplained_us_per_sample"] = metric{b.perSampleUs(lr) - client/bs, "us"}

	probe, err := b.probe(f, rng)
	if err != nil {
		return nil, err
	}
	ctx.LateP50us, ctx.LateP99us = quantile(probe.late, 0.5), quantile(probe.late, 0.99)
	m["gen.late_us_p50"] = metric{ctx.LateP50us, "us"}
	m["gen.late_us_p99"] = metric{ctx.LateP99us, "us"}
	m["probe.latency_p50_us"] = metric{quantile(probe.lat, 0.5), "us"}
	m["probe.latency_p90_us"] = metric{quantile(probe.lat, 0.9), "us"}
	m["probe.latency_p99_us"] = metric{quantile(probe.lat, 0.99), "us"}

	for _, name := range []string{"aircraft-pitch", "quadrotor"} {
		ns, err := b.coreStepNs(name)
		if err != nil {
			return nil, err
		}
		m["core.step_ns."+name] = metric{ns, "ns"}
	}

	if err := b.checkpointTour(f, m); err != nil {
		return nil, err
	}
	return m, nil
}

// perSampleUs is the ingest loop's end-to-end wall time per sample.
func (b *bench) perSampleUs(lr *loopResult) float64 { return 1e6 / lr.samplesPerSec() }

// coldDetectorMs is the mean over the five plants of the median time to
// build a first detector on a fresh model, whose reach.Shared entry is
// therefore cold.
func (b *bench) coldDetectorMs() float64 {
	var sum float64
	for _, p := range b.in.plants {
		var reps []float64
		for r := 0; r < 3; r++ {
			m := models.ByName(p.Name)
			t0 := time.Now()
			_, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
			t1 := time.Now()
			b.attempted++
			if err != nil {
				b.tl.fail(1, fmt.Sprintf("detector %s: %v", p.Name, err))
				continue
			}
			b.spans.add("reach.Shared(cold)", t0, t1)
			reps = append(reps, ms(t1.Sub(t0)))
		}
		sum += median(reps)
	}
	return sum / float64(len(b.in.plants))
}

// warmOpenUs is the median Open round trip once each plant's first stream
// (and so its shard) exists.
func (b *bench) warmOpenUs(opens []time.Duration) float64 {
	var xs []float64
	for i, d := range opens {
		if i >= len(b.in.plants) {
			xs = append(xs, us(d))
		}
	}
	return median(xs)
}

// tour sends the same kind of frame, round-robin over the fleet, through
// three successively lower entry points in rotation, and returns the
// median frame time at each in µs. Their differences are the layers'
// per-frame costs.
func (b *bench) tour(f *fixture) (client, server, batcher float64, err error) {
	eng := f.srv.Engine()
	streams := make([]*fleet.Stream, len(b.in.streams))
	for i, s := range b.in.streams {
		st, ok := eng.Stream("bench/" + s.name)
		if !ok {
			return 0, 0, 0, fmt.Errorf("stream %s not in engine", s.name)
		}
		streams[i] = st
	}
	bt := eng.NewBatcher()
	batch := frameCap
	items := make([]fleet.BatchItem, batch)
	results := make([]fleet.BatchResult, batch)
	times := [3][]float64{}
	fr := newFrame(batch)
	rr := 0
	for r := 0; r < b.tourRounds(); r++ {
		for ep := 0; ep < 3; ep++ {
			fr.reset()
			for len(fr.idx) < batch {
				b.add(fr, rr, f.handles)
				rr = (rr + 1) % len(b.in.streams)
			}
			if ep == 0 {
				rtt, err := b.send(f.cli, fr)
				if err != nil {
					return 0, 0, 0, err
				}
				times[0] = append(times[0], us(rtt))
				continue
			}
			for k := range fr.idx {
				items[k] = fleet.BatchItem{Estimate: mat.Vec(fr.ests[k]), AppliedU: mat.Vec(fr.us[k])}
				if ep == 2 {
					items[k].Stream = streams[fr.idx[k]]
				}
			}
			t0 := time.Now()
			if ep == 1 {
				err = f.srv.IngestBatch(bt, fr.handles, items, results)
			} else {
				err = bt.Submit(items, results)
			}
			t1 := time.Now()
			b.attempted += int64(batch)
			if err != nil {
				b.tl.fail(int64(batch), fmt.Sprintf("tour entry point %d: %v", ep, err))
				return 0, 0, 0, err
			}
			name := "wire.Server.IngestBatch"
			if ep == 2 {
				name = "fleet.Batcher.Submit"
			}
			b.spans.add(name, t0, t1)
			times[ep] = append(times[ep], us(t1.Sub(t0)))
			for k := range fr.idx {
				fr.out[k] = wire.IngestResult{Decision: results[k].Decision, Err: results[k].Err}
			}
			b.verify(fr)
		}
	}
	return median(times[0]), median(times[1]), median(times[2]), nil
}

// probe paces the first probeStreams streams at their control periods for
// probeSeconds, giving a closed-loop workload's fleet a lateness and tail
// latency reading.
func (b *bench) probe(f *fixture, rng *rand.Rand) (*loopResult, error) {
	n := min(probeStreams, len(b.in.streams))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return b.pacedLoop(f, b.schedule(rng, idx, probeSeconds))
}

// coreStepNs times core.System.Step serially over one clean pooled trace
// of the named plant, five times on fresh detectors, checking every
// decision; it returns the median ns per step.
func (b *bench) coreStepNs(name string) (float64, error) {
	var tr *trace
	for _, t := range b.in.pool {
		if b.in.plants[t.plant].Name == name && !t.attacked {
			tr = t
			break
		}
	}
	var reps []float64
	for r := 0; r < 5; r++ {
		det, err := sim.Detector(sim.Config{Model: models.ByName(name), Strategy: sim.Adaptive})
		if err != nil {
			return 0, err
		}
		s := stream{name: "core/" + name, model: name, tr: tr}
		t0 := time.Now()
		for t := range tr.est {
			d, err := det.Step(tr.est[t], tr.uPrev[t])
			b.attempted++
			b.tl.check(&s, t, d, err, false)
		}
		t1 := time.Now()
		b.spans.add("core.System.Step", t0, t1)
		reps = append(reps, float64(t1.Sub(t0))/float64(len(tr.est)))
	}
	return median(reps), nil
}

// checkpointTour times the checkpoint path split at its layers three
// times (Engine.Snapshot into a state.Encoder, then state.WriteFile), and
// the restore path once (state.ReadFile, then Server.Restore on a fresh
// server); it reports medians into m.
func (b *bench) checkpointTour(f *fixture, m map[string]metric) error {
	var snap, write []float64
	var size int
	path := filepath.Join(b.dir, "tour.awds")
	for r := 0; r < 3; r++ {
		enc := state.NewEncoder()
		enc.Header()
		t0 := time.Now()
		err := f.srv.Engine().Snapshot(enc)
		t1 := time.Now()
		if err == nil {
			err = state.WriteFile(path, enc.Bytes())
		}
		t2 := time.Now()
		b.attempted++
		if err != nil {
			b.tl.fail(1, fmt.Sprintf("snapshot: %v", err))
			return err
		}
		parent := b.spans.add("checkpoint", t0, t2)
		b.spans.addChild("fleet.Engine.Snapshot", parent, t0, t1)
		b.spans.addChild("state.WriteFile", parent, t1, t2)
		snap = append(snap, ms(t1.Sub(t0)))
		write = append(write, ms(t2.Sub(t1)))
		size = enc.Len()
	}
	m["fleet.snapshot_ms"] = metric{median(snap), "ms"}
	m["state.write_ms"] = metric{median(write), "ms"}
	m["state.snapshot_bytes"] = metric{float64(size), "count"}

	// A server checkpoint (spec section plus engine snapshot) to restore.
	if _, err := f.cli.Checkpoint(checkpointName); err != nil {
		b.tl.fail(1, fmt.Sprintf("checkpoint: %v", err))
		return err
	}
	b.attempted++
	t0 := time.Now()
	_, err := state.ReadFile(filepath.Join(b.dir, checkpointName))
	t1 := time.Now()
	if err != nil {
		b.tl.fail(1, fmt.Sprintf("read checkpoint: %v", err))
		return err
	}
	srv := wire.NewServer(wire.Config{CheckpointDir: b.dir})
	defer srv.Close()
	t2 := time.Now()
	_, err = srv.Restore(checkpointName)
	t3 := time.Now()
	b.attempted++
	if err != nil {
		b.tl.fail(1, fmt.Sprintf("restore: %v", err))
		return err
	}
	parent := b.spans.add("restore", t0, t3)
	b.spans.addChild("state.ReadFile", parent, t0, t1)
	b.spans.addChild("wire.Server.Restore", parent, t2, t3)
	m["state.read_ms"] = metric{ms(t1.Sub(t0)), "ms"}
	// Server.Restore reads the file itself; its own share is the rest.
	m["wire.restore_ms"] = metric{ms(t3.Sub(t2)) - ms(t1.Sub(t0)), "ms"}
	return nil
}
