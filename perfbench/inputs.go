package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sim"
)

// attackKinds are the trace kinds each plant gets in the pool: the clean
// run plus the paper's three attack scenarios (Sec. 6.1.1).
var attackKinds = []string{"none", "bias", "delay", "replay"}

// variants is the number of independently seeded traces per (plant, kind).
const variants = 4

// trace is one pooled sim.Run replay: what a client sends at step t
// (est[t], and uPrev[t] = Input[t-1], zero at t=0) and the decision the
// serial detector made on it, which every served decision must equal.
type trace struct {
	plant    int
	attacked bool
	est      [][]float64
	uPrev    [][]float64
	want     []core.Decision
}

// stream is one benchmark stream: its name, plant and the pooled trace it
// replays.
type stream struct {
	name  string
	model string
	tr    *trace
}

// inputs is everything a run sends and checks, built from the seed before
// any server exists.
type inputs struct {
	plants  []*models.Model
	pool    []*trace
	streams []stream
}

// buildInputs generates the trace pool (steps long, so no stream wraps)
// and assigns n streams round-robin over the five Table-1 plants, a
// seeded attackedShare of them to an attacked trace.
func buildInputs(seed int64, n, steps int, attackedShare float64) (*inputs, error) {
	in := &inputs{plants: models.All()}
	rng := rand.New(rand.NewSource(seed))
	byKey := map[[2]int][]*trace{}
	for p, m := range in.plants {
		for k, kind := range attackKinds {
			for v := 0; v < variants; v++ {
				tr, err := runTrace(m, p, kind, steps, rng.Uint64())
				if err != nil {
					return nil, err
				}
				in.pool = append(in.pool, tr)
				byKey[[2]int{p, k}] = append(byKey[[2]int{p, k}], tr)
			}
		}
	}
	attacked := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(float64(n)*attackedShare+0.5)] {
		attacked[i] = true
	}
	in.streams = make([]stream, n)
	for i := range in.streams {
		p := i % len(in.plants)
		k := 0
		if attacked[i] {
			k = 1 + rng.Intn(len(attackKinds)-1)
		}
		cands := byKey[[2]int{p, k}]
		in.streams[i] = stream{
			name:  fmt.Sprintf("s%06d", i),
			model: in.plants[p].Name,
			tr:    cands[rng.Intn(len(cands))],
		}
	}
	return in, nil
}

// runTrace records one closed-loop run of the adaptive detector.
func runTrace(m *models.Model, plant int, kind string, steps int, seed uint64) (*trace, error) {
	att, err := sim.BuildAttack(m, kind)
	if err != nil {
		return nil, err
	}
	if kind == "none" {
		att = nil
	}
	tr, err := sim.Run(sim.Config{Model: m, Attack: att, Strategy: sim.Adaptive, Steps: steps, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("trace %s/%s: %w", m.Name, kind, err)
	}
	out := &trace{
		plant:    plant,
		attacked: att != nil,
		est:      make([][]float64, steps),
		uPrev:    make([][]float64, steps),
		want:     make([]core.Decision, steps),
	}
	zero := make([]float64, m.Sys.InputDim())
	for t, r := range tr.Records {
		out.est[t] = r.Estimate
		out.uPrev[t] = zero
		if t > 0 {
			out.uPrev[t] = tr.Records[t-1].Input
		}
		out.want[t] = core.Decision{
			Step: t, Window: r.Window, Deadline: r.Deadline,
			Alarm: r.Alarm, Complementary: r.Complementary,
		}
	}
	return out, nil
}

// matches reports whether a served decision equals the serial reference
// on every field the reference records.
func matches(got, want core.Decision) bool {
	return got.Step == want.Step && got.Window == want.Window && got.Deadline == want.Deadline &&
		got.Alarm == want.Alarm && got.Complementary == want.Complementary
}

// tally counts decided samples, failures and the workload's properties.
type tally struct {
	samples, failed int64
	alarms, compl   int64
	firstFailure    string
}

// check compares one decided sample against stream s's reference at step
// t. corrupt flips the served alarm first, so tests can prove a wrong
// decision is caught.
func (c *tally) check(s *stream, t int, got core.Decision, err error, corrupt bool) {
	c.samples++
	if corrupt {
		got.Alarm = !got.Alarm
	}
	switch {
	case err != nil:
		c.fail(1, fmt.Sprintf("%s step %d: %v", s.name, t, err))
	case !matches(got, s.tr.want[t]):
		c.fail(1, fmt.Sprintf("%s step %d: got %+v, want %+v", s.name, t, got, s.tr.want[t]))
	default:
		if got.Alarm {
			c.alarms++
		}
		if got.Complementary {
			c.compl++
		}
	}
}

// fail counts n failed operations and keeps the first message.
func (c *tally) fail(n int64, msg string) {
	c.failed += n
	if c.firstFailure == "" {
		c.firstFailure = msg
	}
}

// attackedFrac is the share of streams replaying an attacked trace.
func (in *inputs) attackedFrac() float64 {
	n := 0
	for _, s := range in.streams {
		if s.tr.attacked {
			n++
		}
	}
	return float64(n) / float64(len(in.streams))
}
