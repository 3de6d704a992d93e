package main

import (
	"time"

	"greenhetero/internal/cluster"
	"greenhetero/internal/policy"
	"greenhetero/internal/sim"
)

// Span names: one per layer boundary the benchmark wraps.
const (
	spanPass     = "pass"
	spanScenario = "scenario.build"
	spanSolar    = "solar.generate"
	spanEngine   = "chaos.engine_setup"
	spanRun      = "cluster.run"
	spanEpoch    = "epoch"
	spanStep     = "sim.step"
	spanAllocate = "policy.allocate"
	spanSplit    = "cluster.split"
	spanDisturb  = "chaos.disturb"
	spanCommit   = "wal.commit"
	spanRecover  = "wal.recover"
)

// clock reads host time as nanoseconds since the run began.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// span is one timed call into a layer. Spans of one epoch share the
// identifier (Pass, Epoch); Parent is the id of the enclosing span, -1
// for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Epoch  int    `json:"epoch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, up to limit; later spans are counted
// as dropped. Layer statistics never depend on the limit: the probes
// keep their own samples.
type tracer struct {
	clk     clock
	spans   []span
	limit   int
	dropped int
	pass    int
}

// add records a finished span and returns its id, or -1 past the limit.
func (t *tracer) add(name string, parent, epoch int, start, end int64) int {
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Pass: t.pass, Epoch: epoch, Start: start, End: end})
	return id
}

// setEnd closes a span opened with add(..., end=0).
func (t *tracer) setEnd(id int, end int64) {
	if id >= 0 {
		t.spans[id].End = end
	}
}

// timedPolicy wraps a rack's policy.Policy and times every Allocate:
// the PAR solve (solver plus profiledb projection). In a fleet each
// rack gets its own wrapper, so workers never share one. When tr is
// set (single-rack runs) each call also becomes a span under parent,
// the caller's current step span.
type timedPolicy struct {
	policy.Policy
	clk           clock
	ns            []int64
	inStep        int64 // Allocate time since the caller last reset it
	tr            *tracer
	parent, epoch int
}

// Allocate implements policy.Policy.
func (p *timedPolicy) Allocate(ctx policy.Context) ([]float64, error) {
	t0 := p.clk.now()
	fracs, err := p.Policy.Allocate(ctx)
	t1 := p.clk.now()
	p.ns = append(p.ns, t1-t0)
	p.inStep += t1 - t0
	if p.tr != nil {
		p.tr.add(spanAllocate, p.parent, p.epoch, t0, t1)
	}
	return fracs, err
}

// child is a span recorded inside a site epoch, parented to the epoch
// span once the pass ends and the epoch spans exist.
type child struct {
	name       string
	epoch      int
	start, end int64
}

// fleetProbe wraps a fleet's public injection points. Untraced, it
// only reads the clock at the site-epoch boundary: the one call the
// coordinator makes exactly once per epoch. Traced, it also times every
// call into the wrapped layers.
type fleetProbe struct {
	clk   clock
	tr    *tracer
	marks []int64 // clock at each epoch boundary

	splitNs, disturbNs, commitNs, recoverNs []int64
	commitFails                             int
	children                                []child
}

func newFleetProbe(clk clock, tr *tracer, epochs int) *fleetProbe {
	return &fleetProbe{clk: clk, tr: tr, marks: make([]int64, 0, epochs+1)}
}

// mark records an epoch boundary and returns the clock reading.
func (p *fleetProbe) mark() int64 {
	t := p.clk.now()
	p.marks = append(p.marks, t)
	return t
}

func (p *fleetProbe) record(name string, samples *[]int64, t0, t1 int64) {
	*samples = append(*samples, t1-t0)
	p.children = append(p.children, child{name: name, epoch: len(p.marks) - 1, start: t0, end: t1})
}

// finish closes the last epoch at end and returns each site epoch's
// host time. Traced, it emits the epoch spans under parent and hangs
// the recorded layer spans beneath them.
func (p *fleetProbe) finish(end int64, parent int) []int64 {
	ns := make([]int64, len(p.marks))
	for e, t := range p.marks {
		next := end
		if e+1 < len(p.marks) {
			next = p.marks[e+1]
		}
		ns[e] = next - t
	}
	if p.tr == nil {
		return ns
	}
	ids := make([]int, len(p.marks))
	for e, t := range p.marks {
		ids[e] = p.tr.add(spanEpoch, parent, e, t, t+ns[e])
	}
	for _, c := range p.children {
		up := parent
		if c.epoch >= 0 {
			up = ids[c.epoch]
		}
		p.tr.add(c.name, up, c.epoch, c.start, c.end)
	}
	return ns
}

// probedAllocator wraps cluster.Allocator. With boundary set, each
// Weights call marks a site epoch: in a healthy fleet every rack bids,
// so the coordinator calls Weights exactly once per epoch.
type probedAllocator struct {
	cluster.Allocator
	p        *fleetProbe
	boundary bool
}

// Weights implements cluster.Allocator.
func (a probedAllocator) Weights(bids []float64, site cluster.Supply, out []float64) error {
	var t0 int64
	if a.boundary {
		t0 = a.p.mark()
	}
	if a.p.tr == nil {
		return a.Allocator.Weights(bids, site, out)
	}
	if !a.boundary {
		t0 = a.p.clk.now()
	}
	err := a.Allocator.Weights(bids, site, out)
	a.p.record(spanSplit, &a.p.splitNs, t0, a.p.clk.now())
	return err
}

// probedDisturber wraps cluster.Disturber; Disturb runs exactly once,
// first thing, in every site epoch, so it marks the epoch boundary.
type probedDisturber struct {
	cluster.Disturber
	p *fleetProbe
}

// Disturb implements cluster.Disturber.
func (d probedDisturber) Disturb(epoch int, dist *cluster.Disturbance) {
	t0 := d.p.mark()
	d.Disturber.Disturb(epoch, dist)
	if d.p.tr != nil {
		d.p.record(spanDisturb, &d.p.disturbNs, t0, d.p.clk.now())
	}
}

// probedCheckpointer wraps cluster.Checkpointer (the WAL harness) and
// times every commit and recovery (traced runs only).
type probedCheckpointer struct {
	cluster.Checkpointer
	p *fleetProbe
}

// Commit implements cluster.Checkpointer.
func (c probedCheckpointer) Commit(epoch int, s *sim.Session) error {
	t0 := c.p.clk.now()
	err := c.Checkpointer.Commit(epoch, s)
	c.p.record(spanCommit, &c.p.commitNs, t0, c.p.clk.now())
	if err != nil {
		c.p.commitFails++
	}
	return err
}

// Recover implements cluster.Checkpointer.
func (c probedCheckpointer) Recover(epoch int, s *sim.Session) error {
	t0 := c.p.clk.now()
	err := c.Checkpointer.Recover(epoch, s)
	c.p.record(spanRecover, &c.p.recoverNs, t0, c.p.clk.now())
	return err
}
