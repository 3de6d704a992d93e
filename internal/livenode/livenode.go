// Package livenode runs the GreenHetero control loop over the network
// instead of in-process: each server is a telemetry agent that accepts
// SPC power targets ("set") and reports meter readings ("sample"), and a
// Prober drives training runs through the same wire protocol the Monitor
// uses. Combined with core.Controller this is the paper's deployment
// shape (Fig. 4) end to end — the only simulated part is the node's
// response surface, which on real hardware is the machine itself.
package livenode

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"greenhetero/internal/core"
	"greenhetero/internal/enforcer"
	"greenhetero/internal/fit"
	"greenhetero/internal/server"
	"greenhetero/internal/telemetry"
	"greenhetero/internal/workload"
)

// Node simulates one server's node-local control: it holds the current
// SPC power target, maps it through the spec's DVFS ladder, and reports
// noisy meter readings of the resulting operating point. Safe for
// concurrent use (the agent serves connections concurrently).
type Node struct {
	id   string
	spec server.Spec
	w    workload.Workload

	mu sync.Mutex
	// ghlint:guardedby mu
	targetW float64
	// ghlint:guardedby mu
	intensity float64
	// ghlint:guardedby mu
	rng *rand.Rand
}

// NewNode builds a node running workload w at full intensity with no
// power cap (ondemand behaviour until the first SPC target arrives).
func NewNode(id string, spec server.Spec, w workload.Workload, seed int64) (*Node, error) {
	if id == "" {
		return nil, errors.New("livenode: empty id")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("livenode: %w", err)
	}
	if w.ID == "" {
		return nil, errors.New("livenode: empty workload")
	}
	return &Node{
		id:        id,
		spec:      spec,
		w:         w,
		targetW:   spec.PeakW, // uncapped
		intensity: 1,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

var (
	_ telemetry.Sampler = (*Node)(nil)
	_ telemetry.Setter  = (*Node)(nil)
)

// SetTarget implements telemetry.Setter: the SPC's power budget.
func (n *Node) SetTarget(powerW float64) error {
	// NaN slips through a plain `< 0` check (every comparison with NaN
	// is false) and would poison the node's operating point.
	if math.IsNaN(powerW) || math.IsInf(powerW, 0) {
		return fmt.Errorf("livenode %s: non-finite target %v", n.id, powerW)
	}
	if powerW < 0 {
		return fmt.Errorf("livenode %s: negative target %v", n.id, powerW)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.targetW = powerW
	return nil
}

// SetIntensity adjusts the node's load level (the sim's diurnal knob).
func (n *Node) SetIntensity(i float64) error {
	if !workload.ValidIntensity(i) {
		return fmt.Errorf("livenode %s: intensity %v", n.id, i)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.intensity = i
	return nil
}

// Sample implements telemetry.Sampler: one noisy meter reading at the
// node's current operating point (actual draw, not the budget).
func (n *Node) Sample() (telemetry.Reading, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	used := workload.UsedPowerWAt(n.spec, n.w, n.targetW, n.intensity)
	perf := workload.PerfAt(n.spec, n.w, n.targetW, n.intensity)
	m := workload.Measure(used, perf, 1, n.w.Noise(), n.rng)
	return telemetry.Reading{
		NodeID:     n.id,
		PowerW:     m.X,
		Perf:       m.Y,
		UnixMillis: time.Now().UnixMilli(),
	}, nil
}

// trainingSamples is the number of samples per training run: the
// paper's 5, as in the simulator's training runs.
const trainingSamples = 5

// Prober implements core.Prober over live agents: training runs sweep one
// node of the target group through its power band via "set", reading the
// meter after each step — Fig. 7's training run, over TCP.
//
// The live sweep runs from IdleW+1 to the nameplate PeakW, where the
// simulated one (workload.Plant.Sweep) stops at the workload's PeakEffW:
// a node's PeakEffW is not visible over the wire, so the prober sets
// targets up to nameplate and lets the node's own draw cap the readings.
type Prober struct {
	// GroupAddrs maps a server configuration id to the agent addresses
	// of that group's nodes; training uses the first node.
	GroupAddrs map[string][]string
	// Timeout per wire operation. Zero means 2 s.
	Timeout time.Duration
	// Retry bounds per-operation retries during the run (zero fields
	// take the telemetry defaults), so a transient wire fault does not
	// abort a whole training sweep.
	Retry telemetry.RetryPolicy
}

var _ core.Prober = (*Prober)(nil)

// TrainingRun implements core.Prober. The whole sweep rides one
// persistent connection with the prober's retry policy.
func (p *Prober) TrainingRun(spec server.Spec, w workload.Workload) (core.TrainingResult, error) {
	addrs := p.GroupAddrs[spec.ID]
	if len(addrs) == 0 {
		return core.TrainingResult{}, fmt.Errorf("livenode: no agents for %s", spec.ID)
	}
	timeout := p.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	addr := addrs[0]
	ctx := context.Background()
	c, err := telemetry.NewCollector([]string{addr},
		telemetry.WithTimeout(timeout), telemetry.WithRetry(p.Retry))
	if err != nil {
		return core.TrainingResult{}, fmt.Errorf("livenode: training collector: %w", err)
	}
	defer c.Close()

	res := core.TrainingResult{Samples: make([]fit.Sample, 0, trainingSamples)}
	for i := 0; i < trainingSamples; i++ {
		frac := float64(i) / (trainingSamples - 1)
		target := spec.IdleW + 1 + frac*(spec.PeakW-spec.IdleW-1)
		if err := c.SetTarget(ctx, addr, target); err != nil {
			return core.TrainingResult{}, fmt.Errorf("livenode: training set: %w", err)
		}
		reading, err := sampleFresh(ctx, c)
		if err != nil {
			return core.TrainingResult{}, fmt.Errorf("livenode: training sample: %w", err)
		}
		res.Samples = append(res.Samples, fit.Sample{X: reading.PowerW, Y: reading.Perf})
		if reading.PowerW > res.PeakEffW {
			res.PeakEffW = reading.PowerW
		}
	}
	// Restore the node to uncapped operation after profiling.
	if err := c.SetTarget(ctx, addr, spec.PeakW); err != nil {
		return core.TrainingResult{}, fmt.Errorf("livenode: training restore: %w", err)
	}
	return res, nil
}

// sampleFresh reads one fresh reading through the prober's collector. A
// stale (last-known-good) reading is useless for profiling: the sample
// must reflect the target just set.
func sampleFresh(ctx context.Context, c *telemetry.Collector) (telemetry.Reading, error) {
	results, err := c.Collect(ctx)
	if err != nil {
		return telemetry.Reading{}, err
	}
	r := results[0]
	if r.Err != nil {
		return telemetry.Reading{}, r.Err
	}
	if r.Stale {
		return telemetry.Reading{}, errors.New("stale reading during training run")
	}
	return r.Reading, nil
}

// Enforce pushes SPC instructions to every node of each group: the
// decision's per-server budget fans out over the wire.
func Enforce(ctx context.Context, groupAddrs map[string][]string, instructions []InstructionTarget, timeout time.Duration) error {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	var firstErr error
	for _, ins := range instructions {
		for _, addr := range groupAddrs[ins.ServerID] {
			if err := telemetry.SetTarget(ctx, addr, ins.TargetW, timeout); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("livenode: enforce %s: %w", addr, err)
			}
		}
	}
	return firstErr
}

// Targets runs the SPC over a controller decision: it maps the
// decision's PAR and supply to per-group DVFS instructions
// (enforcer.SPC.Instructions) and keeps their wire-relevant part. An
// epoch with no supply yields no targets.
func Targets(rack *server.Rack, dec core.Decision) ([]InstructionTarget, error) {
	if dec.SupplyW <= 0 {
		return nil, nil
	}
	ins, err := enforcer.SPC{}.Instructions(rack, dec.Fractions, dec.SupplyW)
	if err != nil {
		return nil, fmt.Errorf("livenode: %w", err)
	}
	targets := make([]InstructionTarget, len(ins))
	for i, in := range ins {
		targets[i] = InstructionTarget{ServerID: in.ServerID, TargetW: in.TargetW}
	}
	return targets, nil
}

// InstructionTarget is the wire-relevant slice of an SPC instruction.
type InstructionTarget struct {
	// ServerID selects the group.
	ServerID string
	// TargetW is the per-server budget.
	TargetW float64
}
