// Symmetric network partitions: a named peer set whose traffic is
// dropped in both directions while the partition is active. Fault
// tests toggle one Partition per scheduled window instead of scripting
// per-connection drops; the TCP proxy honours it through WithPartition.

package faultnet

import (
	"sync"
	"sync/atomic"
)

// Partition is a symmetric partition over a named peer set. While
// active, every member of the set is severed: requests toward it are
// swallowed before reaching the backend and no response flows back —
// both directions drop, unlike the one-directional Drop fault. Safe
// for concurrent use; activation is a single flag flip, so a scheduler
// can toggle the window while proxies are serving.
type Partition struct {
	mu sync.Mutex
	// ghlint:guardedby mu
	peers map[string]bool
	// ghlint:guardedby mu
	active bool

	drops atomic.Int64
}

// NewPartition builds an inactive partition covering the named peers.
func NewPartition(peers ...string) *Partition {
	set := make(map[string]bool, len(peers))
	for _, p := range peers {
		set[p] = true
	}
	return &Partition{peers: set}
}

// Activate starts the partition window: covered peers are severed.
func (p *Partition) Activate() {
	p.mu.Lock()
	p.active = true
	p.mu.Unlock()
}

// Deactivate heals the partition.
func (p *Partition) Deactivate() {
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

// Active reports whether the partition window is open.
func (p *Partition) Active() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Severed reports whether traffic to and from the named peer is
// currently dropped: the partition is active and covers the peer.
func (p *Partition) Severed(peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active && p.peers[peer]
}

// Peers returns the covered peer names (copy, any order).
func (p *Partition) Peers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.peers))
	for name := range p.peers {
		out = append(out, name)
	}
	return out
}

// Drops reports how many exchanges were swallowed by the partition
// across all proxies attached to it.
func (p *Partition) Drops() int64 { return p.drops.Load() }
