package core

import (
	"fmt"
	"strings"
	"time"

	"permchain/internal/mempool"
	"permchain/internal/network"
	"permchain/internal/obs"
)

// NodeStatus is one replica's position in Status.
type NodeStatus struct {
	ID            int    `json:"id"`
	Height        uint64 `json:"height"`
	DurableHeight uint64 `json:"durable_height,omitempty"`
	StateHash     string `json:"state_hash"`
	ProcessedTxs  int    `json:"processed_txs"`
}

// NetworkStatus summarizes the transport's traffic counters, with losses
// broken down by cause so a partition reads differently from overload.
type NetworkStatus struct {
	Sent         int64            `json:"sent"`
	Delivered    int64            `json:"delivered"`
	Dropped      int64            `json:"dropped"`
	DropsByCause map[string]int64 `json:"drops_by_cause,omitempty"`
}

// Status is the chain's operational snapshot — what the ops server's
// /status endpoint (and `chainctl status`) renders. Everything in it is
// cheap to gather: watermarks, gauges, and counter reads, no scans.
type Status struct {
	Protocol string `json:"protocol"`
	Arch     string `json:"arch"`
	// Cluster is the replica count — the n that sizes quorums.
	Cluster    int       `json:"cluster"`
	Height     uint64    `json:"height"`
	StateHash  string    `json:"state_hash"`
	LastCommit time.Time `json:"last_commit,omitempty"`
	// Views holds the protocol's progress gauges (pbft/view, raft/term,
	// tendermint/round, ...) filtered to the running protocol.
	Views map[string]int64 `json:"views,omitempty"`
	// VoteAgg holds the vote-aggregation counters (quorumcert/* and
	// votebatch/*) when the chain runs with AggregateVotes or BatchVotes.
	VoteAgg map[string]int64 `json:"vote_agg,omitempty"`
	Nodes   []NodeStatus     `json:"nodes"`
	Mempool *mempool.Stats   `json:"mempool,omitempty"`
	Network NetworkStatus    `json:"network"`
}

// Obs returns the chain's observability layer (nil when built without
// one). The ops server uses it to reach the registry, tracer, and health
// tracker behind a running chain.
func (c *Chain) Obs() *obs.Obs { return c.cfg.Obs }

// Health returns the chain's health tracker, or nil when the chain was
// built without an Obs. A nil *obs.Health is safe to call.
func (c *Chain) Health() *obs.Health {
	if c.cfg.Obs == nil {
		return nil
	}
	return c.cfg.Obs.Health
}

// Status gathers the chain's operational snapshot.
func (c *Chain) Status() Status {
	ref := c.nodes[0]
	s := Status{
		Protocol:  c.cfg.Protocol.String(),
		Arch:      c.cfg.Arch.String(),
		Cluster:   c.cfg.Nodes,
		Height:    ref.chain.Height(),
		StateHash: ref.Store().StateHash().Hex(),
	}
	if h := c.Health(); h != nil {
		s.LastCommit, _ = h.LastCommit()
	}
	if c.cfg.Obs != nil && c.cfg.Obs.Reg != nil {
		snap := c.cfg.Obs.Reg.Snapshot()
		prefix := s.Protocol + "/"
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, prefix) {
				if s.Views == nil {
					s.Views = make(map[string]int64)
				}
				s.Views[name] = v
			}
		}
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "quorumcert/") || strings.HasPrefix(name, "votebatch/") {
				if s.VoteAgg == nil {
					s.VoteAgg = make(map[string]int64)
				}
				s.VoteAgg[name] = v
			}
		}
	}
	for _, n := range c.nodes {
		s.Nodes = append(s.Nodes, NodeStatus{
			ID:            int(n.ID),
			Height:        n.chain.Height(),
			DurableHeight: n.DurableHeight(),
			StateHash:     n.Store().StateHash().Hex(),
			ProcessedTxs:  n.ProcessedTxs(),
		})
	}
	if c.pool != nil {
		st := c.pool.Stats()
		s.Mempool = &st
	}
	ns := c.net.StatsSnapshot()
	s.Network = NetworkStatus{Sent: ns.Sent, Delivered: ns.Delivered, Dropped: ns.Dropped}
	for i, v := range ns.ByCause {
		if v == 0 {
			continue
		}
		if s.Network.DropsByCause == nil {
			s.Network.DropsByCause = make(map[string]int64)
		}
		s.Network.DropsByCause[network.DropCause(i).String()] = v
	}
	return s
}

// registerHealthChecks attaches the checks only the chain can evaluate —
// pipeline backlog against the apply-queue bound and mempool occupancy
// against capacity. Called from Start, after the stage channels exist, so
// the closures see fully-built nodes; Health's own locking orders the
// registration against concurrent Report calls.
func (c *Chain) registerHealthChecks() {
	h := c.Health()
	if h == nil {
		return
	}
	queueCap := c.cfg.ApplyQueue
	h.RegisterCheck("pipeline", func() obs.HealthCheck {
		worst := 0
		for _, n := range c.nodes {
			if l := len(n.applyCh); l > worst {
				worst = l
			}
		}
		ck := obs.HealthCheck{Status: obs.Healthy,
			Reason: fmt.Sprintf("apply backlog %d/%d", worst, queueCap)}
		switch {
		case worst >= queueCap:
			ck.Status = obs.Unhealthy
		case worst*4 >= queueCap*3: // >= 75% full
			ck.Status = obs.Degraded
		}
		return ck
	})
	if c.pool != nil {
		capacity := c.pool.Config().Capacity
		h.RegisterCheck("mempool", func() obs.HealthCheck {
			st := c.pool.Stats()
			ck := obs.HealthCheck{Status: obs.Healthy,
				Reason: fmt.Sprintf("occupancy %d/%d", st.Occupancy, capacity)}
			switch {
			case st.Occupancy >= capacity:
				ck.Status = obs.Unhealthy
			case st.Occupancy*10 >= capacity*9: // >= 90% full
				ck.Status = obs.Degraded
			}
			return ck
		})
	}
}
