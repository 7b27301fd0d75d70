// Package consensus defines the interface shared by every ordering
// protocol in permchain (§2.2): replicas agree on a totally ordered
// sequence of opaque values. Blockchain layers above decide what the
// values are (usually blocks) and what to do with them.
//
// Six protocols implement this interface — pbft, raft, paxos, tendermint,
// hotstuff, and ibft — so architectures (§2.3.3) and sharding schemes
// (§2.3.4) can swap the ordering protocol freely, which is exactly the
// modularity the tutorial attributes to permissioned systems.
package consensus

import (
	"time"

	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/quorumcert"
	"permchain/internal/types"
)

// Decision is one committed slot in the total order, as observed by one
// replica. Every correct replica emits the same (Seq, Digest) sequence.
type Decision struct {
	Seq    uint64
	Digest types.Hash
	Value  any
	Node   types.NodeID
}

// Replica is one consensus participant. Implementations run a single
// event-loop goroutine between Start and Stop; all exported methods are
// safe to call from other goroutines. A replica is new, running or
// stopped, and every implementation gets that lifecycle from Loop.
type Replica interface {
	// ID returns the replica's node id.
	ID() types.NodeID
	// Start launches the event loop of a new replica; otherwise a no-op.
	Start()
	// Stop is idempotent and safe from every state: a new replica stops
	// at once, a running one once its event loop has exited.
	Stop()
	// Submit hands a value to the protocol for ordering. Any replica
	// accepts a submission; non-leaders forward it. Never blocks after Stop.
	Submit(value any, digest types.Hash)
	// Decisions streams committed slots in sequence order.
	Decisions() <-chan Decision
}

// Config carries what every protocol needs. Protocol packages embed it in
// their own config types when they need more.
type Config struct {
	// Self is this replica's id; Nodes lists all replicas (including Self).
	Self  types.NodeID
	Nodes []types.NodeID
	// Net is the shared transport; Keys authenticates messages.
	Net  *network.Network
	Keys *crypto.Keyring
	// Timeout is the failure-detection timeout (view change, election,
	// round change). Zero selects a protocol-appropriate default.
	Timeout time.Duration
	// DisableSig skips message authentication, isolating protocol logic
	// cost in microbenchmarks. Deployments keep signatures on.
	DisableSig bool
	// Obs, when non-nil, receives protocol metrics (commit-latency
	// histograms, view-change/round counters, state-transfer fetches) and
	// lifecycle span marks. May be shared by every replica in a cluster;
	// nil disables instrumentation with no hot-path branching (all *Obs
	// methods are nil-safe).
	Obs *obs.Obs
	// ByzQuorumOverride, when positive, replaces the 2f+1 quorum size.
	// AHL-style attested committees (§2.3.4) use it to run n = 2f+1 nodes
	// with quorum f+1: trusted hardware makes equivocation impossible
	// (network.Attest enforces this in simulation), which is what lets the
	// committee shrink below 3f+1.
	ByzQuorumOverride int
	// AggregateVotes switches the BFT vote phases (PBFT prepare/commit,
	// HotStuff votes) from counted per-replica signatures to Schnorr quorum
	// certificates (internal/quorumcert): replicas send partial signatures
	// to the leader/primary, which broadcasts one constant-size cert per
	// phase. Off by default; counted voting (QuorumTracker, per-signature
	// QCs) remains the fallback path.
	AggregateVotes bool
	// VoteKeys optionally shares one Schnorr key set across all replicas of
	// a cluster in aggregate mode (saves re-deriving n keypairs per
	// replica); nil lets each replica derive the deterministic set itself.
	// Ignored unless AggregateVotes is set.
	VoteKeys *quorumcert.Keys
	// BatchVotes coalesces outbound vote/partial traffic per destination
	// through a network.VoteBatcher: one envelope per peer per flush
	// instead of one message per vote.
	BatchVotes bool
}

// VoteKeySet returns the Schnorr key material for aggregate mode: the
// shared VoteKeys when provided, otherwise a freshly derived deterministic
// set. Under DisableSig it returns nil — certificates degrade to counted
// signer bitmaps, mirroring SignPart/VerifyPart.
func (c Config) VoteKeySet() *quorumcert.Keys {
	if c.DisableSig {
		return nil
	}
	if c.VoteKeys != nil {
		return c.VoteKeys
	}
	return quorumcert.NewKeys()
}

// Defaulted returns cfg with zero fields replaced by defaults.
func (c Config) Defaulted() Config {
	if c.Timeout == 0 {
		c.Timeout = 200 * time.Millisecond
	}
	return c
}

// N returns the cluster size.
func (c Config) N() int { return len(c.Nodes) }

// IsMember reports whether id belongs to this replica group. Protocols
// drop messages from non-members: on a shared transport, traffic from
// other groups must not contaminate quorums.
func (c Config) IsMember(id types.NodeID) bool {
	for _, n := range c.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// ByzQuorum returns the Byzantine quorum 2f+1 where f = (n-1)/3, unless
// overridden for attested committees.
func (c Config) ByzQuorum() int {
	if c.ByzQuorumOverride > 0 {
		return c.ByzQuorumOverride
	}
	return 2*c.MaxByzFaults() + 1
}

// MaxByzFaults returns f = (n-1)/3, the Byzantine faults n nodes tolerate.
func (c Config) MaxByzFaults() int { return (c.N() - 1) / 3 }

// Majority returns the crash-fault quorum floor(n/2)+1.
func (c Config) Majority() int { return c.N()/2 + 1 }

// SignPart authenticates a protocol message: it signs the hash of the
// given parts as node Self. Returns nil when signatures are disabled.
func (c Config) SignPart(parts ...[]byte) []byte {
	if c.DisableSig {
		return nil
	}
	h := types.HashConcat(parts...)
	return c.Keys.Sign(c.Self, h[:])
}

// VerifyPart checks a signature produced by SignPart as node from.
func (c Config) VerifyPart(from types.NodeID, sig []byte, parts ...[]byte) bool {
	if c.DisableSig {
		return true
	}
	h := types.HashConcat(parts...)
	return c.Keys.Verify(from, h[:], sig)
}

// U64 renders a uint64 for signing transcripts.
func U64(v uint64) []byte {
	return []byte{
		byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32),
		byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v),
	}
}

// QuorumTracker counts distinct voters per slot key (e.g. "(view, seq)"),
// split by the digest each voter endorsed. A voter's first vote at a key
// pins it: a second vote from the same voter for a different digest is
// equivocation and is rejected rather than counted toward a second quorum,
// so one Byzantine voter can never contribute to two conflicting quorums at
// the same key.
type QuorumTracker struct {
	votes  map[string]map[types.NodeID]types.Hash
	counts map[string]map[types.Hash]int
}

// NewQuorumTracker creates an empty tracker.
func NewQuorumTracker() *QuorumTracker {
	return &QuorumTracker{
		votes:  map[string]map[types.NodeID]types.Hash{},
		counts: map[string]map[types.Hash]int{},
	}
}

// Add records voter's vote for digest at key and returns the number of
// distinct voters for (key, digest) afterward. Duplicate votes are no-ops;
// an equivocating vote (same voter, same key, different digest) is rejected
// — the first vote stands and the count for the new digest is unchanged.
func (q *QuorumTracker) Add(key string, voter types.NodeID, digest types.Hash) int {
	m, ok := q.votes[key]
	if !ok {
		m = map[types.NodeID]types.Hash{}
		q.votes[key] = m
	}
	if _, voted := m[voter]; voted {
		return q.counts[key][digest] // duplicate or equivocation: first vote wins
	}
	m[voter] = digest
	c, ok := q.counts[key]
	if !ok {
		c = map[types.Hash]int{}
		q.counts[key] = c
	}
	c[digest]++
	return c[digest]
}

// Count returns the number of distinct voters recorded for digest at key.
func (q *QuorumTracker) Count(key string, digest types.Hash) int {
	return q.counts[key][digest]
}

// Forget discards all state for key.
func (q *QuorumTracker) Forget(key string) {
	delete(q.votes, key)
	delete(q.counts, key)
}

// WaitDecisions collects n decisions from ch or fails after timeout,
// returning what arrived. Shared by protocol tests and benchmarks.
func WaitDecisions(ch <-chan Decision, n int, timeout time.Duration) []Decision {
	out := make([]Decision, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case d := <-ch:
			out = append(out, d)
		case <-deadline:
			return out
		}
	}
	return out
}
