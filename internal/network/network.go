// Package network is the simulated message-passing substrate every
// protocol in permchain runs on. It replaces the real LAN/WAN deployments
// of the surveyed systems (see DESIGN.md, Substitutions) while preserving
// what the tutorial's comparisons depend on: message counts, communication
// phases, per-link latency, loss, partitions, and Byzantine senders.
//
// The transport is asynchronous: Send never blocks the sender, messages
// may be arbitrarily delayed (per-link latency function), dropped (loss
// rate or partitions), and Byzantine nodes may equivocate via outbound
// filters. There is no global clock, matching the asynchronous system
// model of §2.2.
//
// Every payload travels serialized: Send encodes it into a pooled frame
// through the shared wire codec (internal/wire) and delivery decodes it
// back, so traffic pays — and measures — real marshalling cost and
// per-message bytes (Stats.WireBytesOut/In, net/wire_bytes_{in,out}
// counters, net/{encode,decode} histograms), and no receiver shares
// memory with the sender or with another receiver. Every payload type
// must be registered with the codec; unregistered payloads and corrupt
// frames are dropped with cause DropCodec.
package network

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"permchain/internal/obs"
	"permchain/internal/types"
	"permchain/internal/wire"
)

// Message is one network datagram. Payload is a protocol-defined value;
// protocols within one network namespace their Type strings.
type Message struct {
	From    types.NodeID
	To      types.NodeID
	Type    string
	Payload any

	// In flight the payload travels serialized: frame holds the encoded
	// bytes (owned by enc, a pooled encoder released when the message is
	// delivered or dropped) and Payload is nil until delivery fills it
	// from the decoded frame.
	frame []byte
	enc   *wire.Encoder
}

// releaseFrame returns the pooled encode buffer. Every path that
// terminates an encoded message (drop, close, delivery) must call it
// exactly once.
func (m *Message) releaseFrame() {
	wire.PutEncoder(m.enc)
	m.enc, m.frame = nil, nil
}

// Endpoint is a node's attachment to the network.
type Endpoint struct {
	id    types.NodeID
	inbox chan Message
	net   *Network
	// depthMetric caches the per-endpoint inbox-depth histogram name so
	// the delivery hot path does not format it per message.
	depthMetric string
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() types.NodeID { return e.id }

// Inbox returns the channel messages are delivered on.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// Send sends a message from this endpoint.
func (e *Endpoint) Send(to types.NodeID, typ string, payload any) {
	e.net.Send(Message{From: e.id, To: to, Type: typ, Payload: payload})
}

// Broadcast sends to every other endpoint on the network.
func (e *Endpoint) Broadcast(typ string, payload any) {
	e.net.broadcastFrom(e.id, typ, payload)
}

// Multicast sends to each listed node except the sender itself. Consensus
// groups co-located on a shared network use it so traffic stays within
// the group.
func (e *Endpoint) Multicast(ids []types.NodeID, typ string, payload any) {
	for _, id := range ids {
		if id == e.id {
			continue
		}
		e.net.Send(Message{From: e.id, To: id, Type: typ, Payload: payload})
	}
}

// Filter rewrites a Byzantine node's outbound traffic: it receives each
// message the node sends and returns the messages actually transmitted.
// Returning nil silences the node; returning different payloads to
// different receivers is equivocation.
type Filter func(Message) []Message

// DropCause classifies why a message was lost; the chaos harness reports
// losses by cause, so "the partition ate it" is distinguishable from "the
// random loss dial ate it" — and an overload shed at the admission layer
// from either.
type DropCause int

const (
	DropRate      DropCause = iota // random per-message loss
	DropPartition                  // sender and receiver in different groups
	DropCrash                      // sender or receiver is crashed
	DropOverflow                   // receiver inbox full
	DropUnknown                    // destination never joined
	DropAdmission                  // shed by mempool admission control (via DropExternal)
	DropCodec                      // payload failed to encode or decode
	dropCauses                     // count; keep last
)

// String names the cause for reports.
func (c DropCause) String() string {
	switch c {
	case DropRate:
		return "rate"
	case DropPartition:
		return "partition"
	case DropCrash:
		return "crash"
	case DropOverflow:
		return "overflow"
	case DropUnknown:
		return "unknown-dest"
	case DropAdmission:
		return "admission"
	case DropCodec:
		return "codec"
	}
	return "?"
}

// Stats counts traffic. All counters are protected by the network lock.
type Stats struct {
	Sent      int64             // messages submitted
	Delivered int64             // messages delivered to an inbox
	Dropped   int64             // total losses, all causes
	ByCause   [dropCauses]int64 // losses broken down by DropCause
	ByType    map[string]int64
	// WireBytesOut/In count serialized payload bytes (encoded on
	// transmit / decoded on delivery).
	WireBytesOut int64
	WireBytesIn  int64
}

// Network is the shared medium. Safe for concurrent use.
type Network struct {
	mu        sync.RWMutex
	endpoints map[types.NodeID]*Endpoint
	latency   func(from, to types.NodeID) time.Duration
	dropRate  float64
	rng       *rand.Rand
	filters   map[types.NodeID]Filter
	attested  map[types.NodeID]bool
	groups    map[types.NodeID]int // partition group; absent = group 0
	crashed   map[types.NodeID]bool
	stats     Stats
	closed    bool
	// inboxDepth is the buffer depth for newly joined endpoints
	// (defaultInboxDepth unless WithInboxDepth overrides it).
	inboxDepth int
	// reg mirrors the traffic counters into an obs registry when set
	// (drop causes as counters, plus delivery-latency and per-link
	// queue-depth histograms). Guarded by mu like everything else.
	reg *obs.Registry
	// log receives structured fault-injection events (crash, partition,
	// heal); defaults to a discard logger. Guarded by mu.
	log *slog.Logger
	// logical counts network events (sends + deliveries) monotonically;
	// obs.ClockFunc(net.LogicalNow) turns it into a deterministic span
	// clock for chaos and determinism tests.
	logical atomic.Int64
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the per-link one-way delay function.
func WithLatency(f func(from, to types.NodeID) time.Duration) Option {
	return func(n *Network) { n.latency = f }
}

// WithUniformLatency sets a constant one-way delay on every link.
func WithUniformLatency(d time.Duration) Option {
	return WithLatency(func(_, _ types.NodeID) time.Duration { return d })
}

// WithDropRate makes every message independently lost with probability p.
func WithDropRate(p float64) Option {
	return func(n *Network) { n.dropRate = p }
}

// WithSeed seeds the loss randomness for reproducibility.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithRegistry mirrors traffic counters into reg: per-cause drop counters
// ("net/drop/<cause>"), sent/delivered totals, a delivery-latency histogram
// and per-link inbox-depth histograms.
func WithRegistry(reg *obs.Registry) Option {
	return func(n *Network) { n.reg = reg }
}

// WithWireCodec is a no-op.
//
// Deprecated: serialized transport is always on. The option remains only
// for its callers in the benchmark/ module and is removed together with
// them (ROADMAP item 1c).
func WithWireCodec() Option { return func(*Network) {} }

// defaultInboxDepth is sized so slow consumers in tests don't spuriously
// drop; overflow still counts as network loss rather than blocking the
// sender.
const defaultInboxDepth = 65536

// WithInboxDepth overrides the per-endpoint inbox buffer depth. Large
// clusters (n=64–128) use a smaller depth: the default costs O(n · depth)
// memory across endpoints, which dominates the simulation's footprint at
// scale. Values < 1 keep the default.
func WithInboxDepth(depth int) Option {
	return func(n *Network) {
		if depth >= 1 {
			n.inboxDepth = depth
		}
	}
}

// New creates a network with no endpoints.
func New(opts ...Option) *Network {
	n := &Network{
		endpoints:  map[types.NodeID]*Endpoint{},
		filters:    map[types.NodeID]Filter{},
		attested:   map[types.NodeID]bool{},
		inboxDepth: defaultInboxDepth,
		groups:     map[types.NodeID]int{},
		crashed:    map[types.NodeID]bool{},
		rng:        rand.New(rand.NewSource(1)),
		log:        obs.DiscardLogger(),
	}
	n.stats.ByType = map[string]int64{}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Join attaches a node and returns its endpoint. Joining twice returns
// the existing endpoint.
func (n *Network) Join(id types.NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.endpoints[id]; ok {
		return e
	}
	e := n.newEndpoint(id)
	n.endpoints[id] = e
	return e
}

// newEndpoint builds an endpoint, pre-formatting its metric names so
// the delivery path never calls fmt. Caller holds the lock.
func (n *Network) newEndpoint(id types.NodeID) *Endpoint {
	return &Endpoint{
		id:          id,
		inbox:       make(chan Message, n.inboxDepth),
		net:         n,
		depthMetric: fmt.Sprintf("net/inbox_depth/n%d", id),
	}
}

// Nodes returns the ids of all attached endpoints.
func (n *Network) Nodes() []types.NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]types.NodeID, 0, len(n.endpoints))
	for id := range n.endpoints {
		out = append(out, id)
	}
	return out
}

// SetFilter installs a Byzantine outbound filter for id. Attested nodes
// (AHL's trusted hardware, §2.3.4) cannot equivocate: installing a filter
// on one panics, catching misconfigured experiments early.
func (n *Network) SetFilter(id types.NodeID, f Filter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.attested[id] {
		panic(fmt.Sprintf("network: node %v is attested; cannot install Byzantine filter", id))
	}
	if f == nil {
		delete(n.filters, id)
		return
	}
	n.filters[id] = f
}

// Attest marks id as running trusted hardware: its messages cannot be
// forged or equivocated, the property AHL uses to shrink committees from
// 3f+1 to 2f+1.
func (n *Network) Attest(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.filters[id]; ok {
		panic(fmt.Sprintf("network: node %v already has a Byzantine filter; cannot attest", id))
	}
	n.attested[id] = true
}

// IsAttested reports whether id runs trusted hardware.
func (n *Network) IsAttested(id types.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.attested[id]
}

// SetLatency replaces the per-link delay function at runtime. Messages
// already in flight keep their original delay.
func (n *Network) SetLatency(f func(from, to types.NodeID) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = f
}

// Partition splits the nodes into isolated groups; messages between
// different groups are dropped. Nodes not listed stay in group 0.
func (n *Network) Partition(groups ...[]types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = map[types.NodeID]int{}
	for gi, g := range groups {
		for _, id := range g {
			n.groups[id] = gi + 1
		}
	}
	n.log.Warn("partition applied", "groups", len(groups))
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = map[types.NodeID]int{}
	n.log.Info("partition healed")
}

// SetDropRate replaces the random-loss probability at runtime; the chaos
// harness uses it for scripted loss bursts.
func (n *Network) SetDropRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropRate = p
}

// Crash mutes a node in both directions: messages it sends and messages
// addressed to it are dropped (cause DropCrash) until Restore. The
// endpoint itself stays attached, so a node "frozen" by Crash/Restore
// without a process restart keeps its inbox.
func (n *Network) Crash(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
	n.log.Warn("node crashed", "node", int(id))
}

// Restore unmutes a crashed node. In-flight messages sent while the node
// was crashed are already lost; traffic after Restore flows normally.
func (n *Network) Restore(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
	n.log.Info("node restored", "node", int(id))
}

// IsCrashed reports whether id is currently muted by Crash.
func (n *Network) IsCrashed(id types.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[id]
}

// Rejoin replaces a node's endpoint with a fresh one (empty inbox) and
// returns it, invalidating the previous Endpoint. A replica restarted
// after a crash calls Join through its constructor and receives this
// fresh attachment instead of the dead incarnation's inbox. Rejoining a
// node that never joined is equivalent to Join.
func (n *Network) Rejoin(id types.NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.newEndpoint(id)
	n.endpoints[id] = e
	return e
}

// Close drops all future traffic.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

// SetRegistry attaches (or detaches, with nil) an obs registry at runtime;
// see WithRegistry.
func (n *Network) SetRegistry(reg *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg = reg
}

// SetLogger attaches a structured logger for fault-injection events
// (crash, restore, partition, heal). The field is only read under the
// network lock; a nil-logger network logs nowhere.
func (n *Network) SetLogger(l *slog.Logger) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l != nil {
		n.log = l
	}
}

// LogicalNow returns the network's logical clock: the count of send and
// delivery events so far. It only moves when traffic moves, so span
// timestamps taken from it are reproducible under a fixed seed regardless
// of scheduler timing. Adapt it with obs.ClockFunc(net.LogicalNow).
func (n *Network) LogicalNow() int64 { return n.logical.Load() }

// StatsSnapshot returns a copy of the traffic counters. This is the only
// way to read Stats: the struct is written under the network mutex on
// every transmit/deliver, so callers must never retain a reference into
// the live struct (per-cause counters would tear under -race).
func (n *Network) StatsSnapshot() Stats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := n.stats
	out.ByType = make(map[string]int64, len(n.stats.ByType))
	for k, v := range n.stats.ByType {
		out.ByType[k] = v
	}
	return out
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{ByType: map[string]int64{}}
}

// Send transmits m, applying the sender's Byzantine filter, partitions,
// loss, and latency. It never blocks.
func (n *Network) Send(m Message) {
	n.mu.RLock()
	f := n.filters[m.From]
	n.mu.RUnlock()
	if f != nil {
		for _, rewritten := range f(m) {
			rewritten.From = m.From // a filter cannot forge the sender
			n.transmit(rewritten)
		}
		return
	}
	n.transmit(m)
}

func (n *Network) broadcastFrom(from types.NodeID, typ string, payload any) {
	n.mu.RLock()
	ids := make([]types.NodeID, 0, len(n.endpoints))
	for id := range n.endpoints {
		if id != from {
			ids = append(ids, id)
		}
	}
	n.mu.RUnlock()
	for _, id := range ids {
		n.Send(Message{From: from, To: id, Type: typ, Payload: payload})
	}
}

// DropExternal records a loss decided outside the transport — the
// admission layer sheds a transaction before any message exists, but
// the loss still belongs in the same per-cause accounting so overload
// sheds are distinguishable from chaos-induced drops in Stats
// snapshots and the E10/E14 reports. Nothing was Sent, so only the
// loss counters advance.
func (n *Network) DropExternal(cause DropCause) {
	n.mu.Lock()
	n.drop(cause)
	n.mu.Unlock()
}

// drop records a loss with its cause. Caller holds the lock.
func (n *Network) drop(cause DropCause) {
	n.stats.Dropped++
	n.stats.ByCause[cause]++
	if n.reg != nil {
		n.reg.Counter("net/drop/" + cause.String()).Inc()
	}
}

func (n *Network) transmit(m Message) {
	sentAt := time.Now()
	n.logical.Add(1)

	// Serialize the payload outside the lock. From here on the message
	// carries a pooled frame that every terminating path must release.
	e := wire.GetEncoder()
	encStart := time.Now()
	if err := wire.EncodeFrame(e, m.Payload); err != nil {
		wire.PutEncoder(e)
		n.mu.Lock()
		n.stats.Sent++
		n.stats.ByType[m.Type]++
		n.drop(DropCodec)
		n.mu.Unlock()
		return
	}
	encDur := time.Since(encStart)
	m.enc, m.frame, m.Payload = e, e.Frame(), nil
	wireBytes := int64(len(m.frame))

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		m.releaseFrame()
		return
	}
	n.stats.Sent++
	n.stats.ByType[m.Type]++
	n.stats.WireBytesOut += wireBytes
	if n.reg != nil {
		n.reg.Counter("net/sent").Inc()
		n.reg.Counter("net/wire_bytes_out").Add(wireBytes)
		n.reg.Histogram("net/encode").Observe(int64(encDur))
	}
	if _, ok := n.endpoints[m.To]; !ok {
		n.drop(DropUnknown)
		n.mu.Unlock()
		m.releaseFrame()
		return
	}
	if n.crashed[m.From] || n.crashed[m.To] {
		n.drop(DropCrash)
		n.mu.Unlock()
		m.releaseFrame()
		return
	}
	if n.groups[m.From] != n.groups[m.To] {
		n.drop(DropPartition)
		n.mu.Unlock()
		m.releaseFrame()
		return
	}
	if n.dropRate > 0 && n.rng.Float64() < n.dropRate {
		n.drop(DropRate)
		n.mu.Unlock()
		m.releaseFrame()
		return
	}
	var delay time.Duration
	if n.latency != nil {
		delay = n.latency(m.From, m.To)
	}
	n.mu.Unlock()

	if delay <= 0 {
		n.deliver(m, sentAt)
		return
	}
	time.AfterFunc(delay, func() { n.deliver(m, sentAt) })
}

// deliver re-resolves the destination at delivery time: a delayed message
// addressed to a node that crashed (or was replaced via Rejoin) while the
// message was in flight lands in the node's *current* state, not a stale
// endpoint pointer.
func (n *Network) deliver(m Message, sentAt time.Time) {
	n.logical.Add(1)

	// Decode outside the lock and recycle the frame before the payload
	// reaches the endpoint — decoded values never alias the pooled
	// buffer, so this is safe. A frame that fails to decode is a
	// transport loss (DropCodec), never a silent misdelivery.
	decStart := time.Now()
	v, err := wire.DecodeFrame(m.frame)
	decDur := time.Since(decStart)
	wireBytes := int64(len(m.frame))
	m.releaseFrame()
	if err != nil {
		n.mu.Lock()
		n.drop(DropCodec)
		n.mu.Unlock()
		return
	}
	m.Payload = v

	n.mu.Lock()
	dst, ok := n.endpoints[m.To]
	if !ok {
		n.drop(DropUnknown)
		n.mu.Unlock()
		return
	}
	if n.crashed[m.To] {
		n.drop(DropCrash)
		n.mu.Unlock()
		return
	}
	select {
	case dst.inbox <- m:
		n.stats.Delivered++
		n.stats.WireBytesIn += wireBytes
		if n.reg != nil {
			n.reg.Counter("net/delivered").Inc()
			n.reg.Histogram("net/delivery_latency").Observe(int64(time.Since(sentAt)))
			n.reg.Histogram(dst.depthMetric).Observe(int64(len(dst.inbox)))
			n.reg.Counter("net/wire_bytes_in").Add(wireBytes)
			n.reg.Histogram("net/decode").Observe(int64(decDur))
		}
	default:
		n.drop(DropOverflow)
	}
	n.mu.Unlock()
}
