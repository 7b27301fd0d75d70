package network

import (
	"sync"
	"time"

	"permchain/internal/obs"
	"permchain/internal/types"
)

// MsgVoteBatch is the wire type of a coalesced batch envelope. Protocols
// that enable vote batching add one Unbatch case to their message loop and
// re-dispatch the contained messages.
const MsgVoteBatch = "net/votebatch"

// BatchItem is one vote inside a batch envelope.
type BatchItem struct {
	Type    string
	Payload any
}

// VoteBatch is the payload of a MsgVoteBatch message.
type VoteBatch struct {
	Items []BatchItem
}

// VoteBatcherConfig tunes a VoteBatcher.
type VoteBatcherConfig struct {
	// MaxBatch flushes a destination's queue as soon as it holds this many
	// votes. Default 32.
	MaxBatch int
	// MaxDelay bounds how long the first queued vote waits before a flush,
	// so batching trades bounded latency for fewer messages. Default 2ms.
	MaxDelay time.Duration
	// Obs receives per-batch metrics (nil-safe): votebatch/batches,
	// votebatch/items, votebatch/batch_size histogram, and
	// votebatch/flush_{full,deadline} counters.
	Obs *obs.Obs
}

// VoteBatcher coalesces outbound votes per destination: instead of one
// network message per vote, each peer receives one MsgVoteBatch per flush.
// All-to-all vote phases then cost O(n) envelopes per flush interval rather
// than O(n²) singletons. Enqueue is called from the owning protocol's event
// loop; the deadline flush runs on a timer goroutine, so internal state is
// mutex-guarded.
type VoteBatcher struct {
	ep  *Endpoint
	cfg VoteBatcherConfig

	mu      sync.Mutex
	queues  map[types.NodeID][]BatchItem
	timer   *time.Timer
	stopped bool
}

// NewVoteBatcher creates a batcher sending through ep.
func NewVoteBatcher(ep *Endpoint, cfg VoteBatcherConfig) *VoteBatcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &VoteBatcher{ep: ep, cfg: cfg, queues: make(map[types.NodeID][]BatchItem)}
}

// batchSlicePool recycles batch item slices between flushes: Send
// copies the items into a frame synchronously, so no receiver ever sees
// the slice itself.
var batchSlicePool = sync.Pool{New: func() any {
	s := make([]BatchItem, 0, 32)
	return &s
}}

// Enqueue queues one vote for to. The queue flushes immediately at MaxBatch
// votes, or when the MaxDelay deadline (armed by the first queued vote)
// fires. After Stop, votes pass through unbatched so nothing is lost.
func (b *VoteBatcher) Enqueue(to types.NodeID, typ string, payload any) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.ep.Send(to, typ, payload)
		return
	}
	q := b.queues[to]
	if q == nil {
		q = *batchSlicePool.Get().(*[]BatchItem)
	}
	q = append(q, BatchItem{Type: typ, Payload: payload})
	if len(q) >= b.cfg.MaxBatch {
		delete(b.queues, to)
		b.mu.Unlock()
		b.emit(to, q, "full")
		return
	}
	b.queues[to] = q
	if b.timer == nil {
		b.timer = time.AfterFunc(b.cfg.MaxDelay, b.deadlineFlush)
	}
	b.mu.Unlock()
}

// Multicast enqueues one vote per listed destination, skipping self —
// the batched analogue of Endpoint.Multicast.
func (b *VoteBatcher) Multicast(ids []types.NodeID, typ string, payload any) {
	for _, id := range ids {
		if id != b.ep.ID() {
			b.Enqueue(id, typ, payload)
		}
	}
}

// Flush sends every queued vote now.
func (b *VoteBatcher) Flush() { b.flushAll("deadline") }

// Stop flushes pending votes and stops the deadline timer. Subsequent
// Enqueues degrade to direct sends.
func (b *VoteBatcher) Stop() {
	b.mu.Lock()
	b.stopped = true
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	pending := b.queues
	b.queues = make(map[types.NodeID][]BatchItem)
	b.mu.Unlock()
	for to, items := range pending {
		b.emit(to, items, "deadline")
	}
}

func (b *VoteBatcher) deadlineFlush() { b.flushAll("deadline") }

func (b *VoteBatcher) flushAll(cause string) {
	b.mu.Lock()
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	pending := b.queues
	b.queues = make(map[types.NodeID][]BatchItem)
	b.mu.Unlock()
	for to, items := range pending {
		b.emit(to, items, cause)
	}
}

// emit sends one batch envelope and records its metrics.
func (b *VoteBatcher) emit(to types.NodeID, items []BatchItem, cause string) {
	b.ep.Send(to, MsgVoteBatch, VoteBatch{Items: items})
	// Send serialized the batch synchronously; nothing downstream holds
	// the slice, so it can back the next flush.
	clear(items)
	s := items[:0]
	batchSlicePool.Put(&s)
	o := b.cfg.Obs
	o.Inc("votebatch/batches")
	o.Add("votebatch/items", int64(len(items)))
	o.ObserveInt("votebatch/batch_size", int64(len(items)))
	o.Inc("votebatch/flush_" + cause)
}

// Unbatch expands a batch envelope into its contained messages, each
// stamped with the envelope's provenance (the network layer guarantees the
// envelope's From; items inherit it, so batching cannot forge senders).
// Messages of any other type yield nil.
func Unbatch(m Message) []Message {
	vb, ok := m.Payload.(VoteBatch)
	if m.Type != MsgVoteBatch || !ok {
		return nil
	}
	out := make([]Message, len(vb.Items))
	for i, it := range vb.Items {
		out[i] = Message{From: m.From, To: m.To, Type: it.Type, Payload: it.Payload}
	}
	return out
}
