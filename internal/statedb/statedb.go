// Package statedb implements the blockchain world state (§2.2): a
// versioned key-value store with the multi-version concurrency checks the
// execute-order-validate architecture depends on (§2.3.3), plus the
// deterministic executor for transaction payloads that every architecture
// shares.
//
// The store is lock-striped: keys hash to one of a fixed set of hash
// buckets, contiguous bucket ranges are owned by shards, and each shard
// has its own lock. Readers and writers touching different shards never
// contend, which is what lets the parallel executors of OXII and the
// parallel validators of FastFabric scale with workers instead of
// serializing on a store-wide mutex (the serialization §2.3.3's
// performance discussion is about).
//
// State hashing is incremental: each bucket keeps a cached digest that a
// write invalidates, and StateHash recombines only dirty buckets through
// a fixed two-level bucket tree (buckets → groups → root). The tree shape
// is a constant of the package — independent of the shard count — so
// replicas configured with different shard counts still agree on every
// state hash.
//
// Versioning convention: the version of a key is the (block height,
// transaction index) that last wrote it. Blocks carrying transactions
// start at height 1; the zero Version means "never written", which is why
// a key that has never existed reads as version 0.0.
package statedb

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"permchain/internal/types"
)

// The bucket tree is a fixed-shape two-level hash tree: hashGroups groups
// of bucketsPerGroup buckets each. Every key maps to one bucket by key
// hash; the root digests the group hashes, each group digests its bucket
// hashes. The shape never depends on the shard count, so the state hash
// is a pure function of the state contents.
const (
	hashGroups      = 64
	bucketsPerGroup = 64
	numBuckets      = hashGroups * bucketsPerGroup

	// DefaultShards is the default lock-stripe count. Shard counts are
	// powers of two between 1 and hashGroups so each shard owns whole
	// hash groups.
	DefaultShards = 64
)

// bucketOf maps a key to its global hash bucket (FNV-1a 64).
func bucketOf(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (numBuckets - 1))
}

// Reader is a read view of committed state.
type Reader interface {
	// Get returns the value and version at key, and whether it exists.
	Get(key string) ([]byte, types.Version, bool)
}

// HistEntry is one historical value of a key, for provenance queries.
type HistEntry struct {
	Version types.Version
	Value   []byte
}

type entry struct {
	val []byte
	ver types.Version
}

// shard is one lock stripe: a contiguous range of hash buckets with
// their own lock, per-bucket maps, per-key history, and hash caches.
type shard struct {
	mu   sync.RWMutex
	base int // first global bucket owned by this shard

	// buckets[i] holds the entries of global bucket base+i; nil until
	// first write. shared[i] marks a map referenced by an outstanding
	// Capture: the next write clones it instead of mutating in place.
	buckets []map[string]entry
	shared  []bool
	live    int // live keys across all buckets

	hist       map[string][]HistEntry
	histShared bool

	// Hash caches for the bucket tree. A write marks its bucket (and the
	// bucket's group) dirty; StateHash recomputes only dirty entries.
	bucketDirty []bool
	bucketHash  []types.Hash
	groupDirty  []bool
	groupHash   []types.Hash
}

// Store is the in-memory world state. It is safe for concurrent use;
// operations on keys in different shards proceed in parallel. Writes are
// atomic per key: a multi-key write set becomes visible key by key, and
// the MVCC validation step is what rejects transactions that observed a
// torn combination (exactly Fabric's endorsement model).
type Store struct {
	shards     []*shard
	shardShift uint // globalBucket >> shardShift == shard index
	histLimit  int
	lockWaits  atomic.Int64
}

// Option configures a Store.
type Option func(*storeConfig)

type storeConfig struct {
	histLimit int
	shards    int
}

// WithHistory keeps up to limit historical versions per key.
func WithHistory(limit int) Option {
	return func(c *storeConfig) { c.histLimit = limit }
}

// WithShards sets the lock-stripe count. Values are clamped to powers of
// two in [1, 64]; the state hash does not depend on the choice. Shard
// count 1 reproduces the single-global-lock behavior (useful as a
// contention baseline in benchmarks).
func WithShards(n int) Option {
	return func(c *storeConfig) { c.shards = n }
}

// New creates an empty store.
func New(opts ...Option) *Store {
	cfg := storeConfig{shards: DefaultShards}
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.shards
	if n < 1 {
		n = 1
	}
	if n > hashGroups {
		n = hashGroups
	}
	// Round down to a power of two so shards divide the bucket space.
	for n&(n-1) != 0 {
		n &= n - 1
	}
	perShard := numBuckets / n
	shift := uint(0)
	for 1<<shift < perShard {
		shift++
	}
	s := &Store{
		shards:     make([]*shard, n),
		shardShift: shift,
		histLimit:  cfg.histLimit,
	}
	for i := range s.shards {
		sh := &shard{
			base:        i * perShard,
			buckets:     make([]map[string]entry, perShard),
			shared:      make([]bool, perShard),
			hist:        make(map[string][]HistEntry),
			bucketDirty: make([]bool, perShard),
			bucketHash:  make([]types.Hash, perShard),
			groupDirty:  make([]bool, perShard/bucketsPerGroup),
			groupHash:   make([]types.Hash, perShard/bucketsPerGroup),
		}
		for b := range sh.bucketDirty {
			sh.bucketDirty[b] = true
		}
		for g := range sh.groupDirty {
			sh.groupDirty[g] = true
		}
		s.shards[i] = sh
	}
	return s
}

// ShardCount returns the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

// LockWaits returns how many lock acquisitions had to wait because
// another goroutine held the shard. It is a contention witness for
// benchmarks, not a correctness signal.
func (s *Store) LockWaits() int64 { return s.lockWaits.Load() }

func (s *Store) shardFor(bucket int) *shard {
	return s.shards[bucket>>s.shardShift]
}

func (s *Store) lock(sh *shard) {
	if !sh.mu.TryLock() {
		s.lockWaits.Add(1)
		sh.mu.Lock()
	}
}

func (s *Store) rlock(sh *shard) {
	if !sh.mu.TryRLock() {
		s.lockWaits.Add(1)
		sh.mu.RLock()
	}
}

// Get implements Reader.
func (s *Store) Get(key string) ([]byte, types.Version, bool) {
	b := bucketOf(key)
	sh := s.shardFor(b)
	s.rlock(sh)
	e, ok := sh.buckets[b-sh.base][key]
	sh.mu.RUnlock()
	if !ok {
		return nil, types.Version{}, false
	}
	return e.val, e.ver, true
}

// GetInt reads key as an integer; a missing key reads as 0.
func (s *Store) GetInt(key string) int64 {
	v, _, ok := s.Get(key)
	if !ok {
		return 0
	}
	n, err := DecodeInt(v)
	if err != nil {
		return 0
	}
	return n
}

// put writes one key into the shard. Caller holds the shard lock.
func (sh *shard) put(k string, v []byte, ver types.Version, lb, histLimit int) {
	m := sh.buckets[lb]
	switch {
	case m == nil:
		m = make(map[string]entry)
		sh.buckets[lb] = m
	case sh.shared[lb]:
		// Copy-on-write: an outstanding Capture references this map, so
		// clone before the first mutation and let the capture keep the
		// frozen original.
		nm := make(map[string]entry, len(m)+1)
		for kk, vv := range m {
			nm[kk] = vv
		}
		sh.buckets[lb] = nm
		sh.shared[lb] = false
		m = nm
	}
	if histLimit > 0 {
		if sh.histShared {
			nh := make(map[string][]HistEntry, len(sh.hist))
			for kk, hh := range sh.hist {
				nh[kk] = hh
			}
			sh.hist = nh
			sh.histShared = false
		}
		h := append(sh.hist[k], HistEntry{Version: ver, Value: v})
		if len(h) > histLimit {
			h = h[len(h)-histLimit:]
		}
		sh.hist[k] = h
	}
	if _, ok := m[k]; !ok {
		sh.live++
	}
	m[k] = entry{val: v, ver: ver}
	sh.bucketDirty[lb] = true
	sh.groupDirty[lb/bucketsPerGroup] = true
}

// History returns the retained historical values of key, oldest first.
func (s *Store) History(key string) []HistEntry {
	sh := s.shardFor(bucketOf(key))
	s.rlock(sh)
	defer sh.mu.RUnlock()
	h := sh.hist[key]
	out := make([]HistEntry, len(h))
	copy(out, h)
	return out
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		s.rlock(sh)
		n += sh.live
		sh.mu.RUnlock()
	}
	return n
}

// Keys returns all live keys, sorted.
func (s *Store) Keys() []string {
	var out []string
	for _, sh := range s.shards {
		s.rlock(sh)
		for _, m := range sh.buckets {
			for k := range m {
				out = append(out, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Entry is one key-value pair returned by Scan.
type Entry struct {
	Key     string
	Value   []byte
	Version types.Version
}

// Scan returns all live entries whose key starts with prefix, sorted by
// key — the range-query primitive ledger databases expose (e.g. listing
// an enterprise's namespace or a shard's keyspace).
func (s *Store) Scan(prefix string) []Entry {
	var out []Entry
	for _, sh := range s.shards {
		s.rlock(sh)
		for _, m := range sh.buckets {
			for k, e := range m {
				if strings.HasPrefix(k, prefix) {
					out = append(out, Entry{Key: k, Value: e.val, Version: e.ver})
				}
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// hashBucket digests one bucket: its keys sorted, each key/value pair
// length-framed by HashConcat. Empty buckets digest to the zero hash
// without hashing.
func hashBucket(m map[string]entry) types.Hash {
	if len(m) == 0 {
		return types.Hash{}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		parts = append(parts, []byte(k), m[k].val)
	}
	return types.HashConcat(parts...)
}

// refreshHashes recomputes the dirty bucket and group digests of the
// shard. Caller holds the shard's write lock.
func (sh *shard) refreshHashes() {
	for lg := range sh.groupDirty {
		if !sh.groupDirty[lg] {
			continue
		}
		lo, hi := lg*bucketsPerGroup, (lg+1)*bucketsPerGroup
		for lb := lo; lb < hi; lb++ {
			if sh.bucketDirty[lb] {
				sh.bucketHash[lb] = hashBucket(sh.buckets[lb])
				sh.bucketDirty[lb] = false
			}
		}
		parts := make([][]byte, bucketsPerGroup)
		for i := 0; i < bucketsPerGroup; i++ {
			parts[i] = sh.bucketHash[lo+i][:]
		}
		sh.groupHash[lg] = types.HashConcat(parts...)
		sh.groupDirty[lg] = false
	}
}

// StateHash digests the full state deterministically; two replicas with
// identical state produce identical hashes, regardless of shard count.
// The digest is the root of the fixed bucket tree: only buckets written
// since the last call are re-hashed, so the cost is O(dirty buckets),
// not O(total state). Used on the snapshot path, by replica-agreement
// checks, and by the scalability experiments.
func (s *Store) StateHash() types.Hash {
	parts := make([][]byte, 0, hashGroups)
	groups := make([]types.Hash, 0, hashGroups)
	for _, sh := range s.shards {
		s.lock(sh)
		sh.refreshHashes()
		groups = append(groups, sh.groupHash...)
		sh.mu.Unlock()
	}
	for i := range groups {
		parts = append(parts, groups[i][:])
	}
	return types.HashConcat(parts...)
}

// FullRescanHash is the pre-bucket-tree reference implementation of state
// hashing: collect every key, sort, digest everything. It produces a
// different (legacy) digest than StateHash and exists as the O(n log n)
// baseline the E13 experiment and the statedb benchmarks compare the
// incremental bucket tree against.
func (s *Store) FullRescanHash() types.Hash {
	type kv struct {
		k string
		v []byte
	}
	var all []kv
	for _, sh := range s.shards {
		s.rlock(sh)
		for _, m := range sh.buckets {
			for k, e := range m {
				all = append(all, kv{k, e.val})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	parts := make([][]byte, 0, 2*len(all))
	for _, e := range all {
		parts = append(parts, []byte(e.k), e.v)
	}
	return types.HashConcat(parts...)
}

// Snapshot is a full, self-contained copy of a Store's contents: every
// live entry, the retained per-key history, and the history limit it was
// taken under. It is the unit the durable storage engine checkpoints to
// disk (internal/store) and the input to Restore.
type Snapshot struct {
	Entries   []Entry
	Hist      map[string][]HistEntry
	HistLimit int
}

// Capture is a lightweight point-in-time freeze of a Store, the cheap
// half of a copy-on-write snapshot. Taking one briefly locks each shard
// to mark its buckets shared; the next write to a shared bucket clones it
// (copy-on-first-write) so the capture stays frozen while the executor
// keeps mutating live state. Materialize turns the capture into a full
// sorted Snapshot without holding any store locks — the expensive O(n)
// copy runs off the commit path.
type Capture struct {
	buckets   []map[string]entry       // global bucket order; nil for empty buckets
	hists     []map[string][]HistEntry // one per shard; nil when empty
	histLimit int
}

// Capture freezes the store's current contents. See Capture's type doc.
func (s *Store) Capture() *Capture {
	c := &Capture{
		buckets:   make([]map[string]entry, 0, numBuckets),
		hists:     make([]map[string][]HistEntry, 0, len(s.shards)),
		histLimit: s.histLimit,
	}
	for _, sh := range s.shards {
		s.lock(sh)
		for lb, m := range sh.buckets {
			if len(m) == 0 {
				// Nothing to freeze; the live (possibly nil) map may grow
				// in place without affecting the capture.
				c.buckets = append(c.buckets, nil)
				continue
			}
			sh.shared[lb] = true
			c.buckets = append(c.buckets, m)
		}
		if len(sh.hist) > 0 {
			sh.histShared = true
			c.hists = append(c.hists, sh.hist)
		} else {
			c.hists = append(c.hists, nil)
		}
		sh.mu.Unlock()
	}
	return c
}

// Materialize builds the full sorted Snapshot from the capture. It takes
// no store locks and may run concurrently with writes to the live store;
// the result reflects exactly the state at Capture time.
func (c *Capture) Materialize() *Snapshot {
	snap := &Snapshot{HistLimit: c.histLimit}
	total := 0
	for _, m := range c.buckets {
		total += len(m)
	}
	snap.Entries = make([]Entry, 0, total)
	for _, m := range c.buckets {
		for k, e := range m {
			snap.Entries = append(snap.Entries, Entry{Key: k, Value: e.val, Version: e.ver})
		}
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].Key < snap.Entries[j].Key })
	nhist := 0
	for _, h := range c.hists {
		nhist += len(h)
	}
	if nhist > 0 {
		snap.Hist = make(map[string][]HistEntry, nhist)
		for _, h := range c.hists {
			for k, hh := range h {
				cp := make([]HistEntry, len(hh))
				copy(cp, hh)
				snap.Hist[k] = cp
			}
		}
	}
	return snap
}

// Snapshot copies the full state. Entries come back sorted by key so the
// snapshot (and anything serialized from it) is deterministic. It is
// Capture followed by Materialize; callers that want the copy off their
// own critical path should use the two halves directly.
func (s *Store) Snapshot() *Snapshot {
	return s.Capture().Materialize()
}

// Restore replaces the store's contents with the snapshot's. The store
// keeps its own configured history limit: restored history is trimmed to
// it (keeping the newest entries), and a store configured without history
// drops the snapshot's history entirely. Replaying the block suffix after
// Restore therefore reproduces exactly the state — and, when the limits
// match, the history — of a store that never went through a snapshot.
// Outstanding Captures keep their frozen pre-Restore view.
func (s *Store) Restore(snap *Snapshot) {
	// Route everything into fresh maps first, without holding locks.
	bmaps := make([]map[string]entry, numBuckets)
	for _, e := range snap.Entries {
		b := bucketOf(e.Key)
		m := bmaps[b]
		if m == nil {
			m = make(map[string]entry)
			bmaps[b] = m
		}
		m[e.Key] = entry{val: e.Value, ver: e.Version}
	}
	hmaps := make([]map[string][]HistEntry, len(s.shards))
	for i := range hmaps {
		hmaps[i] = make(map[string][]HistEntry)
	}
	if s.histLimit > 0 {
		for k, h := range snap.Hist {
			if len(h) == 0 {
				continue
			}
			if len(h) > s.histLimit {
				h = h[len(h)-s.histLimit:]
			}
			cp := make([]HistEntry, len(h))
			copy(cp, h)
			si := bucketOf(k) >> s.shardShift
			hmaps[si][k] = cp
		}
	}
	for si, sh := range s.shards {
		s.lock(sh)
		sh.live = 0
		for lb := range sh.buckets {
			m := bmaps[sh.base+lb]
			sh.buckets[lb] = m
			sh.shared[lb] = false
			sh.bucketDirty[lb] = true
			sh.live += len(m)
		}
		for lg := range sh.groupDirty {
			sh.groupDirty[lg] = true
		}
		sh.hist = hmaps[si]
		sh.histShared = false
		sh.mu.Unlock()
	}
}

// EncodeInt renders an integer as its decimal byte string, the canonical
// integer encoding of the store.
func EncodeInt(n int64) []byte { return strconv.AppendInt(nil, n, 10) }

// DecodeInt parses a value written by EncodeInt.
func DecodeInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// Execution errors. A transaction that fails retains no effects.
var (
	// ErrInsufficient is returned when a transfer would drive a balance
	// negative.
	ErrInsufficient = errors.New("statedb: insufficient balance")
	// ErrAssertFailed is returned when an OpAssertGE predicate fails.
	ErrAssertFailed = errors.New("statedb: assertion failed")
)
