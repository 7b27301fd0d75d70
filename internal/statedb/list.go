package statedb

import (
	"fmt"
	"math"
	"sync"

	"permchain/internal/types"
)

// This file is the deterministic executor every architecture shares.
// SimulateList runs a payload with read-your-writes semantics and
// first-read-wins version recording, and a failed payload keeps its reads
// but no writes. It records the read and write sets into reusable slices
// owned by an ExecScratch, so a transaction costs no per-call maps.

// ExecScratch holds the reusable buffers of one executor lane. It is not
// safe for concurrent use: OX keeps one per engine (execution is
// sequential by design), OXII keeps one per worker, and XOV endorsers
// draw one from the pool per call. The lists returned by
// SimulateList/ExecuteList alias the scratch and are valid only until its
// next use; a caller that keeps them clones them first.
type ExecScratch struct {
	reads  types.ReadList
	writes types.WriteList
}

// Reset clears the scratch, dropping references to previously recorded
// keys and values so pooled scratches don't retain committed data.
func (sc *ExecScratch) Reset() {
	clear(sc.reads)
	sc.reads = sc.reads[:0]
	clear(sc.writes)
	sc.writes = sc.writes[:0]
}

// scratchPool recycles ExecScratch buffers for callers without a natural
// place to keep one (XOV endorsement, the confidentiality packages,
// benchmarks).
var scratchPool = sync.Pool{New: func() any { return new(ExecScratch) }}

// GetScratch takes a scratch from the pool.
func GetScratch() *ExecScratch { return scratchPool.Get().(*ExecScratch) }

// PutScratch resets the scratch and returns it to the pool. The lists
// last returned from it become invalid.
func PutScratch(sc *ExecScratch) {
	sc.Reset()
	scratchPool.Put(sc)
}

// findWrite returns the index of key in the (unsorted, unique-keyed)
// write buffer, or -1. Payloads touch a handful of keys, so a linear
// scan beats any structure that would need per-transaction allocation.
func (sc *ExecScratch) findWrite(key string) int {
	for i := range sc.writes {
		if sc.writes[i].Key == key {
			return i
		}
	}
	return -1
}

func (sc *ExecScratch) hasRead(key string) bool {
	for i := range sc.reads {
		if sc.reads[i].Key == key {
			return true
		}
	}
	return false
}

// atoi64 parses a decimal integer from b with the exact semantics of
// DecodeInt with errors read as 0: empty input is 0, an optional single
// +/- sign, digits only, overflow fails. It exists because
// strconv.ParseInt(string(b), ...) copies b into a string the compiler
// cannot prove non-escaping, which was one allocation per
// read-modify-write op.
func atoi64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, true
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, false
		}
	}
	var un uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if un > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		un = un*10 + uint64(c-'0')
	}
	if neg {
		if un > uint64(math.MaxInt64)+1 {
			return 0, false
		}
		return -int64(un), true
	}
	if un > uint64(math.MaxInt64) {
		return 0, false
	}
	return int64(un), true
}

// listSim is the per-call state of SimulateList. It is a plain struct
// (not closures) so the whole simulation runs without heap allocation
// beyond the values it writes.
type listSim struct {
	r  Reader
	sc *ExecScratch
}

func (s *listSim) read(key string) []byte {
	if i := s.sc.findWrite(key); i >= 0 {
		return s.sc.writes[i].Value
	}
	v, ver, ok := s.r.Get(key)
	if !s.sc.hasRead(key) {
		if !ok {
			ver = types.Version{}
		}
		s.sc.reads = append(s.sc.reads, types.ReadItem{Key: key, Ver: ver})
	}
	if !ok {
		return nil
	}
	return v
}

func (s *listSim) readInt(key string) int64 {
	n, ok := atoi64(s.read(key))
	if !ok {
		return 0
	}
	return n
}

func (s *listSim) write(key string, val []byte) {
	if i := s.sc.findWrite(key); i >= 0 {
		s.sc.writes[i].Value = val
		return
	}
	s.sc.writes = append(s.sc.writes, types.WriteItem{Key: key, Value: val})
}

// SimulateList runs ops against the reader without committing, recording
// the read set (with observed versions) and the write set into sc. It
// provides read-your-writes semantics within the transaction. The
// returned lists are sorted by key, alias sc, and are valid until sc's
// next use. On payload failure the reads recorded so far are returned
// and the write list is empty.
func SimulateList(r Reader, ops []types.Op, sc *ExecScratch) (types.ReadList, types.WriteList, error) {
	sc.Reset()
	s := listSim{r: r, sc: sc}
	var err error
	for _, op := range ops {
		switch op.Code {
		case types.OpGet:
			s.read(op.Key)
		case types.OpPut:
			s.write(op.Key, op.Value)
		case types.OpAdd:
			s.write(op.Key, EncodeInt(s.readInt(op.Key)+op.Delta))
		case types.OpTransfer:
			from := s.readInt(op.Key)
			if from < op.Delta {
				err = fmt.Errorf("%w: %s has %d, need %d", ErrInsufficient, op.Key, from, op.Delta)
			} else {
				s.write(op.Key, EncodeInt(from-op.Delta))
				s.write(op.Key2, EncodeInt(s.readInt(op.Key2)+op.Delta))
			}
		case types.OpAssertGE:
			if v := s.readInt(op.Key); v < op.Delta {
				err = fmt.Errorf("%w: %s = %d < %d", ErrAssertFailed, op.Key, v, op.Delta)
			}
		default:
			err = fmt.Errorf("statedb: unknown opcode %v", op.Code)
		}
		if err != nil {
			clear(sc.writes)
			sc.writes = sc.writes[:0]
			break
		}
	}
	sc.reads.Sort()
	sc.writes.Sort()
	return sc.reads, sc.writes, err
}

// ApplyList commits a write list at the given version. Each key is
// written atomically under its shard's lock; keys in different shards
// commit independently (see the Store doc for why per-key atomicity
// suffices).
func (s *Store) ApplyList(ver types.Version, writes types.WriteList) {
	for i := range writes {
		b := bucketOf(writes[i].Key)
		sh := s.shardFor(b)
		s.lock(sh)
		sh.put(writes[i].Key, writes[i].Value, ver, b-sh.base, s.histLimit)
		sh.mu.Unlock()
	}
}

// ValidateList performs the Fabric-style MVCC check: every key in the
// read list must still be at the version the endorsement observed.
func (s *Store) ValidateList(reads types.ReadList) bool {
	for i := range reads {
		k, ver := reads[i].Key, reads[i].Ver
		b := bucketOf(k)
		sh := s.shardFor(b)
		s.rlock(sh)
		cur, ok := sh.buckets[b-sh.base][k]
		sh.mu.RUnlock()
		if !ok {
			if ver != (types.Version{}) {
				return false
			}
			continue
		}
		if cur.ver != ver {
			return false
		}
	}
	return true
}

// ExecuteList simulates ops via sc and, on success, commits the writes
// at the given version; a failed payload leaves the state untouched. The
// returned lists alias sc.
func (s *Store) ExecuteList(ver types.Version, ops []types.Op, sc *ExecScratch) (types.ReadList, types.WriteList, error) {
	reads, writes, err := SimulateList(s, ops, sc)
	if err == nil {
		s.ApplyList(ver, writes)
	}
	return reads, writes, err
}
