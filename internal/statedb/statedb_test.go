package statedb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"permchain/internal/types"
)

func TestGetMissing(t *testing.T) {
	s := New()
	if _, _, ok := s.Get("nope"); ok {
		t.Fatal("missing key reported present")
	}
	if s.GetInt("nope") != 0 {
		t.Fatal("missing int key not 0")
	}
}

func TestApplyGetRoundTrip(t *testing.T) {
	s := New()
	ver := types.Version{Block: 1, Tx: 0}
	s.ApplyList(ver, types.WriteList{{Key: "a", Value: []byte("x")}})
	v, gotVer, ok := s.Get("a")
	if !ok || string(v) != "x" || gotVer != ver {
		t.Fatalf("got %q %v %v", v, gotVer, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestValidateMVCC(t *testing.T) {
	s := New()
	v1 := types.Version{Block: 1, Tx: 0}
	s.ApplyList(v1, types.WriteList{{Key: "a", Value: []byte("x")}})

	// Reading the current version validates.
	if !s.ValidateList(types.ReadList{{Key: "a", Ver: v1}}) {
		t.Fatal("current version rejected")
	}
	// A read of a missing key at the zero version validates.
	if !s.ValidateList(types.ReadList{{Key: "ghost"}}) {
		t.Fatal("absent key at zero version rejected")
	}
	// A stale version fails after an overwrite.
	s.ApplyList(types.Version{Block: 2, Tx: 3}, types.WriteList{{Key: "a", Value: []byte("y")}})
	if s.ValidateList(types.ReadList{{Key: "a", Ver: v1}}) {
		t.Fatal("stale version validated")
	}
	// A read that expected a value for a key that never existed fails.
	if s.ValidateList(types.ReadList{{Key: "ghost", Ver: v1}}) {
		t.Fatal("phantom read validated")
	}
	// A read of zero version for a key that now exists fails.
	if s.ValidateList(types.ReadList{{Key: "a"}}) {
		t.Fatal("zero-version read of existing key validated")
	}
}

func TestHistory(t *testing.T) {
	s := New(WithHistory(2))
	for i := 1; i <= 3; i++ {
		s.ApplyList(types.Version{Block: uint64(i)}, types.WriteList{{Key: "k", Value: EncodeInt(int64(i))}})
	}
	h := s.History("k")
	if len(h) != 2 {
		t.Fatalf("history len = %d, want 2 (bounded)", len(h))
	}
	if h[0].Version.Block != 2 || h[1].Version.Block != 3 {
		t.Fatalf("history order wrong: %v", h)
	}
	// History disabled by default.
	s2 := New()
	s2.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "k", Value: []byte("v")}})
	if len(s2.History("k")) != 0 {
		t.Fatal("history retained when disabled")
	}
}

func TestKeysSorted(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "b"}, {Key: "a"}, {Key: "c"}})
	ks := s.Keys()
	if len(ks) != 3 || ks[0] != "a" || ks[1] != "b" || ks[2] != "c" {
		t.Fatalf("Keys = %v", ks)
	}
}

func TestStateHashAgreement(t *testing.T) {
	a, b := New(), New()
	// Same writes in different order must agree.
	a.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "x", Value: []byte("1")}})
	a.ApplyList(types.Version{Block: 2}, types.WriteList{{Key: "y", Value: []byte("2")}})
	b.ApplyList(types.Version{Block: 2}, types.WriteList{{Key: "y", Value: []byte("2")}})
	b.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "x", Value: []byte("1")}})
	if a.StateHash() != b.StateHash() {
		t.Fatal("identical states hash differently")
	}
	b.ApplyList(types.Version{Block: 3}, types.WriteList{{Key: "y", Value: []byte("3")}})
	if a.StateHash() == b.StateHash() {
		t.Fatal("different states hash equal")
	}
}

func TestIntCodec(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, -9999999, 1 << 60} {
		got, err := DecodeInt(EncodeInt(n))
		if err != nil || got != n {
			t.Fatalf("round trip %d → %d, err %v", n, got, err)
		}
	}
	if n, err := DecodeInt(nil); err != nil || n != 0 {
		t.Fatal("empty value should decode to 0")
	}
	if _, err := DecodeInt([]byte("xyz")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestSimulateReadYourWrites(t *testing.T) {
	s := New()
	reads, writes, err := SimulateList(s, []types.Op{
		{Code: types.OpPut, Key: "k", Value: EncodeInt(5)},
		{Code: types.OpAdd, Key: "k", Delta: 3},
	}, new(ExecScratch))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := writes.Get("k"); string(v) != "8" {
		t.Fatalf("write = %q, want 8", v)
	}
	// OpAdd read k from the write buffer, not the store, so it records no
	// read: only reads that reach the store do.
	if len(reads) != 0 {
		t.Fatalf("reads = %v, want none (buffered)", reads)
	}
}

func TestSimulateRecordsVersions(t *testing.T) {
	s := New()
	ver := types.Version{Block: 4, Tx: 2}
	s.ApplyList(ver, types.WriteList{{Key: "k", Value: EncodeInt(10)}})
	reads, writes, err := SimulateList(s, []types.Op{{Code: types.OpAdd, Key: "k", Delta: 1}}, new(ExecScratch))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := reads.Get("k"); got != ver {
		t.Fatalf("read version = %v, want %v", got, ver)
	}
	if v, _ := writes.Get("k"); string(v) != "11" {
		t.Fatalf("write = %q", v)
	}
}

func TestSimulateTransfer(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "alice", Value: EncodeInt(100)}})
	_, writes, err := SimulateList(s, []types.Op{{Code: types.OpTransfer, Key: "alice", Key2: "bob", Delta: 30}}, new(ExecScratch))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := writes.Get("alice")
	b, _ := writes.Get("bob")
	if string(a) != "70" || string(b) != "30" {
		t.Fatalf("writes = %v", writes)
	}
}

func TestSimulateInsufficient(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "alice", Value: EncodeInt(10)}})
	_, writes, err := SimulateList(s, []types.Op{{Code: types.OpTransfer, Key: "alice", Key2: "bob", Delta: 30}}, new(ExecScratch))
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if len(writes) != 0 {
		t.Fatal("failed transaction produced writes")
	}
}

func TestSimulateAssert(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "hours", Value: EncodeInt(38)}})
	sc := new(ExecScratch)
	if _, _, err := SimulateList(s, []types.Op{{Code: types.OpAssertGE, Key: "hours", Delta: 30}}, sc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SimulateList(s, []types.Op{{Code: types.OpAssertGE, Key: "hours", Delta: 40}}, sc); !errors.Is(err, ErrAssertFailed) {
		t.Fatalf("err = %v, want ErrAssertFailed", err)
	}
}

func TestSimulateUnknownOpcode(t *testing.T) {
	if _, _, err := SimulateList(New(), []types.Op{{Code: types.OpCode(99)}}, new(ExecScratch)); err == nil {
		t.Fatal("unknown opcode accepted")
	}
}

func TestExecuteCommitsOnSuccessOnly(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "a", Value: EncodeInt(5)}})
	sc := new(ExecScratch)
	if _, _, err := s.ExecuteList(types.Version{Block: 2}, []types.Op{{Code: types.OpTransfer, Key: "a", Key2: "b", Delta: 100}}, sc); err == nil {
		t.Fatal("expected failure")
	}
	if s.GetInt("a") != 5 || s.GetInt("b") != 0 {
		t.Fatal("failed execute mutated state")
	}
	if _, _, err := s.ExecuteList(types.Version{Block: 2}, []types.Op{{Code: types.OpTransfer, Key: "a", Key2: "b", Delta: 3}}, sc); err != nil {
		t.Fatal(err)
	}
	if s.GetInt("a") != 2 || s.GetInt("b") != 3 {
		t.Fatalf("a=%d b=%d", s.GetInt("a"), s.GetInt("b"))
	}
}

func TestTransferConservationProperty(t *testing.T) {
	// Property: any sequence of transfers between 4 accounts conserves
	// total balance and never produces a negative balance.
	f := func(moves []struct {
		From, To uint8
		Amt      int16
	}) bool {
		s := New()
		sc := new(ExecScratch)
		accts := []string{"a", "b", "c", "d"}
		for i, a := range accts {
			s.ApplyList(types.Version{Block: 1, Tx: i}, types.WriteList{{Key: a, Value: EncodeInt(1000)}})
		}
		for i, m := range moves {
			amt := int64(m.Amt)
			if amt < 0 {
				amt = -amt
			}
			s.ExecuteList(types.Version{Block: 2, Tx: i}, []types.Op{{
				Code:  types.OpTransfer,
				Key:   accts[int(m.From)%4],
				Key2:  accts[int(m.To)%4],
				Delta: amt,
			}}, sc)
		}
		total := int64(0)
		for _, a := range accts {
			n := s.GetInt(a)
			if n < 0 {
				return false
			}
			total += n
		}
		return total == 4000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", w)
				s.ApplyList(types.Version{Block: uint64(i)}, types.WriteList{{Key: key, Value: EncodeInt(int64(i))}})
				s.Get(key)
				s.ValidateList(types.ReadList{{Key: key, Ver: types.Version{Block: uint64(i)}}})
				s.StateHash()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestScan(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{
		{Key: "acct/alice", Value: EncodeInt(10)},
		{Key: "acct/bob", Value: EncodeInt(20)},
		{Key: "cfg/limit", Value: EncodeInt(99)},
	})
	got := s.Scan("acct/")
	if len(got) != 2 || got[0].Key != "acct/alice" || got[1].Key != "acct/bob" {
		t.Fatalf("Scan = %v", got)
	}
	if string(got[1].Value) != "20" || got[1].Version.Block != 1 {
		t.Fatalf("entry = %+v", got[1])
	}
	if len(s.Scan("zzz")) != 0 {
		t.Fatal("phantom prefix matched")
	}
	if len(s.Scan("")) != 3 {
		t.Fatal("empty prefix should match all")
	}
}

func TestStateHashShardCountIndependence(t *testing.T) {
	// The bucket tree is a fixed shape: replicas striped differently must
	// still agree on every state hash.
	counts := []int{1, 2, 8, 64}
	stores := make([]*Store, len(counts))
	for i, n := range counts {
		stores[i] = New(WithShards(n))
		if got := stores[i].ShardCount(); got != n {
			t.Fatalf("ShardCount(%d) = %d", n, got)
		}
		applySeq(stores[i], 1, 50)
	}
	ref := stores[0].StateHash()
	for i := 1; i < len(stores); i++ {
		if stores[i].StateHash() != ref {
			t.Fatalf("shards=%d hashes differently than shards=1", counts[i])
		}
	}
}

func TestWithShardsClamping(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {3, 2}, {48, 32}, {64, 64}, {100, 64},
	} {
		if got := New(WithShards(c.in)).ShardCount(); got != c.want {
			t.Fatalf("WithShards(%d) → %d shards, want %d", c.in, got, c.want)
		}
	}
}

func TestIncrementalHashMatchesRebuild(t *testing.T) {
	// Interleaving writes with StateHash calls (exercising the dirty-bucket
	// cache) must land on the same digest as a store that was built in one
	// go and hashed once.
	inc := New()
	for h := uint64(1); h < 200; h++ {
		inc.ApplyList(types.Version{Block: h}, types.WriteList{
			{Key: fmt.Sprintf("key-%d", h%31), Value: EncodeInt(int64(h))},
		})
		if h%7 == 0 {
			inc.StateHash() // populate caches mid-stream
		}
	}
	fresh := New(WithShards(4))
	for h := uint64(1); h < 200; h++ {
		fresh.ApplyList(types.Version{Block: h}, types.WriteList{
			{Key: fmt.Sprintf("key-%d", h%31), Value: EncodeInt(int64(h))},
		})
	}
	if inc.StateHash() != fresh.StateHash() {
		t.Fatal("incrementally-cached hash differs from fresh rebuild")
	}
	// Overwriting a key back to a prior value must restore the prior hash.
	before := inc.StateHash()
	inc.ApplyList(types.Version{Block: 300}, types.WriteList{{Key: "key-1", Value: []byte("other")}})
	if inc.StateHash() == before {
		t.Fatal("overwrite did not change hash")
	}
	inc.ApplyList(types.Version{Block: 301}, types.WriteList{{Key: "key-1", Value: EncodeInt(187)}})
	if inc.StateHash() != before {
		t.Fatal("content-identical state hashes differently (version leaked into hash)")
	}
}

func TestCaptureIsPointInTime(t *testing.T) {
	s := New(WithHistory(2))
	applySeq(s, 1, 10)
	want := s.Snapshot()

	cap := s.Capture()
	// Mutate every key after the capture; add brand-new keys too.
	applySeq(s, 10, 30)
	s.ApplyList(types.Version{Block: 40}, types.WriteList{{Key: "post-capture", Value: []byte("x")}})

	got := cap.Materialize()
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("capture has %d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Key != w.Key || string(g.Value) != string(w.Value) || g.Version != w.Version {
			t.Fatalf("entry %d: %+v, want %+v", i, g, w)
		}
	}
	if len(got.Hist) != len(want.Hist) {
		t.Fatalf("capture hist %d keys, want %d", len(got.Hist), len(want.Hist))
	}
	for k, wh := range want.Hist {
		gh := got.Hist[k]
		if len(gh) != len(wh) {
			t.Fatalf("hist[%q] len %d, want %d", k, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i].Version != wh[i].Version || string(gh[i].Value) != string(wh[i].Value) {
				t.Fatalf("hist[%q][%d] = %+v, want %+v", k, i, gh[i], wh[i])
			}
		}
	}
	// Restore from the materialized capture lands on the captured state.
	r := New(WithHistory(2))
	r.Restore(got)
	mid := New(WithHistory(2))
	applySeq(mid, 1, 10)
	if r.StateHash() != mid.StateHash() {
		t.Fatal("restored capture differs from state at capture time")
	}
}

func TestCaptureConcurrentWithWrites(t *testing.T) {
	// Captures taken while writers run must each materialize to a
	// self-consistent snapshot (restorable, internally sorted), and the
	// race detector must stay quiet.
	s := New(WithShards(8))
	applySeq(s, 1, 20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.ApplyList(types.Version{Block: uint64(100 + i), Tx: w}, types.WriteList{
					{Key: fmt.Sprintf("w%d-k%d", w, i%50), Value: EncodeInt(int64(i))},
				})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := s.Capture().Materialize()
		for j := 1; j < len(snap.Entries); j++ {
			if snap.Entries[j].Key <= snap.Entries[j-1].Key {
				t.Errorf("capture %d entries unsorted at %d", i, j)
			}
		}
		r := New()
		r.Restore(snap)
		if r.Len() != len(snap.Entries) {
			t.Errorf("capture %d: restore Len %d, want %d", i, r.Len(), len(snap.Entries))
		}
	}
	close(stop)
	wg.Wait()
	if s.StateHash() != s.StateHash() {
		t.Fatal("quiescent hash unstable")
	}
}

func TestRestoreInvalidatesHashCaches(t *testing.T) {
	s := New()
	applySeq(s, 1, 30)
	s.StateHash() // warm caches
	mid := New()
	applySeq(mid, 1, 5)
	s.Restore(mid.Snapshot())
	if s.StateHash() != mid.StateHash() {
		t.Fatal("post-Restore hash still reflects pre-Restore caches")
	}
}

func TestLockWaitsCounter(t *testing.T) {
	// Not a determinism check — just that the witness is wired and starts
	// at zero.
	s := New()
	if s.LockWaits() != 0 {
		t.Fatal("fresh store reports lock waits")
	}
}

// applySeq writes a deterministic workload of versioned writes to s,
// starting at block height from (inclusive) up to to (exclusive).
func applySeq(s *Store, from, to uint64) {
	for h := from; h < to; h++ {
		s.ApplyList(types.Version{Block: h, Tx: 0}, types.WriteList{
			{Key: fmt.Sprintf("k%d", h%7), Value: EncodeInt(int64(h))},
			{Key: "hot", Value: EncodeInt(int64(h * 3))},
		})
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ref := New()
	applySeq(ref, 1, 20)

	// Snapshot at height 10, restore into a fresh store, replay the rest:
	// the restored store must land on the identical state hash.
	mid := New()
	applySeq(mid, 1, 10)
	snap := mid.Snapshot()

	restored := New()
	applySeq(restored, 1, 3) // pre-existing junk Restore must wipe
	restored.Restore(snap)
	applySeq(restored, 10, 20)

	if restored.StateHash() != ref.StateHash() {
		t.Fatal("snapshot→restore→replay state hash differs from straight-through execution")
	}
	if restored.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), ref.Len())
	}
	// Versions must round-trip too, not just values.
	_, ver, ok := restored.Get("hot")
	if !ok || ver != (types.Version{Block: 19, Tx: 0}) {
		t.Fatalf("hot version = %v ok=%v", ver, ok)
	}
}

func TestSnapshotIsDeterministicAndSorted(t *testing.T) {
	s := New()
	applySeq(s, 1, 9)
	a, b := s.Snapshot(), s.Snapshot()
	if len(a.Entries) != len(b.Entries) || len(a.Entries) == 0 {
		t.Fatalf("entries %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i].Key != b.Entries[i].Key {
			t.Fatal("snapshot entry order is not deterministic")
		}
		if i > 0 && a.Entries[i].Key <= a.Entries[i-1].Key {
			t.Fatalf("entries not strictly sorted at %d: %q <= %q", i, a.Entries[i].Key, a.Entries[i-1].Key)
		}
	}
}

func TestSnapshotRestoreHistory(t *testing.T) {
	// Matching limits: history survives restore+replay identically.
	ref := New(WithHistory(3))
	applySeq(ref, 1, 15)

	mid := New(WithHistory(3))
	applySeq(mid, 1, 8)
	snap := mid.Snapshot()
	if snap.HistLimit != 3 {
		t.Fatalf("HistLimit = %d", snap.HistLimit)
	}

	restored := New(WithHistory(3))
	restored.Restore(snap)
	applySeq(restored, 8, 15)

	if restored.StateHash() != ref.StateHash() {
		t.Fatal("state hash differs")
	}
	want, got := ref.History("hot"), restored.History("hot")
	if len(got) != len(want) {
		t.Fatalf("history len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Version != want[i].Version || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("history[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRestoreTrimsHistoryToSmallerLimit(t *testing.T) {
	src := New(WithHistory(5))
	applySeq(src, 1, 10)
	snap := src.Snapshot()
	if got := len(snap.Hist["hot"]); got != 5 {
		t.Fatalf("snapshot history = %d, want 5", got)
	}

	small := New(WithHistory(2))
	small.Restore(snap)
	h := small.History("hot")
	if len(h) != 2 {
		t.Fatalf("restored history = %d, want trim to 2", len(h))
	}
	// The newest entries must be the ones kept.
	if h[1].Version != (types.Version{Block: 9, Tx: 0}) {
		t.Fatalf("newest retained = %v", h[1].Version)
	}

	// A store configured without history drops it entirely.
	none := New()
	none.Restore(snap)
	if len(none.History("hot")) != 0 {
		t.Fatal("history kept by a store with history disabled")
	}
	if none.StateHash() != small.StateHash() {
		t.Fatal("history handling changed live state")
	}
}
