package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"permchain/internal/ledger"
	"permchain/internal/obs"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

// quickCfg returns a config with a small segment size so rotation is
// exercised, and fsync off so tests stay fast; individual tests override.
func quickCfg(dir string) Config {
	return Config{Dir: dir, SegmentBytes: 2048, Fsync: FsyncOff}
}

func mustOpenLog(t *testing.T, dir string, cfg Config) *Log {
	t.Helper()
	l, err := OpenLog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%50)))); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, l *Log) []string {
	t.Helper()
	var out []string
	if err := l.ReplayFrom(1, func(idx uint64, rec []byte) error {
		if idx != uint64(len(out)+1) {
			return fmt.Errorf("idx %d, want %d", idx, len(out)+1)
		}
		out = append(out, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLogAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l := mustOpenLog(t, dir, quickCfg(dir))
	appendN(t, l, 0, 40)
	want := replayAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpenLog(t, dir, quickCfg(dir))
	defer re.Close()
	if re.Count() != 40 {
		t.Fatalf("Count = %d", re.Count())
	}
	got := replayAll(t, re)
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	// The log stays appendable after recovery.
	appendN(t, re, 40, 45)
	if re.Count() != 45 {
		t.Fatalf("Count after append = %d", re.Count())
	}
}

func TestLogRotationAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.SegmentBytes = 512
	o := obs.New()
	cfg.Obs = o
	l := mustOpenLog(t, dir, cfg)
	appendN(t, l, 0, 60)
	if l.Segments() < 3 {
		t.Fatalf("segments = %d, want several at 512-byte cap", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := o.Reg.Snapshot().Counters["store/segments_rotated"]; got < 2 {
		t.Fatalf("segments_rotated = %d", got)
	}

	re := mustOpenLog(t, dir, cfg)
	defer re.Close()
	if re.Count() != 60 {
		t.Fatalf("Count = %d", re.Count())
	}
	if got := replayAll(t, re); len(got) != 60 {
		t.Fatalf("replayed %d", len(got))
	}
}

func TestLogReplayFromSkipsPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.SegmentBytes = 512
	l := mustOpenLog(t, dir, cfg)
	appendN(t, l, 0, 60)
	defer l.Close()

	var idxs []uint64
	if err := l.ReplayFrom(37, func(idx uint64, rec []byte) error {
		idxs = append(idxs, idx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 24 || idxs[0] != 37 || idxs[len(idxs)-1] != 60 {
		t.Fatalf("ReplayFrom(37) = %d records [%d..%d]", len(idxs), idxs[0], idxs[len(idxs)-1])
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpenLog(t, dir, quickCfg(dir))
	appendN(t, l, 0, 10)
	l.Close()

	// Chop bytes off the final record, simulating a write cut short by a
	// crash (kill -9 mid-append).
	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	cfg := quickCfg(dir)
	cfg.Obs = o
	re := mustOpenLog(t, dir, cfg)
	defer re.Close()
	if re.Count() != 9 {
		t.Fatalf("Count after torn tail = %d, want 9", re.Count())
	}
	if got := o.Reg.Snapshot().Counters["store/torn_truncations"]; got != 1 {
		t.Fatalf("torn_truncations = %d", got)
	}
	// Appending over the truncation point works and survives reopen.
	appendN(t, re, 100, 102)
	re.Close()
	re2 := mustOpenLog(t, dir, quickCfg(dir))
	defer re2.Close()
	if re2.Count() != 11 {
		t.Fatalf("Count = %d, want 11", re2.Count())
	}
}

func TestLogCorruptMidSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpenLog(t, dir, quickCfg(dir))
	appendN(t, l, 0, 10)
	l.Close()

	// Flip one payload byte of an early record: valid records follow, so
	// this is corruption, not a torn tail — recovery must refuse.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+3] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenLog(dir, quickCfg(dir))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "offset 0") || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("error does not locate the damage: %v", err)
	}
}

func TestLogCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.SegmentBytes = 512
	l := mustOpenLog(t, dir, cfg)
	appendN(t, l, 0, 60)
	if l.Segments() < 2 {
		t.Fatal("need multiple segments")
	}
	l.Close()

	// Truncate the FIRST (sealed) segment: even a tail-shaped wound there
	// is corruption, because a rotation sealed it long ago.
	entries, _ := os.ReadDir(dir)
	var first string
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			first = filepath.Join(dir, e.Name())
			break
		}
	}
	info, _ := os.Stat(first)
	if err := os.Truncate(first, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLog(dir, cfg)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "sealed segment") {
		t.Fatalf("error = %v", err)
	}
}

func TestFsyncPolicyCounters(t *testing.T) {
	run := func(p FsyncPolicy, every time.Duration) int64 {
		dir := t.TempDir()
		o := obs.New()
		cfg := Config{Dir: dir, Fsync: p, FsyncEvery: every, Obs: o, SegmentBytes: 1 << 20}
		l := mustOpenLog(t, dir, cfg)
		appendN(t, l, 0, 50)
		n := o.Reg.Snapshot().Counters["store/fsyncs"]
		l.Close()
		return n
	}
	always := run(FsyncAlways, 0)
	off := run(FsyncOff, 0)
	grouped := run(FsyncInterval, time.Hour)
	if always != 50 {
		t.Fatalf("always: fsyncs = %d, want 50", always)
	}
	if off != 0 {
		t.Fatalf("off: fsyncs = %d before close, want 0", off)
	}
	if grouped != 0 {
		t.Fatalf("interval(1h): fsyncs = %d before close, want 0", grouped)
	}
}

// --- block store ---

// buildBlocks makes n deterministic single-height blocks chained from
// genesis, with payloads that exercise every codec field.
func buildBlocks(n int) []*types.Block {
	chain := ledger.NewChain()
	var out []*types.Block
	for i := 0; i < n; i++ {
		tx := &types.Transaction{
			ID:         fmt.Sprintf("tx-%d", i),
			Client:     types.NodeID(i % 4),
			Enterprise: types.EnterpriseID(i % 3),
			Kind:       types.TxCross,
			Shards:     []types.ShardID{types.ShardID(i % 2), 7},
			Ops: []types.Op{
				{Code: types.OpPut, Key: fmt.Sprintf("k%d", i%11), Value: []byte(fmt.Sprintf("v%d", i))},
				{Code: types.OpAdd, Key: "sum", Delta: int64(i)},
			},
			Reads:   types.ReadList{{Key: "sum", Ver: types.Version{Block: uint64(i), Tx: 0}}},
			Writes:  types.WriteList{{Key: fmt.Sprintf("k%d", i%11), Value: []byte(fmt.Sprintf("v%d", i))}},
			Private: i%5 == 0,
		}
		head := chain.Head()
		b := types.NewBlock(head.Header.Height+1, head.Hash(), types.NodeID(i%4), []*types.Transaction{tx})
		if err := chain.Append(b); err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// applyBlocks executes each block's ops against st, OX-style.
func applyBlocks(st *statedb.Store, blocks []*types.Block) {
	sc := new(statedb.ExecScratch)
	for _, b := range blocks {
		for i, tx := range b.Txs {
			st.ExecuteList(types.Version{Block: b.Header.Height, Tx: i}, tx.Ops, sc)
		}
	}
}

func TestBlockCodecRoundTrip(t *testing.T) {
	for _, b := range buildBlocks(8) {
		rec := EncodeBlock(b)
		got, err := DecodeBlock(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != b.Hash() {
			t.Fatal("header hash changed through codec")
		}
		for i, tx := range got.Txs {
			orig := b.Txs[i]
			if tx.Hash() != orig.Hash() {
				t.Fatalf("tx %d hash changed", i)
			}
			if !reflect.DeepEqual(tx.Reads, orig.Reads) || !reflect.DeepEqual(tx.Writes, orig.Writes) {
				t.Fatalf("tx %d read/write sets changed: %v %v", i, tx.Reads, tx.Writes)
			}
		}
		// Deterministic bytes: same block, same encoding.
		if string(EncodeBlock(got)) != string(rec) {
			t.Fatal("codec is not deterministic")
		}
	}
}

func TestBlockCodecRejectsDamage(t *testing.T) {
	b := buildBlocks(1)[0]
	rec := EncodeBlock(b)
	for _, mut := range []struct {
		name string
		f    func([]byte) []byte
	}{
		{"truncated", func(r []byte) []byte { return r[:len(r)-3] }},
		{"trailing garbage", func(r []byte) []byte { return append(append([]byte{}, r...), 0xde, 0xad) }},
		{"bad version", func(r []byte) []byte { c := append([]byte{}, r...); c[0] = 99; return c }},
	} {
		cp := mut.f(append([]byte{}, rec...))
		if _, err := DecodeBlock(cp); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", mut.name, err)
		}
	}
	// Payload bit-flip that keeps the structure parseable must trip the
	// Merkle-root cross-check.
	cp := append([]byte{}, rec...)
	cp[len(cp)-10] ^= 0x01
	if _, err := DecodeBlock(cp); err == nil {
		t.Fatal("bit-flipped body decoded cleanly")
	}
}

// TestKill9Recovery is the headline crash test: append N blocks, drop the
// process state without any Close/Sync (the kill -9 equivalent — the OS
// keeps what was written), reopen from disk, and require a Verify-clean
// identical ledger and an equal StateHash.
func TestKill9Recovery(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(30)
	cfg := Config{Dir: dir, SegmentBytes: 1024, Fsync: FsyncOff}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// No Close, no Sync: the *Store is simply dropped.
	s = nil

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Height() != 30 {
		t.Fatalf("recovered height = %d", re.Height())
	}
	var recovered []*types.Block
	if err := re.ReplayBlocks(1, func(b *types.Block) error {
		recovered = append(recovered, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	chain, err := ledger.NewChainFromBlocks(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Verify(); err != nil {
		t.Fatal(err)
	}
	want, err := ledger.NewChainFromBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !chain.EqualTo(want) {
		t.Fatal("recovered chain differs")
	}

	ref, got := statedb.New(), statedb.New()
	applyBlocks(ref, blocks)
	applyBlocks(got, recovered)
	if ref.StateHash() != got.StateHash() {
		t.Fatal("recovered state hash differs")
	}
}

func TestKill9TornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(12)
	cfg := Config{Dir: dir, SegmentBytes: 1 << 20, Fsync: FsyncOff}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	s = nil // kill -9

	// Tear the final record mid-write.
	seg := lastSegment(t, filepath.Join(dir, "wal"))
	info, _ := os.Stat(seg)
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Height() != 11 {
		t.Fatalf("height after torn tail = %d, want 11", re.Height())
	}
	var recovered []*types.Block
	if err := re.ReplayBlocks(1, func(b *types.Block) error {
		recovered = append(recovered, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	chain, err := ledger.NewChainFromBlocks(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Verify(); err != nil {
		t.Fatal(err)
	}
	// Re-appending block 12 lands back at the full height.
	if err := re.AppendBlock(blocks[11]); err != nil {
		t.Fatal(err)
	}
	if re.Height() != 12 {
		t.Fatalf("height = %d", re.Height())
	}
}

func TestCorruptMidSegmentRecordIsError(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(12)
	cfg := Config{Dir: dir, SegmentBytes: 1 << 20, Fsync: FsyncAlways}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt a payload byte well inside the segment.
	seg := lastSegment(t, filepath.Join(dir, "wal"))
	data, _ := os.ReadFile(seg)
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(cfg)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt (not silent loss)", err)
	}
}

func TestManifestDurableFloorGuard(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(10)
	cfg := Config{Dir: dir, SegmentBytes: 1 << 20, Fsync: FsyncAlways}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil { // manifest now records height 10 durable
		t.Fatal(err)
	}
	if s.DurableHeight() != 10 {
		t.Fatalf("durable = %d", s.DurableHeight())
	}
	s.Close()

	// Losing blocks below the durable floor must fail the open, even when
	// the wound itself looks like a clean torn tail.
	seg := lastSegment(t, filepath.Join(dir, "wal"))
	info, _ := os.Stat(seg)
	if err := os.Truncate(seg, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	_, err = Open(cfg)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "durable") {
		t.Fatalf("error = %v", err)
	}
}

func TestSnapshotRoundTripAndReplaySuffix(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(20)
	cfg := Config{Dir: dir, SegmentBytes: 4096, Fsync: FsyncOff}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := statedb.New()
	for i, b := range blocks {
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
		applyBlocks(st, blocks[i:i+1])
		if b.Header.Height == 12 {
			if err := s.WriteSnapshot(12, st.Snapshot(), st.StateHash()); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ref, snap, ok, err := re.LatestSnapshot()
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	if ref.Height != 12 {
		t.Fatalf("snapshot height = %d", ref.Height)
	}
	restored := statedb.New()
	restored.Restore(snap)
	if restored.StateHash().Hex() != ref.StateHash {
		t.Fatal("restored state hash does not match manifest")
	}
	// Replay only the suffix.
	var replayed int
	if err := re.ReplayBlocks(ref.Height+1, func(b *types.Block) error {
		replayed++
		applyBlocks(restored, []*types.Block{b})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != 8 {
		t.Fatalf("replayed %d blocks, want 8", replayed)
	}
	want := statedb.New()
	applyBlocks(want, blocks)
	if restored.StateHash() != want.StateHash() {
		t.Fatal("snapshot+suffix state differs from full replay")
	}
}

func TestSnapshotLineagePruning(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(10)
	cfg := Config{Dir: dir, Fsync: FsyncOff}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := statedb.New()
	for i, b := range blocks {
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
		applyBlocks(st, blocks[i:i+1])
		if err := s.WriteSnapshot(b.Header.Height, st.Snapshot(), st.StateHash()); err != nil {
			t.Fatal(err)
		}
	}
	refs := s.SnapshotRefs()
	if len(refs) != keepSnapshots {
		t.Fatalf("lineage holds %d refs, want %d", len(refs), keepSnapshots)
	}
	if refs[len(refs)-1].Height != 10 || refs[0].Height != 8 {
		t.Fatalf("lineage = %+v", refs)
	}
	// Files that fell off the lineage are gone; retained ones exist.
	entries, _ := os.ReadDir(dir)
	snaps := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps++
		}
	}
	if snaps != keepSnapshots {
		t.Fatalf("%d snapshot files on disk, want %d", snaps, keepSnapshots)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(10)
	cfg := Config{Dir: dir, Fsync: FsyncOff}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := statedb.New()
	for i, b := range blocks {
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
		applyBlocks(st, blocks[i:i+1])
		if b.Header.Height == 5 || b.Header.Height == 9 {
			if err := s.WriteSnapshot(b.Header.Height, st.Snapshot(), st.StateHash()); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	// Destroy the newest checkpoint file.
	refs := func() []SnapshotRef {
		re, _ := Open(cfg)
		defer re.Close()
		return re.SnapshotRefs()
	}()
	if err := os.WriteFile(filepath.Join(dir, refs[len(refs)-1].File), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ref, snap, ok, err := re.LatestSnapshot()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if ref.Height != 5 || snap == nil {
		t.Fatalf("fell back to height %d, want 5", ref.Height)
	}
}

func TestAppendBlockRejectsWrongHeight(t *testing.T) {
	dir := t.TempDir()
	blocks := buildBlocks(3)
	s, err := Open(Config{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBlock(blocks[1]); err == nil {
		t.Fatal("height gap accepted")
	}
	if err := s.AppendBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBlock(blocks[0]); err == nil {
		t.Fatal("duplicate height accepted")
	}
}
