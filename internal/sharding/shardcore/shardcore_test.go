package shardcore_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"permchain/internal/core"
	"permchain/internal/network"
	"permchain/internal/sharding/ahl"
	"permchain/internal/sharding/shardcore"
	"permchain/internal/sharding/sharper"
	"permchain/internal/store"
	"permchain/internal/types"
	"permchain/internal/workload"
)

func testConfig(shards int) core.Config {
	return core.Config{
		Nodes:      4,
		BlockSize:  16,
		FlushEvery: 2 * time.Millisecond,
		DisableSig: true,
		Sharding: &core.ShardingConfig{
			Shards:       shards,
			CrossTimeout: 5 * time.Second,
		},
	}
}

func TestPlacementDeterminism(t *testing.T) {
	p := shardcore.NewPlacement(4)
	if sh := p.ShardOf(workload.ShardKey(2, 9)); sh != 2 {
		t.Fatalf("prefixed key placed on %d, want 2", sh)
	}
	if sh := p.ShardOf(workload.ShardKey(7, 0)); sh != 3 {
		t.Fatalf("s7 with 4 shards placed on %d, want 7 mod 4 = 3", sh)
	}
	if a, b := p.ShardOf("account/alice"), p.ShardOf("account/alice"); a != b {
		t.Fatal("hash placement is not deterministic")
	}
	// Hashed keys spread: 64 keys over 4 shards must hit every shard.
	seen := map[types.ShardID]bool{}
	for i := 0; i < 64; i++ {
		seen[p.ShardOf(fmt.Sprintf("user/%d", i))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("hash placement hit only %d of 4 shards", len(seen))
	}
}

func TestPlacementParticipantsAndSplit(t *testing.T) {
	p := shardcore.NewPlacement(4)
	tx := &types.Transaction{ID: "x", Ops: []types.Op{
		{Code: types.OpAdd, Key: workload.ShardKey(3, 1), Delta: 1},
		{Code: types.OpAdd, Key: workload.ShardKey(1, 1), Delta: -1},
		{Code: types.OpPut, Key: workload.ShardKey(1, 2), Value: []byte("v")},
	}}
	parts := p.Participants(tx)
	if len(parts) != 2 || parts[0] != 1 || parts[1] != 3 {
		t.Fatalf("participants = %v, want [1 3]", parts)
	}
	ops, err := p.Split(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops[1]) != 2 || len(ops[3]) != 1 {
		t.Fatalf("split = %d/%d ops, want 2 on shard 1, 1 on shard 3", len(ops[1]), len(ops[3]))
	}
	// A transfer whose two keys place on different shards cannot split.
	bad := &types.Transaction{ID: "bad", Ops: []types.Op{
		{Code: types.OpTransfer, Key: workload.ShardKey(0, 1), Key2: workload.ShardKey(2, 1), Delta: 5},
	}}
	if _, err := p.Split(bad); err == nil {
		t.Fatal("cross-shard transfer split without error")
	}
}

func TestRejectsSingleChainConstructors(t *testing.T) {
	cfg := testConfig(2)
	if _, err := core.New(cfg); err == nil {
		t.Fatal("core.New accepted a sharded config")
	}
	cfg.Sharding = nil
	if _, err := shardcore.New(cfg, sharper.New()); err == nil {
		t.Fatal("shardcore.New accepted a config without Sharding")
	}
}

// TestRejectsXOV: XOV validates after ordering, so a shard that voted
// PREPARE could still MVCC-abort; a sharded XOV deployment must not
// build, fresh or recovered.
func TestRejectsXOV(t *testing.T) {
	cfg := testConfig(2)
	cfg.Arch = core.XOV
	if _, err := shardcore.New(cfg, sharper.New()); !errors.Is(err, shardcore.ErrXOVCrossShard) {
		t.Fatalf("New: got %v, want ErrXOVCrossShard", err)
	}
	cfg.Store = &store.Config{Dir: t.TempDir()}
	if _, err := shardcore.Open(cfg, ahl.New()); !errors.Is(err, shardcore.ErrXOVCrossShard) {
		t.Fatalf("Open: got %v, want ErrXOVCrossShard", err)
	}
}

// TestWireCodecWithIntraShardLatency pins the per-shard network a
// committee link latency builds: it must serialize its traffic like any
// other network, with no payload lost at the codec.
func TestWireCodecWithIntraShardLatency(t *testing.T) {
	cfg := testConfig(2)
	cfg.Sharding.IntraShardLatency = time.Millisecond
	s, err := shardcore.New(cfg, sharper.New())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	for _, tx := range []*types.Transaction{
		{ID: "intra", Ops: []types.Op{{Code: types.OpAdd, Key: workload.ShardKey(0, 1), Delta: 1}}},
		{ID: "cross", Ops: []types.Op{
			{Code: types.OpAdd, Key: workload.ShardKey(0, 2), Delta: -1},
			{Code: types.OpAdd, Key: workload.ShardKey(1, 2), Delta: 1},
		}},
	} {
		r, err := s.SubmitAsync(tx)
		if err == nil {
			err = r.Wait(30 * time.Second)
		}
		if err != nil {
			t.Fatalf("%s: %v", tx.ID, err)
		}
	}
	if err := s.VerifyCrossShardAtomicity(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumShards(); i++ {
		st := s.Shard(types.ShardID(i)).Network().StatsSnapshot()
		if st.WireBytesOut == 0 || st.ByCause[network.DropCodec] != 0 {
			t.Fatalf("shard %d: wire bytes out %d, codec drops %d", i, st.WireBytesOut, st.ByCause[network.DropCodec])
		}
	}
}

// TestConcurrentCrossShardOverlap is the race-mode stress: concurrent
// cross-shard transactions with overlapping key sets in both shard
// orientations, interleaved with intra-shard traffic. Ordered lock
// acquisition must settle every receipt — no deadlock, no leaked lock,
// no atomicity violation — and the cross-shard deltas must cancel.
func TestConcurrentCrossShardOverlap(t *testing.T) {
	s, err := shardcore.New(testConfig(2), sharper.New())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	const workers = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				a, b := types.ShardID(0), types.ShardID(1)
				if (w+i)%2 == 1 {
					a, b = b, a
				}
				var tx *types.Transaction
				if i%4 == 3 {
					tx = &types.Transaction{ID: fmt.Sprintf("intra-%d-%d", w, i), Ops: []types.Op{
						{Code: types.OpAdd, Key: workload.ShardKey(a, w%3), Delta: 1},
					}}
				} else {
					tx = &types.Transaction{ID: fmt.Sprintf("xs-%d-%d", w, i), Ops: []types.Op{
						{Code: types.OpAdd, Key: workload.ShardKey(a, w%3), Delta: -1},
						{Code: types.OpAdd, Key: workload.ShardKey(b, w%3), Delta: 1},
					}}
				}
				r, err := s.SubmitAsync(tx)
				if err == nil {
					err = r.Wait(60 * time.Second)
				}
				if err != nil {
					errs[w] = fmt.Errorf("tx %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if n := s.LockCount(); n != 0 {
		t.Fatalf("locks leaked: %d", n)
	}
	if err := s.VerifyCrossShardAtomicity(); err != nil {
		t.Fatal(err)
	}
}

// TestKill9MidTwoPhaseCommit kills every node of every shard (the whole
// process, as far as the WAL is concerned) at the worst moment — all
// participants durably PREPAREd, no outcome anywhere — and reopens the
// deployment from disk. The flattened protocol must resolve the
// in-doubt transaction to COMMIT (all-prepared rule) and apply the
// effects carried by the PREPARE records; the coordinator-based
// protocol, whose DECIDE never became durable, must presume ABORT and
// apply nothing. Either way: no subset commit, no lost lock.
func TestKill9MidTwoPhaseCommit(t *testing.T) {
	cases := []struct {
		name       string
		proto      shardcore.CrossShardProtocol
		wantCommit bool
	}{
		{"sharper-commits-when-all-prepared", sharper.New(), true},
		{"ahl-presumes-abort-without-decide", ahl.New(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.Store = &store.Config{Dir: t.TempDir(), SnapshotEvery: 8}
			s, err := shardcore.New(cfg, tc.proto)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			var once sync.Once
			s.AfterPrepare = func(string) {
				once.Do(func() {
					// kill -9: every committee dies before any
					// DECIDE or outcome can be ordered.
					s.CrashShard(0)
					s.CrashShard(1)
					if tc.proto.NeedsReference() {
						s.CrashShard(2) // the reference committee
					}
				})
			}
			r, err := s.SubmitAsync(&types.Transaction{ID: "xs-kill9", Ops: []types.Op{
				{Code: types.OpAdd, Key: workload.ShardKey(0, 5), Delta: -8},
				{Code: types.OpAdd, Key: workload.ShardKey(1, 5), Delta: 8},
			}})
			if err != nil {
				t.Fatal(err)
			}
			r.Wait(3 * time.Second) // settles or stays pending; Stop cleans up
			s.Stop()

			re, err := shardcore.Open(cfg, tc.proto)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Stop()
			want := int64(0)
			if tc.wantCommit {
				want = 8
			}
			if got := re.Shard(1).Node(0).Store().GetInt(workload.ShardKey(1, 5)); got != want {
				t.Fatalf("shard 1 effect after recovery = %d, want %d", got, want)
			}
			if got := re.Shard(0).Node(0).Store().GetInt(workload.ShardKey(0, 5)); got != -want {
				t.Fatalf("shard 0 effect after recovery = %d, want %d", got, -want)
			}
			if n := re.LockCount(); n != 0 {
				t.Fatalf("locks lost/leaked after recovery: %d", n)
			}
			if err := re.VerifyCrossShardAtomicity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
