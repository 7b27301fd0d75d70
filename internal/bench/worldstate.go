package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"permchain/internal/arch/oxii"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

// E13WorldState measures the sharded, incrementally-hashed world state
// (DESIGN.md, "World state") along the two axes the lock striping and the
// bucket tree exist for:
//
//   - hash: StateHash on a 100k-key state with a small dirty set, against
//     the seed's full-rescan implementation (sort every key, digest
//     everything). The bucket tree recomputes only dirty buckets, so the
//     cost is O(dirty), not O(total) — asserted ≥10× faster.
//   - exec: parallel OXII execution of a low-conflict workload across
//     worker counts, on a 1-shard store (the seed's single global lock,
//     reproduced exactly by WithShards(1)) and on the default 64-shard
//     store. With striping, throughput tracks the worker count on
//     multi-core hardware instead of flat-lining on the store lock; the
//     lock-waits column is the contention witness.
//
// Alongside the timings, every execution arm must land on the identical
// final state hash — the determinism contract that makes the hash-scheme
// change safe — and that check is hard-asserted on every attempt. The two
// wall-clock ratios are enforced only at full scale: a quick run shares
// the CPU with whatever else is running, so it reports them in the notes
// instead.
func E13WorldState(quick bool) (*Table, error) {
	const (
		hashKeys  = 100000
		dirtyKeys = 200
		blockSize = 256
	)
	totalTxs := 40960
	if quick {
		totalTxs = 8192
	}
	workers := []int{1, 2, 4, 8}

	tbl := &Table{
		ID:      "E13",
		Title:   "world state: incremental bucket-tree hashing and lock-striped execution scaling",
		Claim:   "removing store-wide serialization lets parallel executors scale with workers, and dirty-bucket hashing makes state commitment O(writes) instead of O(state)",
		Columns: []string{"phase", "config", "workers", "ops", "elapsed", "tps", "lock-waits"},
	}

	// --- hash phase -------------------------------------------------------
	// The timing comparison gets a few attempts: the speedup is
	// structural (~100× here), but a sub-millisecond measurement can be
	// disturbed by scheduling noise.
	const attempts = 3
	var rescan, bucket time.Duration
	for try := 1; ; try++ {
		s := statedb.New()
		for i := 0; i < hashKeys; i++ {
			s.ApplyList(types.Version{Block: uint64(i/64 + 1), Tx: i % 64}, types.WriteList{
				{Key: fmt.Sprintf("acct/%07d", i), Value: statedb.EncodeInt(int64(i))},
			})
		}
		rescan = medianTime(3, func() { s.FullRescanHash() })
		s.StateHash() // warm the bucket caches
		// Dirty a small write set, then time only the re-hash; three
		// dirty→hash cycles, median.
		samples := make([]time.Duration, 3)
		for i := range samples {
			for d := 0; d < dirtyKeys; d++ {
				s.ApplyList(types.Version{Block: uint64(hashKeys + i), Tx: d}, types.WriteList{
					{Key: fmt.Sprintf("acct/%07d", (i*dirtyKeys+d)*37%hashKeys), Value: statedb.EncodeInt(int64(d))},
				})
			}
			t0 := time.Now()
			s.StateHash()
			samples[i] = time.Since(t0)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		bucket = samples[len(samples)/2]
		if quick || rescan >= 10*bucket {
			break
		}
		if try == attempts {
			return tbl, fmt.Errorf("hash: bucket tree %v not ≥10× faster than full rescan %v in %d attempts",
				bucket, rescan, attempts)
		}
	}
	tbl.AddRow("hash", "full-rescan (seed)", "-", hashKeys, rescan, "-", "-")
	tbl.AddRow("hash", fmt.Sprintf("bucket-tree dirty=%d", dirtyKeys), "-", hashKeys, bucket, "-", "-")

	// --- exec phase -------------------------------------------------------
	type armKey struct {
		shards, workers int
	}
	type armResult struct {
		elapsed   time.Duration
		tps       float64
		lockWaits int64
		hash      types.Hash
	}
	runExec := func(shards, nw int) armResult {
		st := statedb.New(statedb.WithShards(shards))
		eng := oxii.New(st, 25, nw)
		start := time.Now()
		for base := 0; base < totalTxs; base += blockSize {
			txs := make([]*types.Transaction, blockSize)
			for i := range txs {
				// Consecutive keys mod 4096 never repeat within one block:
				// a zero-conflict dependency graph, the best case for
				// parallel execution and the worst case for a global lock.
				txs[i] = &types.Transaction{
					ID:  fmt.Sprintf("e13-%d", base+i),
					Ops: []types.Op{{Code: types.OpAdd, Key: fmt.Sprintf("acct%04d", (base+i)%4096), Delta: 1}},
				}
			}
			blk := types.NewBlock(uint64(base/blockSize+1), types.ZeroHash, 0, txs)
			s := eng.ExecuteBlock(blk)
			if s.Committed != blockSize {
				panic(fmt.Sprintf("E13: %d/%d committed", s.Committed, blockSize))
			}
		}
		elapsed := time.Since(start)
		return armResult{
			elapsed: elapsed, tps: tps(totalTxs, elapsed),
			lockWaits: st.LockWaits(), hash: st.StateHash(),
		}
	}

	// Thresholds scale to the hardware: a single-CPU box cannot show
	// parallel speedup on a CPU-bound workload, so there the assertion is
	// that striping does not collapse under extra workers.
	maxW := workers[len(workers)-1]
	wantSpeedup := 1.15
	if runtime.NumCPU() == 1 {
		wantSpeedup = 0.5
	}
	var results map[armKey]armResult
	for try := 1; ; try++ {
		results = make(map[armKey]armResult)
		var refHash types.Hash
		for _, shards := range []int{1, statedb.DefaultShards} {
			for _, nw := range workers {
				r := runExec(shards, nw)
				if refHash == (types.Hash{}) {
					refHash = r.hash
				} else if r.hash != refHash {
					// Determinism is hard-asserted on every attempt: same
					// transactions, any shard count, any worker count, one
					// final state hash.
					return tbl, fmt.Errorf("exec: shards=%d workers=%d final state hash diverges", shards, nw)
				}
				results[armKey{shards, nw}] = r
			}
		}
		sharded1 := results[armKey{statedb.DefaultShards, 1}]
		shardedN := results[armKey{statedb.DefaultShards, maxW}]
		if quick || shardedN.tps >= wantSpeedup*sharded1.tps {
			break
		}
		if try == attempts {
			return tbl, fmt.Errorf("exec: shards=%d at %d workers ran %.0f tps vs %.0f tps single-worker (want ≥%.2f×) in %d attempts",
				statedb.DefaultShards, maxW, shardedN.tps, sharded1.tps, wantSpeedup, attempts)
		}
	}
	keys := make([]armKey, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shards != keys[j].shards {
			return keys[i].shards < keys[j].shards
		}
		return keys[i].workers < keys[j].workers
	})
	for _, k := range keys {
		r := results[k]
		cfg := fmt.Sprintf("shards=%d", k.shards)
		if k.shards == 1 {
			cfg = "shards=1 (seed lock)"
		}
		tbl.AddRow("exec", cfg, k.workers, totalTxs, r.elapsed, r.tps, r.lockWaits)
	}

	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("hash phase: bucket tree re-hashed %d dirty keys of %d in %v vs %v for the seed full rescan (%.0f×)",
			dirtyKeys, hashKeys, bucket.Round(time.Microsecond), rescan.Round(time.Microsecond),
			float64(rescan)/float64(bucket)),
		"exec phase: every arm executes the identical zero-conflict OXII workload and must land on the identical state hash (asserted), regardless of shard or worker count",
		"shards=1 reproduces the seed's single global store lock; lock-waits counts acquisitions that blocked on a held shard",
		fmt.Sprintf("exec phase: shards=%d ran %.2f× faster at %d workers than at 1",
			statedb.DefaultShards, results[armKey{statedb.DefaultShards, maxW}].tps/results[armKey{statedb.DefaultShards, 1}].tps, maxW),
		fmt.Sprintf("run on %d CPU(s); parallel speedup is asserted only on multi-core hardware (threshold here: ≥%.2f× from 1→%d workers on the sharded store)",
			runtime.NumCPU(), wantSpeedup, maxW))
	if quick {
		tbl.Notes = append(tbl.Notes, "quick run: the ≥10× hash and exec-speedup ratios are reported, not asserted; state-hash equality still is")
	}
	return tbl, nil
}

// medianTime runs fn n times and returns the median duration.
func medianTime(n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2]
}
