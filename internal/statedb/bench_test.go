package statedb

import (
	"fmt"
	"sync/atomic"
	"testing"

	"permchain/internal/types"
)

// The microbenchmarks exist so shard-count tuning is measurable:
//
//	go test -bench . -benchtime 1s ./internal/statedb
//
// Each hot-path operation runs serially and under RunParallel, across a
// sweep of shard counts; shards=1 reproduces the seed's single global
// lock, so the sweep is the before/after picture of the lock striping.

var shardSweep = []int{1, 4, 64}

// populate fills s with n keys under a deterministic workload.
func populate(s *Store, n int) {
	for i := 0; i < n; i++ {
		s.ApplyList(types.Version{Block: uint64(i/8 + 1), Tx: i % 8}, types.WriteList{
			{Key: benchKey(i), Value: EncodeInt(int64(i))},
		})
	}
}

func benchKey(i int) string { return fmt.Sprintf("acct/%08d", i) }

func BenchmarkGet(b *testing.B) {
	for _, shards := range shardSweep {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(WithShards(shards))
			populate(s, 10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Get(benchKey(i % 10000))
			}
		})
		b.Run(fmt.Sprintf("shards=%d/parallel", shards), func(b *testing.B) {
			s := New(WithShards(shards))
			populate(s, 10000)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					s.Get(benchKey(i % 10000))
					i++
				}
			})
		})
	}
}

func BenchmarkApply(b *testing.B) {
	for _, shards := range shardSweep {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(WithShards(shards))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ApplyList(types.Version{Block: uint64(i) + 1}, types.WriteList{
					{Key: benchKey(i % 4096), Value: EncodeInt(int64(i))},
				})
			}
		})
		b.Run(fmt.Sprintf("shards=%d/parallel", shards), func(b *testing.B) {
			s := New(WithShards(shards))
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					s.ApplyList(types.Version{Block: uint64(i)}, types.WriteList{
						{Key: benchKey(int(i) % 4096), Value: EncodeInt(i)},
					})
				}
			})
		})
	}
}

func BenchmarkValidate(b *testing.B) {
	for _, shards := range shardSweep {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(WithShards(shards))
			populate(s, 10000)
			_, ver, _ := s.Get(benchKey(7))
			reads := types.ReadList{{Key: benchKey(7), Ver: ver}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.ValidateList(reads) {
					b.Fatal("validation failed")
				}
			}
		})
		b.Run(fmt.Sprintf("shards=%d/parallel", shards), func(b *testing.B) {
			s := New(WithShards(shards))
			populate(s, 10000)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := benchKey(i % 10000)
					_, ver, _ := s.Get(k)
					if !s.ValidateList(types.ReadList{{Key: k, Ver: ver}}) {
						b.Fatal("validation failed")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStateHash measures the incremental bucket-tree hash with a
// small dirty set per iteration — the steady-state shape of the snapshot
// path, where only the keys written since the last checkpoint are dirty.
func BenchmarkStateHash(b *testing.B) {
	for _, keys := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("keys=%d/dirty=64", keys), func(b *testing.B) {
			s := New()
			populate(s, keys)
			s.StateHash() // warm the caches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for d := 0; d < 64; d++ {
					s.ApplyList(types.Version{Block: uint64(i) + 2}, types.WriteList{
						{Key: benchKey((i*64 + d) % keys), Value: EncodeInt(int64(i))},
					})
				}
				b.StartTimer()
				s.StateHash()
			}
		})
	}
}

// BenchmarkStateHashFullRescan is the seed baseline: sort and digest the
// entire state on every call. The ratio to BenchmarkStateHash at the same
// key count is the E13(a) speedup.
func BenchmarkStateHashFullRescan(b *testing.B) {
	for _, keys := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			s := New()
			populate(s, keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.FullRescanHash()
			}
		})
	}
}

// BenchmarkSnapshotCapture measures the freeze half of the copy-on-write
// snapshot — the only part that stays on the executor's path.
func BenchmarkSnapshotCapture(b *testing.B) {
	s := New()
	populate(s, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Capture()
	}
}

func BenchmarkSnapshotMaterialize(b *testing.B) {
	s := New()
	populate(s, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Capture().Materialize()
	}
}
