package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	storepkg "permchain/internal/store"
	"permchain/internal/types"
)

// durableCluster commits blocks full blocks of perBlock transactions to a
// fresh 4-node PBFT/OX chain under dir, stops it cleanly and returns the
// config that reopens it.
func durableCluster(tb testing.TB, dir string, blocks, perBlock int) Config {
	tb.Helper()
	cfg := Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: perBlock,
		FlushEvery: time.Hour, Timeout: 400 * time.Millisecond,
		Store: &storepkg.Config{Dir: dir, Fsync: storepkg.FsyncAlways, SnapshotEvery: 16}}
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.Start()
	for h := 1; h <= blocks; h++ {
		for i := 0; i < perBlock; i++ {
			if err := c.Submit(addTx(fmt.Sprintf("t%d-%d", h, i), fmt.Sprintf("k%d", i%97), 1)); err != nil {
				tb.Fatal(err)
			}
		}
		c.Flush()
		if !c.Await(AwaitSpec{DurableHeight: uint64(h), Timeout: 20 * time.Second}) {
			tb.Fatalf("block %d never became durable on every node", h)
		}
	}
	c.Stop()
	return cfg
}

// forgeBlockBody rewrites one node's store so that the block at height
// keeps its header but carries a different body. Every record still
// passes its CRC; only the Merkle root check can catch the forgery.
func forgeBlockBody(t *testing.T, dir string, node int, height uint64) {
	t.Helper()
	nodeDir := filepath.Join(dir, fmt.Sprintf("node-%d", node))
	st, err := storepkg.Open(storepkg.Config{Dir: nodeDir})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*types.Block
	if err := st.ReplayBlocks(1, func(b *types.Block) error {
		blocks = append(blocks, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	b := blocks[height-1]
	forged := *b.Txs[0]
	forged.Ops = []types.Op{{Code: types.OpAdd, Key: "forged", Delta: 1 << 20}}
	b.Txs[0] = &forged
	if err := os.RemoveAll(nodeDir); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := storepkg.Open(storepkg.Config{Dir: nodeDir, Fsync: storepkg.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := rebuilt.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := rebuilt.Close(); err != nil {
		t.Fatal(err)
	}
}

// damageMidSegment flips one payload byte of a record in the middle of a
// node's first WAL segment, so the record fails its CRC with valid
// records after it.
func damageMidSegment(t *testing.T, dir string, node int) {
	t.Helper()
	seg := filepath.Join(dir, fmt.Sprintf("node-%d", node), "wal", fmt.Sprintf("wal-%016x.seg", 1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int // payload offset of each record
	for off := 0; off+8 <= len(data); {
		offs = append(offs, off+8)
		off += 8 + int(binary.BigEndian.Uint32(data[off:]))
	}
	if len(offs) < 3 {
		t.Fatalf("segment holds %d records, want at least 3", len(offs))
	}
	data[offs[len(offs)/2]+4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenChainRejectsForgedBlockBody(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCluster(t, dir, 6, 4)
	forgeBlockBody(t, dir, 2, 3)
	c, err := OpenChain(cfg)
	if err == nil {
		c.Start()
		c.Stop()
		t.Fatal("OpenChain accepted a block whose body does not match its root")
	}
	if !errors.Is(err, storepkg.ErrCorrupt) || !strings.Contains(err.Error(), "node 2 ") {
		t.Fatalf("error %q: want store.ErrCorrupt naming node 2", err)
	}
}

// TestOpenChainNamesLowestCorruptNode damages nodes 1 and 3 two ways:
// WAL records that fail their CRC (caught when the stores open) and
// forged block bodies (caught while the nodes recover concurrently). The
// error must name node 1 every time, and no store may be left open.
func TestOpenChainNamesLowestCorruptNode(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, node int)
	}{
		{"wal-crc", damageMidSegment},
		{"forged-body", func(t *testing.T, dir string, node int) { forgeBlockBody(t, dir, node, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCluster(t, dir, 6, 4)
			tc.damage(t, dir, 1)
			tc.damage(t, dir, 3)
			for run := 0; run < 20; run++ {
				c, err := OpenChain(cfg)
				if err == nil {
					c.Start()
					c.Stop()
					t.Fatalf("run %d: OpenChain accepted damaged stores", run)
				}
				if !errors.Is(err, storepkg.ErrCorrupt) || !strings.Contains(err.Error(), "node 1 ") {
					t.Fatalf("run %d: error %q: want store.ErrCorrupt naming node 1", run, err)
				}
			}
			st, err := storepkg.Open(storepkg.Config{Dir: filepath.Join(dir, "node-0")})
			if err != nil {
				t.Fatalf("node 0 does not reopen after the failed opens: %v", err)
			}
			defer st.Close()
			if st.Height() != 6 {
				t.Fatalf("node 0 height %d after the failed opens, want 6", st.Height())
			}
		})
	}
}

// BenchmarkOpenChain times recovering a durable 4-node PBFT/OX chain of
// 128 blocks of 64 transactions (snapshot every 16 blocks): OpenChain,
// then Stop on the recovered chain, which is never started.
func BenchmarkOpenChain(b *testing.B) {
	cfg := durableCluster(b, b.TempDir(), 128, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := OpenChain(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.Stop()
	}
}
