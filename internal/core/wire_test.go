package core

import (
	"fmt"
	"testing"
	"time"

	"permchain/internal/network"
)

// TestWireCodecChainReplicates runs a full PBFT/OX cluster over the
// serialized transport: every consensus payload round-trips through the
// wire codec, and the ledgers must still replicate identically. The
// traffic counters prove bytes actually moved through frames.
func TestWireCodecChainReplicates(t *testing.T) {
	c := newChain(t, Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 8})
	const k = 24
	for i := 0; i < k; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("w%d", i), fmt.Sprintf("k%d", i%5), 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
		t.Fatalf("nodes processed %d/%d", c.Node(0).ProcessedTxs(), k)
	}
	if err := c.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
	stats := c.Network().StatsSnapshot()
	if stats.WireBytesOut == 0 || stats.WireBytesIn == 0 {
		t.Fatalf("no serialized bytes moved: out=%d in=%d", stats.WireBytesOut, stats.WireBytesIn)
	}
	if stats.ByCause[network.DropCodec] != 0 {
		t.Fatalf("%d payloads failed to encode/decode", stats.ByCause[network.DropCodec])
	}
}

// TestWireCodecAllProtocols runs every ordering protocol over the
// serialized transport: all six message vocabularies must survive
// encode/decode with identical resulting ledgers.
func TestWireCodecAllProtocols(t *testing.T) {
	for _, p := range []Protocol{PBFT, Raft, Paxos, Tendermint, HotStuff, IBFT} {
		p := p
		// Not parallel: six 4-node clusters at once starve each other's
		// consensus timers under the race detector on small machines.
		t.Run(p.String(), func(t *testing.T) {
			c := newChain(t, Config{Nodes: 4, Protocol: p, Arch: OX, BlockSize: 4})
			const k = 8
			for i := 0; i < k; i++ {
				if err := c.Submit(addTx(fmt.Sprintf("%s%d", p, i), "k", 1)); err != nil {
					t.Fatal(err)
				}
			}
			c.Flush()
			if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
				t.Fatalf("nodes processed %d/%d", c.Node(0).ProcessedTxs(), k)
			}
			if err := c.VerifyReplication(); err != nil {
				t.Fatal(err)
			}
			if n := c.Network().StatsSnapshot().ByCause[network.DropCodec]; n != 0 {
				t.Fatalf("%d codec drops", n)
			}
		})
	}
}

// TestWireCodecBatchedVotesReplicate exercises the pooled vote-batch
// slices: batching plus aggregate certificates over the serialized
// transport.
func TestWireCodecBatchedVotesReplicate(t *testing.T) {
	c := newChain(t, Config{Nodes: 4, Protocol: HotStuff, Arch: OX, BlockSize: 8,
		BatchVotes: true, AggregateVotes: true})
	const k = 16
	for i := 0; i < k; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("wb%d", i), "k", 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
		t.Fatalf("nodes processed %d/%d", c.Node(0).ProcessedTxs(), k)
	}
	if err := c.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
}
