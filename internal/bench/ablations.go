package bench

import (
	"fmt"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/consensus/pbft"
	"permchain/internal/core"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/types"
	"permchain/internal/workload"
)

// E9Ablations isolates three design choices the surveyed systems lean on:
//
//  1. batching — how block size changes end-to-end chain throughput
//     (consensus cost amortizes over the batch);
//  2. message authentication — what signatures cost a BFT protocol
//     (FastFabric's crypto-offloading motivation);
//  3. attested committees — AHL's 2f+1-with-trusted-hardware vs plain
//     3f+1, measured as intra-shard ordering throughput per committee.
func E9Ablations(txs int) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "ablations: batching, signatures, attested committee size",
		Claim:   "batching amortizes consensus; signatures are a first-order BFT cost; trusted hardware shrinks committees and their message bill",
		Columns: []string{"ablation", "setting", "tps", "notes"},
	}

	// --- 1. Block size sweep on a full PBFT chain ---------------------------
	for _, bs := range []int{1, 8, 64, 256} {
		chain, err := core.New(core.Config{
			Nodes: 4, Protocol: core.PBFT, Arch: core.OX,
			BlockSize: bs, Timeout: 2 * time.Second, DisableSig: true,
			FlushEvery: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		chain.Start()
		gen := workload.New(9)
		batch := gen.KV(workload.KVConfig{Txs: txs, Keys: 10000})
		start := time.Now()
		for _, tx := range batch {
			if err := chain.Submit(tx); err != nil {
				chain.Stop()
				return nil, err
			}
		}
		chain.Flush()
		if !chain.Await(core.AwaitSpec{Nodes: []int{0}, Txs: txs, Timeout: 120 * time.Second}) {
			chain.Stop()
			return nil, fmt.Errorf("E9: block size %d stalled at %d/%d", bs, chain.Node(0).ProcessedTxs(), txs)
		}
		dur := time.Since(start)
		chain.Stop()
		t.AddRow("batching", fmt.Sprintf("block size %d", bs), tps(txs, dur),
			fmt.Sprintf("%d consensus decisions", (txs+bs-1)/bs))
	}

	// --- 2. Signatures on vs off (PBFT decisions) ---------------------------
	for _, sig := range []bool{false, true} {
		got, dur := pbftOrderRate(4, false, sig, txs/4, fmt.Sprintf("sig%v", sig))
		label := "ed25519 signatures ON"
		if !sig {
			label = "signatures OFF"
		}
		t.AddRow("authentication", label, tps(got, dur), "pbft n=4, 1 decision per request")
	}

	// --- 3. Attested 2f+1 vs plain 3f+1 committees (AHL) --------------------
	// Measured as raw ordering throughput of one committee: the attested
	// variant marks its nodes non-equivocating on the transport and drops
	// the quorum to f+1 of 2f+1, shrinking both the replica set and the
	// message bill for the same fault budget.
	for _, attested := range []bool{true, false} {
		size := 4 // 3f+1, f=1
		label := fmt.Sprintf("plain committee (3f+1 = %d nodes)", size)
		if attested {
			size = 3 // 2f+1, f=1
			label = fmt.Sprintf("attested committee (2f+1 = %d nodes)", size)
		}
		got, dur := pbftOrderRate(size, attested, false, txs/2, fmt.Sprintf("att%v", attested))
		t.AddRow("trusted hardware", label, tps(got, dur),
			fmt.Sprintf("%d nodes per committee, same f=1", size))
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d transactions per setting", txs),
		"batching rows use the full chain pipeline; others isolate consensus")
	return t, nil
}

// pbftOrderRate starts a size-replica PBFT group on a fresh network,
// submits n distinct values at replica 0, and returns how many were
// decided and how long that took. An attested group marks every node
// non-equivocating on the transport and orders with a quorum of
// size/2+1 (f+1 of 2f+1).
func pbftOrderRate(size int, attested, sig bool, n int, tag string) (int, time.Duration) {
	net := network.New()
	keys := crypto.NewKeyring(size)
	ids := make([]types.NodeID, size)
	for i := range ids {
		ids[i] = types.NodeID(i)
		if attested {
			net.Attest(ids[i])
		}
	}
	quorum := 0
	if attested {
		quorum = size/2 + 1
	}
	var reps []*pbft.Replica
	for _, id := range ids {
		r := pbft.New(consensus.Config{
			Self: id, Nodes: ids, Net: net, Keys: keys,
			Timeout: 2 * time.Second, DisableSig: !sig, ByzQuorumOverride: quorum,
		})
		r.Start()
		reps = append(reps, r)
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	start := time.Now()
	done := make(chan int, 1)
	go func() {
		done <- len(consensus.WaitDecisions(reps[0].Decisions(), n, 120*time.Second))
	}()
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("%s-%d", tag, i)
		reps[0].Submit(v, types.HashBytes([]byte(v)))
	}
	got := <-done
	return got, time.Since(start)
}
