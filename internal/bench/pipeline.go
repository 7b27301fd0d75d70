package bench

import (
	"fmt"
	"os"
	"time"

	"permchain/internal/core"
	"permchain/internal/obs"
	"permchain/internal/store"
	"permchain/internal/types"
)

// E12Pipeline runs the commit pipeline (DESIGN.md, "Commit pipeline")
// under a durable workload and asserts the witnesses that it keeps disk
// work off the critical path: the executor and persister stages overlap,
// and checkpoints go to the async snapshot writer.
//
// Two configurations isolate the two costs the pipeline hides:
//
//   - fsync=always: every block forces a durable sync; block h+1's
//     execution overlaps block h's fsync. Witness: node 0 alone issued at
//     least one fsync per block, and no checkpoint was written.
//   - fsync=always snap-every=4: adds periodic state checkpoints, which
//     must run off-path. Witnesses: store/snapshots_async > 0 (the async
//     writer ran) and core/applied_during_snapshot > 0 (a block was
//     applied while a checkpoint write was in flight).
//
// Every witness is a counter, not a wall-clock comparison, so none
// depends on the host's speed.
func E12Pipeline(quick bool) (*Table, error) {
	txs, blockSize, work := 1200, 8, 1500
	if quick {
		txs = 600
	}

	tbl := &Table{
		ID:    "E12",
		Title: "commit pipeline: pipelined commit path, by fsync policy and snapshot interval",
		Claim: "overlapping execution with durable appends — and moving snapshots off the critical path — keeps disk work off the commit path without weakening durability",
		Columns: []string{"config", "blocks", "txs", "elapsed", "tps",
			"fsyncs", "snapshots", "snapshots-async", "applied-during-snap"},
	}

	for _, a := range []struct {
		name      string
		snapEvery uint64
	}{{"fsync=always", 0}, {"fsync=always snap-every=4", 4}} {
		// The overlap witness is scheduling-dependent on a sub-second
		// run (a fast executor can drain every apply between two
		// checkpoint writes), so it gets a few attempts.
		const attempts = 3
		for try := 1; ; try++ {
			row, err := runE12Arm(a.name, a.snapEvery, txs, blockSize, work)
			if err == nil {
				tbl.AddRow(row...)
				break
			}
			if try == attempts {
				if row != nil {
					tbl.AddRow(row...)
				}
				return tbl, fmt.Errorf("%w in %d attempts", err, attempts)
			}
		}
	}

	tbl.Notes = append(tbl.Notes,
		"durable PBFT/OX workload, 4 nodes; fsyncs and snapshots are summed across all nodes' stores",
		"applied-during-snap counts blocks applied while a checkpoint write was in flight: non-zero because checkpoints run off-path",
		"durability is unchanged by the pipeline: blocks sync per the fsync policy and the MANIFEST advances only after a checkpoint is durable")
	return tbl, nil
}

// runE12Arm stands up a 4-node durable PBFT/OX cluster in a fresh store
// directory, pushes txs through it, and checks the configuration's
// witnesses. Receipts on the first and last transaction double as an
// end-to-end check that the async client API settles. A failed witness
// returns the row alongside the error so the table can show what was
// measured.
func runE12Arm(name string, snapEvery uint64, txs, blockSize, work int) ([]any, error) {
	dir, err := os.MkdirTemp("", "permbench-e12-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o := obs.New()
	c, err := core.New(core.Config{
		Nodes: 4, Protocol: core.PBFT, Arch: core.OX, BlockSize: blockSize,
		Timeout: 300 * time.Millisecond, Obs: o, WorkFactor: work,
		// A small apply queue keeps the executor paced to the
		// persister, so checkpoint writes always overlap applies.
		ApplyQueue: 8,
		Store: &store.Config{
			Dir: dir, Fsync: store.FsyncAlways, SnapshotEvery: snapEvery,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.Start()
	defer c.Stop()
	start := time.Now()
	var receipts []*core.Receipt
	for i := 0; i < txs; i++ {
		tx := &types.Transaction{ID: fmt.Sprintf("e12-%d", i),
			Ops: []types.Op{{Code: types.OpAdd, Key: fmt.Sprintf("k%d", i%17), Delta: 1}}}
		if i == 0 || i == txs-1 {
			r, err := c.SubmitAsync(tx)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			receipts = append(receipts, r)
		} else if err := c.Submit(tx); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	c.Flush()
	if !c.Await(core.AwaitSpec{Txs: txs, Timeout: 60 * time.Second}) {
		return nil, fmt.Errorf("%s: cluster processed %d/%d", name, c.Node(0).ProcessedTxs(), txs)
	}
	elapsed := time.Since(start)
	for _, r := range receipts {
		if err := r.Wait(10 * time.Second); err != nil {
			return nil, fmt.Errorf("%s: receipt %s: %w", name, r.TxID(), err)
		}
	}
	if err := c.VerifyReplication(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	height := c.Node(0).Chain().Height()
	// Stop drains the async snapshot writers, so the counters below see
	// every checkpoint the run started.
	c.Stop()
	m := o.Reg.Snapshot().Counters
	fsyncs, snaps := m["store/fsyncs"], m["store/snapshots_written"]
	async, overlapped := m["store/snapshots_async"], m["core/applied_during_snapshot"]
	row := []any{name, height, txs, elapsed, tps(txs, elapsed), fsyncs, snaps, async, overlapped}
	switch {
	case fsyncs < int64(height):
		return row, fmt.Errorf("%s: %d fsyncs for %d blocks under fsync=always", name, fsyncs, height)
	case snapEvery == 0 && snaps != 0:
		return row, fmt.Errorf("%s: %d snapshots written with checkpoints disabled", name, snaps)
	case snapEvery > 0 && async == 0:
		return row, fmt.Errorf("%s: no async snapshots written", name)
	case snapEvery > 0 && overlapped == 0:
		return row, fmt.Errorf("%s: no block applied during a snapshot write; checkpoints are not off-path", name)
	}
	return row, nil
}
