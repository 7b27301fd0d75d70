package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"permchain/internal/arch"
	"permchain/internal/arch/ox"
	"permchain/internal/arch/oxii"
	"permchain/internal/arch/xov"
	"permchain/internal/consensus"
	"permchain/internal/consensus/pbft"
	"permchain/internal/consensus/raft"
	"permchain/internal/core"
	"permchain/internal/crypto"
	"permchain/internal/ledger"
	"permchain/internal/mempool"
	"permchain/internal/network"
	"permchain/internal/sharding/locktable"
	"permchain/internal/statedb"
	"permchain/internal/store"
	"permchain/internal/types"
	"permchain/internal/wire"
)

// The layer replay pushes the blocks node 0 committed in the traced run,
// single-threaded, through each layer's public functions, with one of the
// benchmark's own spans around every call. It measures a layer alone, so
// the numbers compare two versions of one layer and leave out waiting.

const (
	maxReplayBlocks = 256  // a prefix from height 1, so XOV validation repeats exactly
	cryptoOps       = 2000 // signatures made and checked
	orderWindow     = 8    // batches in flight in the throughput arm of the ordering replay
)

// orderedBatch is what the bare replicas order: the recorded batch, in a
// type of the benchmark's own so the wire transport can carry it.
type orderedBatch struct{ Txs []*types.Transaction }

// Tag 240 is outside every block internal/wire documents as taken.
var _ = wire.Register[orderedBatch](240,
	func(e *wire.Encoder, b *orderedBatch) {
		e.U32(uint32(len(b.Txs)))
		for i := range b.Txs {
			wire.PutTx(e, &b.Txs[i])
		}
	},
	func(d *wire.Decoder, b *orderedBatch) {
		n := d.Count(32)
		b.Txs = make([]*types.Transaction, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			var tx *types.Transaction
			wire.GetTx(d, &tx)
			b.Txs = append(b.Txs, tx)
		}
	})

// mallocs is the process-wide allocation count; the replay is
// single-threaded and nothing else runs beside it.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func replayLayers(r *runResult, w workload, blocks []*types.Block, rec *recorder, scratch string) error {
	if len(blocks) == 0 {
		return errors.New("no committed blocks to replay")
	}
	blocks = blocks[:min(len(blocks), maxReplayBlocks)]
	nTx := 0
	for _, b := range blocks {
		nTx += len(b.Txs)
	}
	root := rec.open("replay", 0, 0, time.Now())
	defer func() { rec.close(root, time.Now()) }()
	perBlock := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(len(blocks)) }
	perTx := func(d time.Duration) float64 { return float64(d) / float64(nTx) }

	// mempool: admit, batch and release every recorded transaction.
	pool := mempool.New(mempool.Config{Capacity: mempoolCap, BatchSize: blockSize})
	var admit time.Duration
	var perr error
	for _, b := range blocks {
		admit += rec.timed("mempool.admit_batch_release", root, b.Header.Height, func() {
			for _, tx := range b.Txs {
				if _, err := pool.Admit(tx, nil); err != nil {
					perr = err
				}
			}
			for pool.NextBatch(blockSize) != nil {
			}
			pool.Release(b.Txs)
		})
	}
	pool.Close()
	if perr != nil {
		return fmt.Errorf("mempool: %w", perr)
	}
	r.set("mempool.admit_ns_per_tx", perTx(admit), nTx)

	// crypto: the signature scheme consensus messages use, and the block's
	// Merkle root.
	keys := crypto.NewKeyring(replicas)
	msg := blocks[0].Header.TxRoot[:]
	sigs := make([][]byte, cryptoOps)
	sign := rec.timed("crypto.sign", root, 0, func() {
		for i := range sigs {
			sigs[i] = keys.Sign(types.NodeID(i%replicas), msg)
		}
	})
	ok := true
	verify := rec.timed("crypto.verify", root, 0, func() {
		for i, sig := range sigs {
			ok = keys.Verify(types.NodeID(i%replicas), msg, sig) && ok
		}
	})
	if !ok {
		return errors.New("crypto: a fresh signature did not verify")
	}
	r.set("crypto.sign_us", float64(sign)/1e3/cryptoOps, cryptoOps)
	r.set("crypto.verify_us", float64(verify)/1e3/cryptoOps, cryptoOps)
	var merkle time.Duration
	for _, b := range blocks {
		merkle += rec.timed("crypto.merkle_root", root, b.Header.Height, func() {
			if types.TxMerkleRoot(b.Txs) != b.Header.TxRoot {
				ok = false
			}
		})
	}
	if !ok {
		return errors.New("crypto: recomputed Merkle root differs from the block header")
	}
	r.set("crypto.merkle_root_us_per_block", perBlock(merkle), len(blocks))

	// wire: the transaction frame, encoded and decoded.
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	scratchTx := wire.AcquireTx()
	defer wire.ReleaseTx(scratchTx)
	var frameBytes int
	var encode, decode time.Duration
	var decodeAllocs uint64
	var werr error
	for _, b := range blocks {
		frames := make([][]byte, len(b.Txs))
		encode += rec.timed("wire.tx_encode", root, b.Header.Height, func() {
			for i := range b.Txs {
				enc.Reset()
				wire.TxCodec.EncodeFrame(enc, &b.Txs[i])
				frames[i] = append(frames[i], enc.Frame()...)
			}
		})
		m0 := mallocs()
		decode += rec.timed("wire.tx_decode", root, b.Header.Height, func() {
			for _, f := range frames {
				frameBytes += len(f)
				if err := wire.TxCodec.DecodeFrameInto(f, &scratchTx); err != nil {
					werr = err
				}
			}
		})
		decodeAllocs += mallocs() - m0
	}
	if werr != nil {
		return fmt.Errorf("wire: %w", werr)
	}
	r.set("wire.tx_frame_bytes", float64(frameBytes)/float64(nTx), nTx)
	r.set("wire.tx_encode_ns", perTx(encode), nTx)
	r.set("wire.tx_decode_ns", perTx(decode), nTx)
	r.set("wire.tx_decode_allocs", float64(decodeAllocs)/float64(nTx), nTx)

	// arch: the workload's engine over a fresh world state.
	st := statedb.New()
	var process func(*types.Block) (arch.Stats, []arch.TxStatus)
	var endorser *xov.Engine
	switch w.arch {
	case core.OX:
		process = ox.New(st, w.workFactor).ExecuteBlockStatus
	case core.OXII:
		process = oxii.New(st, w.workFactor, 0).ExecuteBlockStatus
	case core.XOV:
		endorser = xov.New(st, xov.Options{}, w.workFactor, 0)
		process = endorser.CommitBlockStatus
	}
	var execute, endorse, hash, capture time.Duration
	var execAllocs uint64
	captures := 0
	for _, b := range blocks {
		if endorser != nil {
			// Endorsement ran at submit in the live chain; here a copy of
			// each transaction is endorsed against the state before its block.
			endorse += rec.timed("arch.xov.endorse", root, b.Header.Height, func() {
				for _, tx := range b.Txs {
					c := *tx
					_ = endorser.Endorse(&c) // a failure only leaves the copy unendorsed
				}
			})
		}
		m0 := mallocs()
		execute += rec.timed("arch.execute", root, b.Header.Height, func() { process(b) })
		execAllocs += mallocs() - m0
	}
	r.set("arch.replay_allocs_per_tx", float64(execAllocs)/float64(nTx), nTx)
	r.set("arch.replay_execute_ns_per_tx", perTx(execute), nTx)
	r.set("arch.xov.endorse_us", perTx(endorse)/1e3, nTx)

	// statedb: reads, list writes, the incremental state hash and the
	// copy-on-write capture, on a second fresh state.
	st = statedb.New()
	sc := statedb.GetScratch()
	defer statedb.PutScratch(sc)
	var get, apply time.Duration
	gets, writes := 0, 0
	for _, b := range blocks {
		for i, tx := range b.Txs {
			_, wl, err := statedb.SimulateList(st, tx.Ops, sc)
			if err != nil {
				continue // a failed transaction writes nothing
			}
			wl = append(types.WriteList(nil), wl...) // the scratch is reused by the next call
			ver := types.Version{Block: b.Header.Height, Tx: i}
			apply += rec.timed("statedb.apply", root, b.Header.Height, func() { st.ApplyList(ver, wl) })
			writes += len(wl)
			get += rec.timed("statedb.get", root, b.Header.Height, func() {
				for _, op := range tx.Ops {
					st.Get(op.Key)
				}
			})
			gets += len(tx.Ops)
		}
		hash += rec.timed("statedb.state_hash", root, b.Header.Height, func() { st.StateHash() })
		if b.Header.Height%snapshotEvery == 0 {
			capture += rec.timed("statedb.capture", root, b.Header.Height, func() { st.Capture() })
			captures++
		}
	}
	r.set("statedb.get_ns", ratio(float64(get), float64(gets)), gets)
	r.set("statedb.apply_ns_per_write", ratio(float64(apply), float64(writes)), writes)
	r.set("statedb.state_hash_us_per_block", perBlock(hash), len(blocks))
	r.set("statedb.capture_us", ratio(float64(capture)/1e3, float64(captures)), captures)

	// ledger: form each block and append it to an in-memory chain.
	lc := ledger.NewChain()
	var newBlock, lappend time.Duration
	var lerr error
	for _, b := range blocks {
		var nb *types.Block
		newBlock += rec.timed("ledger.new_block", root, b.Header.Height, func() {
			nb = types.NewBlock(b.Header.Height, lc.Head().Hash(), b.Header.Proposer, b.Txs)
		})
		lappend += rec.timed("ledger.append", root, b.Header.Height, func() {
			if err := lc.Append(nb); err != nil {
				lerr = err
			}
		})
	}
	if lerr != nil {
		return fmt.Errorf("ledger: %w", lerr)
	}
	r.set("ledger.new_block_us", perBlock(newBlock), len(blocks))
	r.set("ledger.append_us", perBlock(lappend), len(blocks))

	// store: the block record codec and the fsync-always append.
	disk, err := store.Open(store.Config{Dir: filepath.Join(scratch, "replay-store"), Fsync: store.FsyncAlways})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer disk.Close()
	var encBlock, sappend time.Duration
	var serr error
	for _, b := range blocks {
		encBlock += rec.timed("store.encode_block", root, b.Header.Height, func() { store.EncodeBlock(b) })
		sappend += rec.timed("store.append_block", root, b.Header.Height, func() {
			if err := disk.AppendBlock(b); err != nil {
				serr = err
			}
		})
	}
	if serr != nil {
		return fmt.Errorf("store: %w", serr)
	}
	r.set("store.encode_block_ns_per_tx", perTx(encBlock), nTx)
	r.set("store.replay_append_us_per_block", perBlock(sappend), len(blocks))

	// locktable: the 2PL table over each recorded transaction's keys.
	lockNs := 0.0
	if w.mix.shards > 0 {
		lt := locktable.New(time.Minute)
		var lock time.Duration
		for _, b := range blocks {
			for _, tx := range b.Txs {
				keys := tx.TouchedKeys()
				lock += rec.timed("sharding.lock", root, b.Header.Height, func() {
					if lt.Lock(tx.ID, keys, 0) == nil {
						lt.Unlock(tx.ID)
					}
				})
			}
		}
		lockNs = perTx(lock)
	}
	r.set("sharding.lock_acquire_ns", lockNs, nTx)

	// consensus: the protocol alone, over a wire-mode network.
	lat, err := orderOnly(w.protocol, blocks, 1, rec, root)
	if err != nil {
		return err
	}
	r.set("consensus.order_only_us_p50", quantile(lat.us, 0.5), len(lat.us))
	thr, err := orderOnly(w.protocol, blocks, orderWindow, rec, root)
	if err != nil {
		return err
	}
	r.set("consensus.order_only_blocks_per_s", thr.blocksPerS, len(thr.us))

	// What the acceptance check compares: ordering (consensus with its
	// signatures, plus the Merkle root) against committing (execute, state
	// hash, ledger and durable append), per block.
	order := quantile(lat.us, 0.5) + perBlock(merkle)
	commit := perBlock(execute) + perBlock(hash) + perBlock(newBlock+lappend) + perBlock(encBlock+sappend)
	r.set("replay.order_us_per_block", order, len(blocks))
	r.set("replay.commit_us_per_block", commit, len(blocks))
	return nil
}

type orderResult struct {
	us         []float64 // submit to decision at replica 0, per batch
	blocksPerS float64
}

// orderOnly runs four bare replicas of the protocol and orders the
// recorded batches with window of them in flight.
func orderOnly(p core.Protocol, blocks []*types.Block, window int, rec *recorder, parent int32) (*orderResult, error) {
	net := network.New(network.WithWireCodec())
	defer net.Close()
	keys := crypto.NewKeyring(replicas)
	ids := make([]types.NodeID, replicas)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	reps := make([]consensus.Replica, replicas)
	for i := range reps {
		cfg := consensus.Config{Self: ids[i], Nodes: ids, Net: net, Keys: keys, Timeout: timeout}
		switch p {
		case core.PBFT:
			reps[i] = pbft.New(cfg)
		case core.Raft:
			reps[i] = raft.New(cfg)
		default:
			return nil, fmt.Errorf("no ordering replay for protocol %v", p)
		}
		reps[i].Start()
	}
	defer func() {
		for _, rep := range reps {
			rep.Stop()
		}
	}()

	// The Merkle root is unique per recorded batch, which is all the
	// protocols ask of a digest.
	index := make(map[types.Hash]int, len(blocks))
	for i, b := range blocks {
		index[b.Header.TxRoot] = i
	}
	decided := reps[0].Decisions()
	await := func() (types.Hash, error) {
		select {
		case d := <-decided:
			return d.Digest, nil
		case <-time.After(settleWait):
			return types.Hash{}, fmt.Errorf("ordering replay: no decision within %v", settleWait)
		}
	}
	// One batch outside the clock absorbs Raft's first election.
	reps[0].Submit(orderedBatch{}, types.HashBytes([]byte("warm")))
	if _, err := await(); err != nil {
		return nil, err
	}

	res := &orderResult{}
	sent := make([]time.Time, len(blocks))
	began := time.Now()
	next := 0
	submit := func() {
		sent[next] = time.Now()
		reps[0].Submit(orderedBatch{Txs: blocks[next].Txs}, blocks[next].Header.TxRoot)
		next++
	}
	for next < min(window, len(blocks)) {
		submit()
	}
	span := fmt.Sprintf("consensus.order_w%d", window)
	for range blocks {
		dig, err := await()
		if err != nil {
			return nil, err
		}
		now := time.Now()
		i, ok := index[dig]
		if !ok {
			return nil, fmt.Errorf("ordering replay: decided a digest %v that was never submitted", dig)
		}
		rec.add(span, parent, blocks[i].Header.Height, sent[i], now)
		res.us = append(res.us, float64(now.Sub(sent[i]))/1e3)
		if next < len(blocks) {
			submit()
		}
	}
	res.blocksPerS = float64(len(blocks)) / time.Since(began).Seconds()
	return res, nil
}
