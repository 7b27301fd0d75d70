// Package xov implements the execute-order-validate architecture of
// Hyperledger Fabric (§2.3.3) and the four published optimizations the
// tutorial surveys on top of it:
//
//   - vanilla Fabric: endorse (simulate) in parallel, order, validate
//     serially with MVCC checks — conflicting transactions abort;
//   - FastFabric [28]: the validation pipeline itself runs in parallel for
//     non-conflicting transactions;
//   - Fabric++ [54]: early abort of stale transactions plus within-block
//     reordering by conflict-graph cycle elimination;
//   - FabricSharp [52]: abort-minimizing reordering (exact minimum
//     feedback vertex set for small components) plus filtering of
//     transactions no reordering can save;
//   - XOX Fabric [27]: a post-order execution step re-executes
//     transactions invalidated by conflicts instead of dropping them.
package xov

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"permchain/internal/arch"
	"permchain/internal/obs"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

// Options selects which Fabric optimizations are active.
type Options struct {
	// ParallelValidation validates non-conflicting transactions
	// concurrently (FastFabric).
	ParallelValidation bool
	// Reorder selects the within-block reordering policy (Fabric++ /
	// FabricSharp).
	Reorder arch.ReorderPolicy
	// EarlyAbort drops transactions whose read set is already stale
	// against committed state before validation work is spent on them
	// (Fabric++ / FabricSharp).
	EarlyAbort bool
	// PostOrderExecution re-executes MVCC-aborted transactions against
	// fresh state after validation (XOX).
	PostOrderExecution bool
}

// Engine is an XOV processing node: it endorses (simulates) transactions
// against current state and validates/commits ordered blocks.
type Engine struct {
	store      *statedb.Store
	opts       Options
	workFactor int
	workers    int
	obs        *obs.Obs
}

// SetObs attaches per-stage timing instrumentation (nil detaches).
func (e *Engine) SetObs(o *obs.Obs) { e.obs = o }

// New creates an XOV engine. workers <= 0 selects GOMAXPROCS.
func New(store *statedb.Store, opts Options, workFactor, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{store: store, opts: opts, workFactor: workFactor, workers: workers}
}

// Store returns the engine's world state.
func (e *Engine) Store() *statedb.Store { return e.store }

// Endorse simulates the transaction against current committed state,
// filling its read/write sets. This is Fabric's execution phase: it runs
// before ordering and in parallel across clients/endorsers.
func (e *Engine) Endorse(tx *types.Transaction) error {
	for range tx.Ops {
		arch.SimulateWork(e.workFactor)
	}
	sc := statedb.GetScratch()
	defer statedb.PutScratch(sc)
	reads, writes, err := statedb.SimulateList(e.store, tx.Ops, sc)
	if err != nil {
		return err
	}
	// The lists alias the pooled scratch; the transaction keeps copies.
	tx.Reads, tx.Writes = slices.Clone(reads), slices.Clone(writes)
	return nil
}

// EndorseAll endorses a batch concurrently, returning the transactions
// that simulated successfully.
func (e *Engine) EndorseAll(txs []*types.Transaction) []*types.Transaction {
	start := time.Now()
	defer func() { e.obs.Observe("arch/xov/endorse", time.Since(start)) }()
	ok := make([]bool, len(txs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.workers)
	for i, tx := range txs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, tx *types.Transaction) {
			defer wg.Done()
			defer func() { <-sem }()
			ok[i] = e.Endorse(tx) == nil
		}(i, tx)
	}
	wg.Wait()
	var out []*types.Transaction
	for i, tx := range txs {
		if ok[i] {
			out = append(out, tx)
		}
	}
	return out
}

// CommitBlock validates an ordered block against the current state and
// commits the surviving transactions, applying whichever optimizations
// are enabled. Transactions must be endorsed (rw-sets filled).
func (e *Engine) CommitBlock(b *types.Block) arch.Stats {
	st, _ := e.CommitBlockStatus(b)
	return st
}

// CommitBlockStatus is CommitBlock plus a per-transaction outcome,
// indexed by the transaction's original block position (not the
// reordered one) — the input to commit receipts. MVCC validation losers
// report TxAborted; transactions salvaged by XOX re-execution report
// TxCommitted; payload failures report TxFailed.
func (e *Engine) CommitBlockStatus(b *types.Block) (arch.Stats, []arch.TxStatus) {
	statuses := make([]arch.TxStatus, len(b.Txs))
	pos := make(map[*types.Transaction]int, len(b.Txs))
	for i, tx := range b.Txs {
		statuses[i] = arch.TxCommitted // refined below as phases drop txs
		pos[tx] = i
	}
	setStatus := func(tx *types.Transaction, s arch.TxStatus) {
		if i, ok := pos[tx]; ok {
			statuses[i] = s
		}
	}

	var st arch.Stats
	txs := b.Txs

	// Early abort (Fabric++ / FabricSharp): a transaction whose reads are
	// already stale against committed state can never validate, in any
	// order — drop it before spending reorder/validation work.
	if e.opts.EarlyAbort {
		eaStart := time.Now()
		kept := txs[:0:0]
		for _, tx := range txs {
			if e.store.ValidateList(tx.Reads) {
				kept = append(kept, tx)
			} else {
				st.Aborted++
				setStatus(tx, arch.TxAborted)
			}
		}
		txs = kept
		e.obs.Observe("arch/xov/early_abort", time.Since(eaStart))
	}

	// Within-block reordering (Fabric++ / FabricSharp). Victims of cycle
	// elimination count as aborts — unless post-order execution is on, in
	// which case they join the re-execution queue like validation aborts.
	var postponed []*types.Transaction
	order := make([]int, len(txs))
	for i := range order {
		order[i] = i
	}
	if e.opts.Reorder != arch.ReorderNone {
		roStart := time.Now()
		var abortedIdx map[int]bool
		order, abortedIdx = arch.Reorder(txs, e.opts.Reorder)
		for idx := range abortedIdx {
			if e.opts.PostOrderExecution {
				postponed = append(postponed, txs[idx])
			} else {
				st.Aborted++
				setStatus(txs[idx], arch.TxAborted)
			}
		}
		e.obs.Observe("arch/xov/reorder", time.Since(roStart))
	}

	// Validation + commit.
	valStart := time.Now()
	var aborted []*types.Transaction
	if e.opts.ParallelValidation {
		s, ab := e.validateParallel(b.Header.Height, txs, order)
		st.Add(s)
		aborted = ab
	} else {
		s, ab := e.validateSerial(b.Header.Height, txs, order)
		st.Add(s)
		aborted = ab
	}
	e.obs.Observe("arch/xov/validate", time.Since(valStart))
	for _, tx := range aborted {
		setStatus(tx, arch.TxAborted) // refined again if XOX salvages it
	}

	// Post-order execution (XOX): re-execute invalidated transactions
	// against fresh state so their work is salvaged rather than lost.
	if e.opts.PostOrderExecution {
		poStart := time.Now()
		defer func() { e.obs.Observe("arch/xov/postorder", time.Since(poStart)) }()
		st.Aborted += len(postponed) // balanced out per-tx below
		aborted = append(aborted, postponed...)
		sc := statedb.GetScratch()
		defer statedb.PutScratch(sc)
		for _, tx := range aborted {
			for range tx.Ops {
				arch.SimulateWork(e.workFactor)
			}
			reads, writes, err := e.store.ExecuteList(types.Version{Block: b.Header.Height, Tx: len(txs) + st.Reexecuted}, tx.Ops, sc)
			st.Aborted--
			if err != nil {
				st.Failed++
				setStatus(tx, arch.TxFailed)
				continue
			}
			tx.Reads, tx.Writes = slices.Clone(reads), slices.Clone(writes)
			st.Committed++
			st.Reexecuted++
			setStatus(tx, arch.TxCommitted)
		}
	}
	return st, statuses
}

// validateSerial is Fabric's standard validator: walk the block in order,
// MVCC-check each transaction against the state as updated by earlier
// transactions in the same block, commit or abort.
func (e *Engine) validateSerial(height uint64, txs []*types.Transaction, order []int) (arch.Stats, []*types.Transaction) {
	var st arch.Stats
	var aborted []*types.Transaction
	for pos, idx := range order {
		tx := txs[idx]
		if !e.store.ValidateList(tx.Reads) {
			st.Aborted++
			aborted = append(aborted, tx)
			continue
		}
		e.store.ApplyList(types.Version{Block: height, Tx: pos}, tx.Writes)
		st.Committed++
	}
	return st, aborted
}

// validateParallel is FastFabric's pipeline: partition the ordered block
// into waves of mutually non-conflicting transactions and validate/commit
// each wave concurrently. Order across conflicting transactions is
// preserved by wave boundaries.
func (e *Engine) validateParallel(height uint64, txs []*types.Transaction, order []int) (arch.Stats, []*types.Transaction) {
	var st arch.Stats
	var aborted []*types.Transaction
	var mu sync.Mutex

	pos := 0
	for pos < len(order) {
		// Grow a wave: stop when the next transaction conflicts with any
		// transaction already in the wave.
		wave := []int{order[pos]}
		pos++
		for pos < len(order) {
			cand := txs[order[pos]]
			conflict := false
			for _, w := range wave {
				if cand.ConflictsWith(txs[w]) {
					conflict = true
					break
				}
			}
			if conflict {
				break
			}
			wave = append(wave, order[pos])
			pos++
		}
		var wg sync.WaitGroup
		for wi, idx := range wave {
			wg.Add(1)
			go func(wi, idx int) {
				defer wg.Done()
				tx := txs[idx]
				if !e.store.ValidateList(tx.Reads) {
					mu.Lock()
					st.Aborted++
					aborted = append(aborted, tx)
					mu.Unlock()
					return
				}
				e.store.ApplyList(types.Version{Block: height, Tx: pos + wi}, tx.Writes)
				mu.Lock()
				st.Committed++
				mu.Unlock()
			}(wi, idx)
		}
		wg.Wait()
	}
	return st, aborted
}
