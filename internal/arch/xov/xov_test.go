package xov

import (
	"fmt"
	"testing"

	"permchain/internal/arch"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

func addTx(id, key string, delta int64) *types.Transaction {
	return &types.Transaction{ID: id, Ops: []types.Op{{Code: types.OpAdd, Key: key, Delta: delta}}}
}

func seed(store *statedb.Store, kv map[string]int64) {
	i := 0
	for k, v := range kv {
		store.ApplyList(types.Version{Block: 1, Tx: i}, types.WriteList{{Key: k, Value: statedb.EncodeInt(v)}})
		i++
	}
}

func TestEndorseFillsRWSets(t *testing.T) {
	store := statedb.New()
	seed(store, map[string]int64{"x": 7})
	e := New(store, Options{}, 0, 0)
	tx := addTx("t", "x", 3)
	if err := e.Endorse(tx); err != nil {
		t.Fatal(err)
	}
	if len(tx.Reads) != 1 || len(tx.Writes) != 1 {
		t.Fatalf("rw sets %v %v", tx.Reads, tx.Writes)
	}
	if v, _ := tx.Writes.Get("x"); string(v) != "10" {
		t.Fatalf("write = %q", v)
	}
	// The sets are the transaction's own: endorsing another transaction
	// (which reuses the pooled executor scratch) must not rewrite them.
	if err := e.Endorse(addTx("u", "y", 5)); err != nil {
		t.Fatal(err)
	}
	if tx.Reads[0].Key != "x" || tx.Writes[0].Key != "x" || string(tx.Writes[0].Value) != "10" {
		t.Fatalf("rw sets changed by a later endorsement: %v %v", tx.Reads, tx.Writes)
	}
	// Endorsement must not change state.
	if store.GetInt("x") != 7 {
		t.Fatal("endorsement mutated state")
	}
}

func TestEndorseFailureFiltered(t *testing.T) {
	store := statedb.New()
	e := New(store, Options{}, 0, 0)
	bad := &types.Transaction{ID: "bad", Ops: []types.Op{{Code: types.OpTransfer, Key: "empty", Key2: "b", Delta: 10}}}
	good := addTx("good", "x", 1)
	out := e.EndorseAll([]*types.Transaction{bad, good})
	if len(out) != 1 || out[0].ID != "good" {
		t.Fatalf("EndorseAll kept %v", out)
	}
}

// TestEndorseAllConcurrentKeepsOwnSets endorses many transactions on
// parallel workers, each drawing a pooled executor scratch: every
// transaction must end with exactly its own read and write sets.
func TestEndorseAllConcurrentKeepsOwnSets(t *testing.T) {
	store := statedb.New()
	e := New(store, Options{}, 0, 4)
	var txs []*types.Transaction
	for i := 0; i < 64; i++ {
		txs = append(txs, addTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%02d", i), int64(i)))
	}
	if out := e.EndorseAll(txs); len(out) != len(txs) {
		t.Fatalf("endorsed %d of %d", len(out), len(txs))
	}
	for i, tx := range txs {
		key := fmt.Sprintf("k%02d", i)
		if len(tx.Reads) != 1 || tx.Reads[0].Key != key ||
			len(tx.Writes) != 1 || tx.Writes[0].Key != key || string(tx.Writes[0].Value) != fmt.Sprint(i) {
			t.Fatalf("tx %d rw sets %v %v", i, tx.Reads, tx.Writes)
		}
	}
}

func TestConflictingTxAbortsVanilla(t *testing.T) {
	// Two increments endorsed against the same snapshot: the second's
	// read is invalidated by the first's commit — vanilla Fabric loses it.
	store := statedb.New()
	seed(store, map[string]int64{"x": 0})
	e := New(store, Options{}, 0, 0)
	t1, t2 := addTx("t1", "x", 1), addTx("t2", "x", 1)
	if err := e.Endorse(t1); err != nil {
		t.Fatal(err)
	}
	if err := e.Endorse(t2); err != nil {
		t.Fatal(err)
	}
	st := e.CommitBlock(types.NewBlock(2, types.ZeroHash, 0, []*types.Transaction{t1, t2}))
	if st.Committed != 1 || st.Aborted != 1 {
		t.Fatalf("stats %+v", st)
	}
	if store.GetInt("x") != 1 {
		t.Fatalf("x = %d, want 1 (lost update must not happen)", store.GetInt("x"))
	}
}

func TestReorderSavesReadOnlyConflict(t *testing.T) {
	// writer then reader in agreed order: vanilla aborts the reader,
	// Fabric++ reordering commits both (reader first).
	run := func(opts Options) arch.Stats {
		store := statedb.New()
		seed(store, map[string]int64{"x": 5})
		e := New(store, opts, 0, 0)
		writer := addTx("w", "x", 1)
		reader := &types.Transaction{ID: "r", Ops: []types.Op{
			{Code: types.OpGet, Key: "x"},
			{Code: types.OpPut, Key: "out", Value: []byte("seen")},
		}}
		for _, tx := range []*types.Transaction{writer, reader} {
			if err := e.Endorse(tx); err != nil {
				t.Fatal(err)
			}
		}
		return e.CommitBlock(types.NewBlock(2, types.ZeroHash, 0, []*types.Transaction{writer, reader}))
	}
	vanilla := run(Options{})
	if vanilla.Aborted != 1 {
		t.Fatalf("vanilla stats %+v, want 1 abort", vanilla)
	}
	pp := run(Options{Reorder: arch.ReorderFabricPP})
	if pp.Aborted != 0 || pp.Committed != 2 {
		t.Fatalf("fabric++ stats %+v, want 2 commits", pp)
	}
}

func TestEarlyAbortDropsStaleEndorsements(t *testing.T) {
	store := statedb.New()
	seed(store, map[string]int64{"x": 0})
	e := New(store, Options{EarlyAbort: true}, 0, 0)
	tx := addTx("t", "x", 1)
	if err := e.Endorse(tx); err != nil {
		t.Fatal(err)
	}
	// State moves on before the block commits (pipelined endorsement).
	store.ApplyList(types.Version{Block: 5, Tx: 0}, types.WriteList{{Key: "x", Value: statedb.EncodeInt(99)}})
	st := e.CommitBlock(types.NewBlock(6, types.ZeroHash, 0, []*types.Transaction{tx}))
	if st.Aborted != 1 || st.Committed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestXOXReexecutesAborts(t *testing.T) {
	store := statedb.New()
	seed(store, map[string]int64{"x": 0})
	e := New(store, Options{PostOrderExecution: true}, 0, 0)
	t1, t2 := addTx("t1", "x", 1), addTx("t2", "x", 1)
	if err := e.Endorse(t1); err != nil {
		t.Fatal(err)
	}
	if err := e.Endorse(t2); err != nil {
		t.Fatal(err)
	}
	st := e.CommitBlock(types.NewBlock(2, types.ZeroHash, 0, []*types.Transaction{t1, t2}))
	if st.Committed != 2 || st.Aborted != 0 || st.Reexecuted != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Both increments must land: no lost update, no double-apply.
	if store.GetInt("x") != 2 {
		t.Fatalf("x = %d, want 2", store.GetInt("x"))
	}
}

func TestParallelValidationMatchesSerial(t *testing.T) {
	mkBlock := func(e *Engine) *types.Block {
		var txs []*types.Transaction
		for i := 0; i < 40; i++ {
			// Half contended on "hot", half independent.
			key := fmt.Sprintf("cold%d", i)
			if i%2 == 0 {
				key = "hot"
			}
			tx := addTx(fmt.Sprintf("t%d", i), key, 1)
			if err := e.Endorse(tx); err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
		}
		return types.NewBlock(2, types.ZeroHash, 0, txs)
	}
	serialStore := statedb.New()
	serial := New(serialStore, Options{}, 0, 0)
	sStats := serial.CommitBlock(mkBlock(serial))

	parStore := statedb.New()
	par := New(parStore, Options{ParallelValidation: true}, 0, 8)
	pStats := par.CommitBlock(mkBlock(par))

	if sStats.Committed != pStats.Committed || sStats.Aborted != pStats.Aborted {
		t.Fatalf("serial %+v != parallel %+v", sStats, pStats)
	}
	if serialStore.StateHash() != parStore.StateHash() {
		t.Fatal("FastFabric validation diverged from serial validation")
	}
}

func TestConflictFreeWorkloadAllCommits(t *testing.T) {
	store := statedb.New()
	e := New(store, Options{ParallelValidation: true}, 0, 8)
	var txs []*types.Transaction
	for i := 0; i < 100; i++ {
		tx := addTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i), 1)
		if err := e.Endorse(tx); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	st := e.CommitBlock(types.NewBlock(2, types.ZeroHash, 0, txs))
	if st.Committed != 100 || st.Aborted != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCommitEmptyBlock(t *testing.T) {
	e := New(statedb.New(), Options{}, 0, 0)
	st := e.CommitBlock(types.NewBlock(2, types.ZeroHash, 0, nil))
	if st.Total() != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAllOptionsCombined(t *testing.T) {
	// FastFabric + FabricSharp reordering + early abort + XOX together:
	// the options must compose without losing or double-applying work.
	store := statedb.New()
	e := New(store, Options{
		ParallelValidation: true,
		Reorder:            arch.ReorderSharp,
		EarlyAbort:         true,
		PostOrderExecution: true,
	}, 0, 8)
	var txs []*types.Transaction
	for i := 0; i < 60; i++ {
		key := "hot"
		if i%3 == 0 {
			key = fmt.Sprintf("cold%d", i)
		}
		tx := addTx(fmt.Sprintf("t%d", i), key, 1)
		if err := e.Endorse(tx); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	st := e.CommitBlock(types.NewBlock(2, types.ZeroHash, 0, txs))
	if st.Committed+st.Failed != 60 {
		t.Fatalf("accounted %d/60: %+v", st.Committed+st.Failed, st)
	}
	// With XOX, nothing stays aborted; total increments must be exact.
	if st.Aborted != 0 {
		t.Fatalf("stats %+v: XOX left aborts", st)
	}
	total := store.GetInt("hot")
	for i := 0; i < 60; i += 3 {
		total += store.GetInt(fmt.Sprintf("cold%d", i))
	}
	if total != 60 {
		t.Fatalf("total increments = %d, want 60 (no lost or doubled updates)", total)
	}
}
