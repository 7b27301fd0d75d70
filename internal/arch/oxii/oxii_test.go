package oxii

import (
	"fmt"
	"math/rand"
	"testing"

	"permchain/internal/arch/ox"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

func addTx(id, key string, delta int64) *types.Transaction {
	return &types.Transaction{ID: id, Ops: []types.Op{{Code: types.OpAdd, Key: key, Delta: delta}}}
}

func transferTx(id, from, to string, amt int64) *types.Transaction {
	return &types.Transaction{ID: id, Ops: []types.Op{{Code: types.OpTransfer, Key: from, Key2: to, Delta: amt}}}
}

func TestParallelExecutionMatchesSerial(t *testing.T) {
	// The core OXII correctness property: executing a block along its
	// dependency graph produces exactly the state sequential execution
	// produces, for any mix of conflicting and independent transactions.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		var txs []*types.Transaction
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(8)) // heavy contention
			txs = append(txs, addTx(fmt.Sprintf("t%d", i), key, int64(rng.Intn(10))))
		}
		block := types.NewBlock(1, types.ZeroHash, 0, txs)

		serialStore := statedb.New()
		serial := ox.New(serialStore, 0)
		sStats := serial.ExecuteBlock(block)

		parStore := statedb.New()
		par := New(parStore, 0, 8)
		pStats := par.ExecuteBlock(block)

		if sStats.Committed != pStats.Committed || sStats.Failed != pStats.Failed {
			t.Fatalf("trial %d: stats differ serial=%+v parallel=%+v", trial, sStats, pStats)
		}
		if serialStore.StateHash() != parStore.StateHash() {
			t.Fatalf("trial %d: state diverged between serial and parallel execution", trial)
		}
	}
}

func TestTransfersConserveUnderParallelism(t *testing.T) {
	store := statedb.New()
	for i := 0; i < 8; i++ {
		store.ApplyList(types.Version{Block: 1, Tx: i}, types.WriteList{
			{Key: fmt.Sprintf("acct%d", i), Value: statedb.EncodeInt(1000)},
		})
	}
	rng := rand.New(rand.NewSource(5))
	var txs []*types.Transaction
	for i := 0; i < 200; i++ {
		a := rng.Intn(8)
		b := (a + 1 + rng.Intn(7)) % 8
		txs = append(txs, transferTx(fmt.Sprintf("t%d", i),
			fmt.Sprintf("acct%d", a), fmt.Sprintf("acct%d", b), int64(rng.Intn(50))))
	}
	block := types.NewBlock(2, types.ZeroHash, 0, txs)
	e := New(store, 0, 8)
	st := e.ExecuteBlock(block)
	if st.Committed+st.Failed != 200 {
		t.Fatalf("accounted %d/200", st.Committed+st.Failed)
	}
	total := int64(0)
	for i := 0; i < 8; i++ {
		n := store.GetInt(fmt.Sprintf("acct%d", i))
		if n < 0 {
			t.Fatalf("negative balance acct%d = %d", i, n)
		}
		total += n
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000 (conservation)", total)
	}
}

func TestNoConflictsFullyParallel(t *testing.T) {
	store := statedb.New()
	var txs []*types.Transaction
	for i := 0; i < 50; i++ {
		txs = append(txs, addTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i), 1))
	}
	block := types.NewBlock(1, types.ZeroHash, 0, txs)
	st := New(store, 0, 8).ExecuteBlock(block)
	if st.Committed != 50 {
		t.Fatalf("committed %d/50", st.Committed)
	}
	for i := 0; i < 50; i++ {
		if store.GetInt(fmt.Sprintf("k%d", i)) != 1 {
			t.Fatalf("k%d not written", i)
		}
	}
}

func TestEmptyBlock(t *testing.T) {
	st := New(statedb.New(), 0, 4).ExecuteBlock(types.NewBlock(1, types.ZeroHash, 0, nil))
	if st.Total() != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFailedTxReleasesDependents(t *testing.T) {
	store := statedb.New()
	// tx0 fails (insufficient funds); tx1 depends on the same key and
	// must still execute.
	txs := []*types.Transaction{
		transferTx("t0", "poor", "rich", 100),
		addTx("t1", "poor", 5),
	}
	block := types.NewBlock(1, types.ZeroHash, 0, txs)
	st := New(store, 0, 2).ExecuteBlock(block)
	if st.Failed != 1 || st.Committed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if store.GetInt("poor") != 5 {
		t.Fatalf("poor = %d", store.GetInt("poor"))
	}
}
