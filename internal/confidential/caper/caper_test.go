package caper

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"permchain/internal/types"
)

func internalTx(id string, e types.EnterpriseID, key string, delta int64) *types.Transaction {
	return &types.Transaction{
		ID: id, Kind: types.TxInternal, Enterprise: e,
		Ops: []types.Op{{Code: types.OpAdd, Key: fmt.Sprintf("e%d/%s", e, key), Delta: delta}},
	}
}

func crossTx(id string, key string, delta int64) *types.Transaction {
	return &types.Transaction{
		ID: id, Kind: types.TxCross,
		Ops: []types.Op{{Code: types.OpAdd, Key: "shared/" + key, Delta: delta}},
	}
}

func newNet(t *testing.T, ents int, mode Mode) *Network {
	t.Helper()
	n, err := NewNetwork(Config{Enterprises: ents, Mode: mode, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestInternalStaysPrivate(t *testing.T) {
	n := newNet(t, 3, OrderingService)
	if err := n.SubmitInternal(1, internalTx("a", 1, "recipe", 5)); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitInternal(2, internalTx("b", 2, "process", 7)); err != nil {
		t.Fatal(err)
	}
	// Enterprise 1 sees its own transaction...
	if n.Enterprise(1).View().Len() != 1 {
		t.Fatal("e1 view missing own internal tx")
	}
	// ...but never enterprise 2's, and vice versa.
	for _, v := range n.Enterprise(1).View().Topo() {
		if v.Tx.Enterprise == 2 {
			t.Fatal("e2 internal tx leaked into e1's view")
		}
	}
	// The state is private too: e1's store has no e2 keys.
	for _, k := range n.Enterprise(1).Store().Keys() {
		if strings.HasPrefix(k, "e2/") {
			t.Fatalf("e2 key %q leaked into e1's store", k)
		}
	}
	if n.Enterprise(1).Store().GetInt("e1/recipe") != 5 {
		t.Fatal("internal execution missing")
	}
}

func TestCrossVisibleToAll(t *testing.T) {
	n := newNet(t, 3, OrderingService)
	if err := n.SubmitCross(crossTx("x1", "total", 10)); err != nil {
		t.Fatal(err)
	}
	if !n.AwaitCrossCount(1, 10*time.Second) {
		t.Fatal("cross tx never applied")
	}
	for _, id := range n.EnterpriseIDs() {
		e := n.Enterprise(id)
		if e.Store().GetInt("shared/total") != 10 {
			t.Fatalf("%v shared state = %d", id, e.Store().GetInt("shared/total"))
		}
		if e.View().Len() != 1 {
			t.Fatalf("%v view has %d vertices", id, e.View().Len())
		}
	}
}

func TestCrossSubsequenceConsistent(t *testing.T) {
	n := newNet(t, 4, Flattened)
	const k = 8
	for i := 0; i < k; i++ {
		if err := n.SubmitCross(crossTx(fmt.Sprintf("x%d", i), "ctr", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if !n.AwaitCrossCount(k, 15*time.Second) {
		t.Fatal("cross txs never all applied")
	}
	ref := n.CrossSubsequence(1)
	if len(ref) != k {
		t.Fatalf("e1 sees %d cross txs", len(ref))
	}
	for _, id := range n.EnterpriseIDs() {
		got := n.CrossSubsequence(id)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%v cross subsequence %v != %v", id, got, ref)
		}
		if n.Enterprise(id).Store().GetInt("shared/ctr") != k {
			t.Fatalf("%v shared ctr = %d", id, n.Enterprise(id).Store().GetInt("shared/ctr"))
		}
	}
}

func TestDAGStructure(t *testing.T) {
	n := newNet(t, 2, OrderingService)
	if err := n.SubmitInternal(1, internalTx("i1", 1, "k", 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitCross(crossTx("c1", "s", 1)); err != nil {
		t.Fatal(err)
	}
	if !n.AwaitCrossCount(1, 10*time.Second) {
		t.Fatal("cross not applied")
	}
	if err := n.SubmitInternal(1, internalTx("i2", 1, "k", 1)); err != nil {
		t.Fatal(err)
	}
	dag := n.Enterprise(1).View()
	if dag.Len() != 3 {
		t.Fatalf("view size %d", dag.Len())
	}
	if err := dag.Verify(); err != nil {
		t.Fatal(err)
	}
	// i2 must causally follow both i1 and c1 in e1's view.
	topo := dag.Topo()
	last := topo[len(topo)-1]
	if last.Tx.ID != "i2" {
		t.Fatalf("last vertex %s", last.Tx.ID)
	}
	if len(last.Parents) == 0 {
		t.Fatal("i2 has no parents")
	}
}

func TestRejectsMisroutedTransactions(t *testing.T) {
	n := newNet(t, 2, OrderingService)
	// Internal tx touching shared keys must be rejected.
	bad := &types.Transaction{ID: "bad", Kind: types.TxInternal,
		Ops: []types.Op{{Code: types.OpAdd, Key: "shared/x", Delta: 1}}}
	if err := n.SubmitInternal(1, bad); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("err = %v", err)
	}
	// Internal tx touching another enterprise's keys must be rejected.
	bad2 := &types.Transaction{ID: "bad2", Kind: types.TxInternal,
		Ops: []types.Op{{Code: types.OpAdd, Key: "e2/secret", Delta: 1}}}
	if err := n.SubmitInternal(1, bad2); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("err = %v", err)
	}
	// Cross tx touching private keys must be rejected.
	bad3 := &types.Transaction{ID: "bad3", Kind: types.TxCross,
		Ops: []types.Op{{Code: types.OpAdd, Key: "e1/secret", Delta: 1}}}
	if err := n.SubmitCross(bad3); !errors.Is(err, ErrPrivateKey) {
		t.Fatalf("err = %v", err)
	}
	// Kind mismatches.
	if err := n.SubmitInternal(1, crossTx("c", "s", 1)); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("err = %v", err)
	}
	if err := n.SubmitCross(internalTx("i", 1, "k", 1)); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("err = %v", err)
	}
	if err := n.SubmitInternal(9, internalTx("i", 9, "k", 1)); !errors.Is(err, ErrUnknownEnterprise) {
		t.Fatalf("err = %v", err)
	}
}

func TestViewSizeExcludesOthersInternal(t *testing.T) {
	n := newNet(t, 2, OrderingService)
	for i := 0; i < 10; i++ {
		if err := n.SubmitInternal(2, internalTx(fmt.Sprintf("b%d", i), 2, "k", 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Enterprise 1 stores nothing from e2's busy internal life.
	if got := n.ViewSize(1); got != 0 {
		t.Fatalf("e1 view size %d, want 0", got)
	}
	if got := n.ViewSize(2); got == 0 {
		t.Fatal("e2 view size 0")
	}
}

func TestBothModesWork(t *testing.T) {
	for _, mode := range []Mode{OrderingService, Flattened, Hierarchical} {
		n := newNet(t, 4, mode)
		if err := n.SubmitCross(crossTx("x", "k", 3)); err != nil {
			t.Fatal(err)
		}
		if !n.AwaitCrossCount(1, 10*time.Second) {
			t.Fatalf("mode %v: cross tx not applied", mode)
		}
		n.Close()
	}
}

func TestHierarchicalMode(t *testing.T) {
	n := newNet(t, 3, Hierarchical)
	if n.Mode() != Hierarchical {
		t.Fatal("mode accessor")
	}
	// Internal txns still work.
	if err := n.SubmitInternal(2, internalTx("i1", 2, "k", 5)); err != nil {
		t.Fatal(err)
	}
	// Cross tx pre-orders at the initiator's cluster, then globally.
	tx := crossTx("hx1", "total", 7)
	tx.Enterprise = 2
	before := n.Enterprise(2).OrderedCount()
	if err := n.SubmitCross(tx); err != nil {
		t.Fatal(err)
	}
	if !n.AwaitCrossCount(1, 20*time.Second) {
		t.Fatal("cross tx never applied")
	}
	// The initiator's own cluster ordered the pre-round.
	if n.Enterprise(2).OrderedCount() <= before {
		t.Fatal("hierarchical pre-order round missing")
	}
	for _, id := range n.EnterpriseIDs() {
		if n.Enterprise(id).Store().GetInt("shared/total") != 7 {
			t.Fatalf("%v shared state wrong", id)
		}
	}
}

func TestInternalTxUsesOwnCluster(t *testing.T) {
	n := newNet(t, 2, OrderingService)
	before1 := n.Enterprise(1).OrderedCount()
	before2 := n.Enterprise(2).OrderedCount()
	if err := n.SubmitInternal(1, internalTx("i1", 1, "k", 1)); err != nil {
		t.Fatal(err)
	}
	if n.Enterprise(1).OrderedCount() != before1+1 {
		t.Fatal("e1's cluster did not order its internal tx")
	}
	// e2's cluster never participates in e1's internal consensus.
	if n.Enterprise(2).OrderedCount() != before2 {
		t.Fatal("e2's cluster ordered e1's internal tx")
	}
}
