package pdc

import (
	"errors"
	"strings"
	"testing"

	"permchain/internal/types"
)

func putTx(id, key, val string) *types.Transaction {
	return &types.Transaction{ID: id, Ops: []types.Op{{Code: types.OpPut, Key: key, Value: []byte(val)}}}
}

func TestPublicVisibleToAllMembers(t *testing.T) {
	ch := NewChannel([]types.EnterpriseID{1, 2, 3})
	if err := ch.SubmitPublic(putTx("t1", "k", "v")); err != nil {
		t.Fatal(err)
	}
	for _, m := range []types.EnterpriseID{1, 2, 3} {
		st, err := ch.PublicState(m)
		if err != nil {
			t.Fatal(err)
		}
		if v, _, ok := st.Get("k"); !ok || string(v) != "v" {
			t.Fatalf("member %v missing public data", m)
		}
	}
	if ch.Chain().TxCount() != 1 {
		t.Fatal("ledger entry missing")
	}
}

func TestPrivateDataOnlyOnAuthorizedPeers(t *testing.T) {
	ch := NewChannel([]types.EnterpriseID{1, 2, 3})
	if _, err := ch.DefineCollection("deal", []types.EnterpriseID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ch.SubmitPrivate("deal", 1, putTx("p1", "price", "9.99")); err != nil {
		t.Fatal(err)
	}
	// Authorized members hold the plaintext.
	for _, m := range []types.EnterpriseID{1, 2} {
		st, err := ch.PrivateState("deal", m)
		if err != nil {
			t.Fatal(err)
		}
		if v, _, ok := st.Get("price"); !ok || string(v) != "9.99" {
			t.Fatalf("authorized member %v missing private data", m)
		}
	}
	// Enterprise 3 has no private store at all.
	if _, err := ch.PrivateState("deal", 3); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("err = %v", err)
	}
	// But its ledger carries the hash evidence — and only the hash.
	st3, _ := ch.PublicState(3)
	if _, _, ok := st3.Get("pdc/deal/p1"); !ok {
		t.Fatal("hash evidence missing from unauthorized member")
	}
	// The plaintext must appear nowhere in member 3's world.
	for _, k := range st3.Keys() {
		v, _, _ := st3.Get(k)
		if strings.Contains(string(v), "9.99") {
			t.Fatal("private value leaked to unauthorized member")
		}
	}
	// Ledger transactions are hash-only too.
	blk, err := ch.Chain().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range blk.Txs {
		if !tx.Private {
			t.Fatal("evidence tx not marked private")
		}
		for _, op := range tx.Ops {
			if strings.Contains(string(op.Value), "9.99") {
				t.Fatal("plaintext in ledger")
			}
		}
	}
}

func TestEvidenceVerification(t *testing.T) {
	ch := NewChannel([]types.EnterpriseID{1, 2})
	if _, err := ch.DefineCollection("c", []types.EnterpriseID{1}); err != nil {
		t.Fatal(err)
	}
	if err := ch.SubmitPrivate("c", 1, putTx("p1", "secret", "42")); err != nil {
		t.Fatal(err)
	}
	salt, err := ch.Salt("c", "p1", 1)
	if err != nil {
		t.Fatal(err)
	}
	writes := types.WriteList{{Key: "secret", Value: []byte("42")}}
	if !ch.VerifyEvidence("c", "p1", salt, writes) {
		t.Fatal("honest evidence rejected")
	}
	// A lying discloser is caught.
	if ch.VerifyEvidence("c", "p1", salt, types.WriteList{{Key: "secret", Value: []byte("43")}}) {
		t.Fatal("false disclosure accepted")
	}
	if ch.VerifyEvidence("c", "p1", []byte("wrong salt"), writes) {
		t.Fatal("wrong salt accepted")
	}
	if ch.VerifyEvidence("c", "ghost", salt, writes) {
		t.Fatal("missing tx verified")
	}
	// Salt is only available to authorized members.
	if _, err := ch.Salt("c", "p1", 2); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("err = %v", err)
	}
}

func TestSaltedHashesDiffer(t *testing.T) {
	// Same write set twice → different hashes on the ledger, or a
	// dictionary attack on low-entropy values would succeed.
	ch := NewChannel([]types.EnterpriseID{1})
	if _, err := ch.DefineCollection("c", []types.EnterpriseID{1}); err != nil {
		t.Fatal(err)
	}
	if err := ch.SubmitPrivate("c", 1, putTx("p1", "vote", "yes")); err != nil {
		t.Fatal(err)
	}
	if err := ch.SubmitPrivate("c", 1, putTx("p2", "vote", "yes")); err != nil {
		t.Fatal(err)
	}
	st, _ := ch.PublicState(1)
	h1, _, _ := st.Get("pdc/c/p1")
	h2, _, _ := st.Get("pdc/c/p2")
	if string(h1) == string(h2) {
		t.Fatal("identical hashes for identical plaintexts: salting broken")
	}
}

func TestMultipleCollectionsIndependent(t *testing.T) {
	ch := NewChannel([]types.EnterpriseID{1, 2, 3})
	if _, err := ch.DefineCollection("ab", []types.EnterpriseID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.DefineCollection("bc", []types.EnterpriseID{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ch.SubmitPrivate("ab", 1, putTx("x", "k", "ab-data")); err != nil {
		t.Fatal(err)
	}
	if err := ch.SubmitPrivate("bc", 3, putTx("y", "k", "bc-data")); err != nil {
		t.Fatal(err)
	}
	// Enterprise 2 is in both and sees both; 1 and 3 see only theirs.
	st2ab, _ := ch.PrivateState("ab", 2)
	st2bc, _ := ch.PrivateState("bc", 2)
	if v, _, _ := st2ab.Get("k"); string(v) != "ab-data" {
		t.Fatal("e2 missing ab data")
	}
	if v, _, _ := st2bc.Get("k"); string(v) != "bc-data" {
		t.Fatal("e2 missing bc data")
	}
	if _, err := ch.PrivateState("bc", 1); !errors.Is(err, ErrNotAuthorized) {
		t.Fatal("e1 authorized for bc")
	}
}

func TestPolicyAndErrorPaths(t *testing.T) {
	ch := NewChannel([]types.EnterpriseID{1, 2})
	if _, err := ch.DefineCollection("c", []types.EnterpriseID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.DefineCollection("c", nil); !errors.Is(err, ErrDupCollection) {
		t.Fatalf("err = %v", err)
	}
	// Non-channel member in the policy.
	if _, err := ch.DefineCollection("bad", []types.EnterpriseID{9}); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("err = %v", err)
	}
	if err := ch.SubmitPrivate("ghost", 1, putTx("t", "k", "v")); !errors.Is(err, ErrNoCollection) {
		t.Fatalf("err = %v", err)
	}
	if err := ch.SubmitPrivate("c", 2, putTx("t", "k", "v")); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("err = %v", err)
	}
	if err := ch.SubmitPrivate("c", 9, putTx("t", "k", "v")); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ch.PublicState(9); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ch.Salt("ghost", "t", 1); !errors.Is(err, ErrNoCollection) {
		t.Fatalf("err = %v", err)
	}
	col, _ := ch.DefineCollection("c2", []types.EnterpriseID{1})
	if !col.Authorized(1) || col.Authorized(2) {
		t.Fatal("Authorized wrong")
	}
}

func TestLedgerIntegrityWithMixedTraffic(t *testing.T) {
	ch := NewChannel([]types.EnterpriseID{1, 2})
	if _, err := ch.DefineCollection("c", []types.EnterpriseID{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ch.SubmitPublic(putTx("pub", "k", "v")); err != nil {
			t.Fatal(err)
		}
		if err := ch.SubmitPrivate("c", 1, putTx("priv", "s", "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
	if ch.Chain().TxCount() != 10 {
		t.Fatalf("tx count %d", ch.Chain().TxCount())
	}
}
