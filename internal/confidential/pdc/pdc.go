// Package pdc implements Hyperledger Fabric's private data collections
// (§2.3.1), the cryptographic confidentiality technique the tutorial
// contrasts with view-based ones: a subset of a channel's enterprises
// keeps confidential data in a private database replicated only on their
// own peers, while a salted hash of the private write set goes on the
// channel ledger of *every* member — evidence of the transaction that
// supports validation without disclosure.
package pdc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"permchain/internal/ledger"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

// Collection is one private data collection: a policy (who is
// authorized) plus the authorized members' private databases.
type Collection struct {
	Name       string
	authorized map[types.EnterpriseID]bool
	private    map[types.EnterpriseID]*statedb.Store
	salts      map[string][]byte // txID → salt (held by authorized peers)
}

// Authorized reports whether member may read the collection.
func (c *Collection) Authorized(member types.EnterpriseID) bool {
	return c.authorized[member]
}

// Channel is a single Fabric channel with private data collections. The
// shared chain is replicated on every member; private stores only on
// authorized subsets.
type Channel struct {
	mu          sync.Mutex
	members     map[types.EnterpriseID]bool
	chain       *ledger.Chain
	public      map[types.EnterpriseID]*statedb.Store
	collections map[string]*Collection
	height      uint64
}

// PDC errors.
var (
	ErrNotMember     = errors.New("pdc: not a channel member")
	ErrNoCollection  = errors.New("pdc: unknown collection")
	ErrDupCollection = errors.New("pdc: collection already exists")
	ErrNotAuthorized = errors.New("pdc: enterprise not authorized for collection")
	ErrBadPolicy     = errors.New("pdc: collection members must belong to the channel")
)

// NewChannel creates a channel with the given members.
func NewChannel(members []types.EnterpriseID) *Channel {
	ch := &Channel{
		members:     map[types.EnterpriseID]bool{},
		chain:       ledger.NewChain(),
		public:      map[types.EnterpriseID]*statedb.Store{},
		collections: map[string]*Collection{},
	}
	for _, m := range members {
		ch.members[m] = true
		ch.public[m] = statedb.New()
	}
	return ch
}

// DefineCollection creates a private data collection over a subset of the
// channel's members.
func (ch *Channel) DefineCollection(name string, authorized []types.EnterpriseID) (*Collection, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if _, ok := ch.collections[name]; ok {
		return nil, ErrDupCollection
	}
	col := &Collection{
		Name:       name,
		authorized: map[types.EnterpriseID]bool{},
		private:    map[types.EnterpriseID]*statedb.Store{},
		salts:      map[string][]byte{},
	}
	for _, m := range authorized {
		if !ch.members[m] {
			return nil, fmt.Errorf("%w: %v", ErrBadPolicy, m)
		}
		col.authorized[m] = true
		col.private[m] = statedb.New()
	}
	ch.collections[name] = col
	return col, nil
}

// SubmitPublic executes a regular transaction on every member's public
// state and appends it to the shared ledger.
func (ch *Channel) SubmitPublic(tx *types.Transaction) error {
	sc := statedb.GetScratch()
	defer statedb.PutScratch(sc)
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.height++
	for _, st := range ch.public {
		st.ExecuteList(types.Version{Block: ch.height}, tx.Ops, sc)
	}
	return ch.appendLocked(tx)
}

// hashKey is where a private transaction's evidence lands on the ledger.
func hashKey(collection, txID string) string {
	return fmt.Sprintf("pdc/%s/%s", collection, txID)
}

// PrivateDataHash computes the salted hash of a private write set:
// H(salt ‖ key/value pairs in list order). The salt blocks dictionary
// attacks on low-entropy values, as in Fabric. Executors return write
// lists sorted by key, so the digest is over sorted pairs; a list in any
// other order digests differently and fails VerifyEvidence.
func PrivateDataHash(salt []byte, writes types.WriteList) types.Hash {
	parts := [][]byte{salt}
	for _, w := range writes {
		parts = append(parts, []byte(w.Key), w.Value)
	}
	return types.HashConcat(parts...)
}

// SubmitPrivate executes tx against the collection's private state on
// the authorized peers (submitting as `member`) and appends only the
// salted hash of the write set to the shared ledger. Unauthorized members
// receive the hash and nothing else.
func (ch *Channel) SubmitPrivate(collection string, member types.EnterpriseID, tx *types.Transaction) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	col, ok := ch.collections[collection]
	if !ok {
		return ErrNoCollection
	}
	if !ch.members[member] {
		return ErrNotMember
	}
	if !col.authorized[member] {
		return ErrNotAuthorized
	}
	// Simulate on the submitting member's private store.
	sc := statedb.GetScratch()
	defer statedb.PutScratch(sc)
	_, writes, err := statedb.SimulateList(col.private[member], tx.Ops, sc)
	if err != nil {
		return err
	}
	salt := make([]byte, 16)
	if _, err := rand.Read(salt); err != nil {
		return err
	}
	h := PrivateDataHash(salt, writes)

	ch.height++
	// Authorized peers store the actual private data (and the salt, for
	// later audits); everyone else gets only the hash via the ledger tx.
	for m := range col.authorized {
		col.private[m].ApplyList(types.Version{Block: ch.height}, writes)
	}
	col.salts[tx.ID] = salt

	evidence := &types.Transaction{
		ID:      tx.ID,
		Kind:    tx.Kind,
		Private: true,
		Ops: []types.Op{{
			Code: types.OpPut, Key: hashKey(collection, tx.ID), Value: h[:],
		}},
	}
	// writes (which alias sc) are applied above, so sc is free for reuse.
	for _, st := range ch.public {
		st.ExecuteList(types.Version{Block: ch.height}, evidence.Ops, sc)
	}
	return ch.appendLocked(evidence)
}

func (ch *Channel) appendLocked(tx *types.Transaction) error {
	blk := types.NewBlock(ch.chain.Height()+1, ch.chain.Head().Hash(), 0, []*types.Transaction{tx})
	return ch.chain.Append(blk)
}

// PrivateState returns member's replica of the collection's private
// database. Unauthorized members have none.
func (ch *Channel) PrivateState(collection string, member types.EnterpriseID) (*statedb.Store, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	col, ok := ch.collections[collection]
	if !ok {
		return nil, ErrNoCollection
	}
	st, ok := col.private[member]
	if !ok {
		return nil, ErrNotAuthorized
	}
	return st, nil
}

// PublicState returns member's public world state.
func (ch *Channel) PublicState(member types.EnterpriseID) (*statedb.Store, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	st, ok := ch.public[member]
	if !ok {
		return nil, ErrNotMember
	}
	return st, nil
}

// Chain returns the shared ledger (identical on every member).
func (ch *Channel) Chain() *ledger.Chain { return ch.chain }

// VerifyEvidence lets any member check that an authorized member's
// claimed private write set matches the on-ledger hash — the state
// validation the tutorial describes. The authorized member supplies the
// salt and writes; the verifier needs only the ledger.
func (ch *Channel) VerifyEvidence(collection, txID string, salt []byte, writes types.WriteList) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	// Any member's public state holds the hash; take the first.
	for _, st := range ch.public {
		v, _, ok := st.Get(hashKey(collection, txID))
		if !ok {
			return false
		}
		h := PrivateDataHash(salt, writes)
		return string(v) == string(h[:])
	}
	return false
}

// Salt exposes the stored salt for txID to authorized members.
func (ch *Channel) Salt(collection, txID string, member types.EnterpriseID) ([]byte, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	col, ok := ch.collections[collection]
	if !ok {
		return nil, ErrNoCollection
	}
	if !col.authorized[member] {
		return nil, ErrNotAuthorized
	}
	return col.salts[txID], nil
}
