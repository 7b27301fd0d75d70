// Package ledger implements the two ledger data structures of the
// tutorial: the classic append-only hash-chained block ledger every
// participant replicates (§2.2, Figure 1), and the directed acyclic graph
// ledger of Caper (§2.3.1), of which each enterprise maintains only its
// own view.
package ledger

import (
	"errors"
	"fmt"
	"sync"

	"permchain/internal/crypto"
	"permchain/internal/types"
)

// Chain is an append-only hash-chained block ledger. The genesis block is
// created at height 0 with no transactions; application blocks start at
// height 1. Chain is safe for concurrent use.
type Chain struct {
	mu     sync.RWMutex
	blocks []*types.Block
	byHash map[types.Hash]uint64
}

// Chain append errors.
var (
	ErrBadHeight   = errors.New("ledger: block height is not head+1")
	ErrBadPrevHash = errors.New("ledger: block does not chain to head")
	ErrBadTxRoot   = errors.New("ledger: tx merkle root does not match body")
)

// NewChain creates a ledger holding only the genesis block.
func NewChain() *Chain {
	genesis := types.NewBlock(0, types.ZeroHash, -1, nil)
	c := &Chain{byHash: map[types.Hash]uint64{}}
	c.blocks = append(c.blocks, genesis)
	c.byHash[genesis.Hash()] = 0
	return c
}

// NewChainFromBlocks rebuilds a chain from application blocks (heights
// 1..n, genesis excluded), validating every link as it goes. This is the
// disk loader's entry point: blocks decoded from the block log must pass
// exactly the checks a live Append would have run, so a corrupted or
// reordered log is rejected with a positional error instead of producing
// a ledger Verify would later fail.
func NewChainFromBlocks(blocks []*types.Block) (*Chain, error) {
	c := NewChain()
	for i, b := range blocks {
		if err := c.Append(b); err != nil {
			return nil, fmt.Errorf("ledger: loading block %d (height %d): %w", i, b.Header.Height, err)
		}
	}
	return c, nil
}

// Blocks returns a copy of the chain's block slice, genesis included.
// Blocks themselves are immutable and shared.
func (c *Chain) Blocks() []*types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*types.Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// Append validates that b extends the head and appends it.
func (c *Chain) Append(b *types.Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.blocks[len(c.blocks)-1]
	if b.Header.Height != head.Header.Height+1 {
		return fmt.Errorf("%w: got %d, head %d", ErrBadHeight, b.Header.Height, head.Header.Height)
	}
	if b.Header.PrevHash != head.Hash() {
		return ErrBadPrevHash
	}
	if b.Header.TxRoot != types.TxMerkleRoot(b.Txs) {
		return ErrBadTxRoot
	}
	c.blocks = append(c.blocks, b)
	c.byHash[b.Hash()] = b.Header.Height
	return nil
}

// Head returns the newest block.
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// Height returns the head's height.
func (c *Chain) Height() uint64 { return c.Head().Header.Height }

// Get returns the block at the given height.
func (c *Chain) Get(height uint64) (*types.Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if height >= uint64(len(c.blocks)) {
		return nil, fmt.Errorf("ledger: height %d beyond head %d", height, len(c.blocks)-1)
	}
	return c.blocks[height], nil
}

// GetByHash returns the block with the given header hash.
func (c *Chain) GetByHash(h types.Hash) (*types.Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	height, ok := c.byHash[h]
	if !ok {
		return nil, false
	}
	return c.blocks[height], true
}

// Len returns the number of blocks including genesis.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}

// TxCount returns the total number of transactions on the chain.
func (c *Chain) TxCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, b := range c.blocks {
		n += len(b.Txs)
	}
	return n
}

// Verify walks the whole chain, re-checking hashes, heights, and Merkle
// roots. It returns the first inconsistency found.
func (c *Chain) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, b := range c.blocks {
		if b.Header.Height != uint64(i) {
			return fmt.Errorf("ledger: block %d has height %d", i, b.Header.Height)
		}
		if i == 0 {
			if !b.Header.PrevHash.IsZero() {
				return errors.New("ledger: genesis has a parent")
			}
		} else if b.Header.PrevHash != c.blocks[i-1].Hash() {
			return fmt.Errorf("ledger: block %d does not chain to block %d", i, i-1)
		}
		if b.Header.TxRoot != types.TxMerkleRoot(b.Txs) {
			return fmt.Errorf("ledger: block %d merkle root mismatch", i)
		}
	}
	return nil
}

// TxProof produces a Merkle inclusion proof for the transaction at the
// given height and index: a light client holding only the block header
// can verify a transaction is on the chain without the block body — the
// provenance/authenticity property §1 attributes to blockchains.
func (c *Chain) TxProof(height uint64, txIndex int) (*TxInclusionProof, error) {
	b, err := c.Get(height)
	if err != nil {
		return nil, err
	}
	if txIndex < 0 || txIndex >= len(b.Txs) {
		return nil, fmt.Errorf("ledger: tx index %d out of range (block has %d)", txIndex, len(b.Txs))
	}
	leaves := make([]types.Hash, len(b.Txs))
	for i, tx := range b.Txs {
		leaves[i] = tx.Hash()
	}
	tree, err := crypto.NewMerkleTreeFromHashes(leaves)
	if err != nil {
		return nil, err
	}
	steps, err := tree.Proof(txIndex)
	if err != nil {
		return nil, err
	}
	return &TxInclusionProof{
		Height: height,
		TxHash: b.Txs[txIndex].Hash(),
		Steps:  steps,
		Header: b.Header,
	}, nil
}

// TxInclusionProof proves one transaction is included in one block.
type TxInclusionProof struct {
	Height uint64
	TxHash types.Hash
	Steps  []crypto.ProofStep
	Header types.BlockHeader
}

// Verify checks the proof against a trusted block header (e.g. obtained
// from any 2f+1 replicas). It confirms (1) the header is the one proved
// against and (2) the transaction hash chains up to the header's Merkle
// root.
func (p *TxInclusionProof) Verify(trusted types.BlockHeader) bool {
	if trusted.Hash() != p.Header.Hash() || trusted.Height != p.Height {
		return false
	}
	return crypto.VerifyMerkleProofHash(trusted.TxRoot, p.TxHash, p.Steps)
}

// EqualTo reports whether two chains hold the same blocks — the Figure 1
// property: every node's copy of the ledger is identical.
func (c *Chain) EqualTo(o *Chain) bool {
	if c.Len() != o.Len() {
		return false
	}
	return c.Head().Hash() == o.Head().Hash()
}

// Size returns an approximate byte size of the ledger: header bytes plus
// payload bytes of every transaction. The confidentiality experiment (E4)
// uses this to measure how much data lands on irrelevant enterprises.
func (c *Chain) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, b := range c.blocks {
		total += 80 // header: height + two hashes + proposer
		for _, tx := range b.Txs {
			total += TxSize(tx)
		}
	}
	return total
}

// TxSize approximates a transaction's wire size in bytes.
func TxSize(tx *types.Transaction) int {
	n := len(tx.ID) + 16
	for _, op := range tx.Ops {
		n += 8 + len(op.Key) + len(op.Key2) + len(op.Value) + 8
	}
	for _, w := range tx.Writes {
		n += len(w.Key) + len(w.Value)
	}
	for _, r := range tx.Reads {
		n += len(r.Key) + 16
	}
	return n
}
