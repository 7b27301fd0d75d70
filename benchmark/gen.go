package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"permchain/internal/types"
)

// generator produces one workload's transaction stream from a seed. It is
// the benchmark's own code, not internal/workload, so a later change to
// that package cannot change the load. The chain sees only the generated
// transactions.
type generator struct {
	m       mix
	rng     *rand.Rand
	addKeys [][]string // [shard][i]; one shard on a single chain
	putKeys []string
	seq     uint64 // never reset: IDs stay unique across phases
}

func newGenerator(m mix, seed int64) *generator {
	g := &generator{m: m, rng: rand.New(rand.NewSource(seed))}
	shards := max(m.shards, 1)
	g.addKeys = make([][]string, shards)
	for s := range g.addKeys {
		prefix := "k"
		if m.shards > 0 {
			// The "s<N>/" prefix is what shardcore's placement routes on.
			prefix = fmt.Sprintf("s%d/k", s)
		}
		g.addKeys[s] = make([]string, m.keys)
		for i := range g.addKeys[s] {
			g.addKeys[s][i] = fmt.Sprintf("%s%05d", prefix, i)
		}
	}
	if m.puts > 0 {
		g.putKeys = make([]string, m.keys)
		for i := range g.putKeys {
			g.putKeys[i] = fmt.Sprintf("v%05d", i)
		}
	}
	return g
}

// pick draws one key index: from the hot set with probability hotShare,
// otherwise uniformly from the rest.
func (g *generator) pick() int {
	if g.m.hotKeys > 0 {
		if g.rng.Float64() < g.m.hotShare {
			return g.rng.Intn(g.m.hotKeys)
		}
		return g.m.hotKeys + g.rng.Intn(g.m.keys-g.m.hotKeys)
	}
	return g.rng.Intn(g.m.keys)
}

// next returns the next transaction. phase prefixes the ID; the sequence
// number behind it is global to the generator, so mempool dedup can never
// flatter a later phase.
func (g *generator) next(phase string) *types.Transaction {
	g.seq++
	tx := &types.Transaction{ID: phase + "-" + strconv.FormatUint(g.seq, 10)}
	if g.m.shards > 0 {
		tx.Ops = g.transferOps()
		return tx
	}
	keys := g.addKeys[0]
	tx.Ops = make([]types.Op, 0, g.m.adds+g.m.puts+g.m.gets)
	for i := 0; i < g.m.adds; i++ {
		tx.Ops = append(tx.Ops, types.Op{Code: types.OpAdd, Key: keys[g.pick()], Delta: 1})
	}
	for i := 0; i < g.m.puts; i++ {
		val := make([]byte, g.m.valueBytes)
		g.rng.Read(val)
		tx.Ops = append(tx.Ops, types.Op{Code: types.OpPut, Key: g.putKeys[g.pick()], Value: val})
	}
	for i := 0; i < g.m.gets; i++ {
		tx.Ops = append(tx.Ops, types.Op{Code: types.OpGet, Key: keys[g.pick()]})
	}
	return tx
}

// transferOps is the sharded mix: a -1/+1 pair that conserves the global
// sum, within one shard or (with probability crossShare) across two.
func (g *generator) transferOps() []types.Op {
	from := g.rng.Intn(g.m.shards)
	to := from
	if g.rng.Float64() < g.m.crossShare {
		to = (from + 1 + g.rng.Intn(g.m.shards-1)) % g.m.shards
	}
	return []types.Op{
		{Code: types.OpAdd, Key: g.addKeys[from][g.pick()], Delta: -1},
		{Code: types.OpAdd, Key: g.addKeys[to][g.pick()], Delta: 1},
	}
}

// addedPerTx is what one committed transaction adds to the sum of all
// counters: every single-chain Add is +1, every sharded pair nets 0.
func (m mix) addedPerTx() int64 {
	if m.shards > 0 {
		return 0
	}
	return int64(m.adds)
}
