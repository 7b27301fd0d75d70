// Package arch holds what the three transaction-processing architectures
// of §2.3.3 share: static read/write-set analysis of payloads, transaction
// conflict graphs, the within-block reordering algorithms of Fabric++ and
// FabricSharp, and the execution-cost knob that models smart-contract
// work.
//
// The architectures themselves live in subpackages:
//
//   - ox:   order-execute (Tendermint/Quorum style) — sequential execution
//   - oxii: order-parallel-execute (ParBlockchain) — dependency graphs
//   - xov:  execute-order-validate (Fabric) — optimistic with MVCC aborts,
//     plus the FastFabric / Fabric++ / FabricSharp / XOX variants
package arch

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"permchain/internal/types"
)

// TxStatus is the per-transaction outcome of processing one block: the
// receipt-level answer to "what happened to my transaction". Engines that
// report statuses return one per transaction, indexed by the transaction's
// position in the block, regardless of any internal reordering.
type TxStatus uint8

const (
	// TxCommitted: the transaction's writes reached the state (including
	// XOX salvage re-execution).
	TxCommitted TxStatus = iota
	// TxAborted: dropped for a read-write conflict (MVCC validation,
	// early abort, or reorder cycle elimination).
	TxAborted
	// TxFailed: the payload logic itself failed (e.g. insufficient
	// balance); not a concurrency conflict.
	TxFailed
)

// String names the status.
func (s TxStatus) String() string {
	switch s {
	case TxCommitted:
		return "committed"
	case TxAborted:
		return "aborted"
	case TxFailed:
		return "failed"
	default:
		return fmt.Sprintf("TxStatus(%d)", int(s))
	}
}

// Stats summarizes the outcome of processing one block.
type Stats struct {
	// Committed counts transactions whose writes reached the state.
	Committed int
	// Aborted counts transactions dropped for read-write conflicts.
	Aborted int
	// Failed counts transactions whose payload logic failed (e.g.
	// insufficient balance); they are not conflicts.
	Failed int
	// Reexecuted counts transactions salvaged by XOX post-order execution.
	Reexecuted int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Committed += other.Committed
	s.Aborted += other.Aborted
	s.Failed += other.Failed
	s.Reexecuted += other.Reexecuted
}

// Total returns the number of transactions accounted for.
func (s Stats) Total() int { return s.Committed + s.Aborted + s.Failed }

// DeclaredRW statically derives the read and write key sets of a payload,
// the a-priori declaration ParBlockchain's orderers use to build
// dependency graphs (§2.3.3) without executing anything.
func DeclaredRW(tx *types.Transaction) (reads, writes []string) {
	rs := map[string]bool{}
	ws := map[string]bool{}
	for _, op := range tx.Ops {
		switch op.Code {
		case types.OpGet:
			rs[op.Key] = true
		case types.OpPut:
			ws[op.Key] = true
		case types.OpAdd:
			rs[op.Key] = true
			ws[op.Key] = true
		case types.OpTransfer:
			rs[op.Key] = true
			ws[op.Key] = true
			rs[op.Key2] = true
			ws[op.Key2] = true
		case types.OpAssertGE:
			rs[op.Key] = true
		}
	}
	for k := range rs {
		reads = append(reads, k)
	}
	for k := range ws {
		writes = append(writes, k)
	}
	sort.Strings(reads)
	sort.Strings(writes)
	return reads, writes
}

// Conflicts reports whether two transactions conflict on their declared
// key sets: any read-write or write-write overlap.
func Conflicts(r1, w1, r2, w2 []string) bool {
	return overlap(w1, w2) || overlap(w1, r2) || overlap(r1, w2)
}

func overlap(a, b []string) bool {
	// Both inputs are sorted.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// DependencyGraph is the partial order ParBlockchain's orderers attach to
// a block: an edge i→j means transaction i must execute before j.
type DependencyGraph struct {
	N     int
	Succ  [][]int // adjacency: Succ[i] lists j with edge i→j
	InDeg []int
}

// BuildDependencyGraph derives the block's dependency graph from declared
// read/write sets. Earlier transactions win conflicts: for i<j that
// conflict, the edge is i→j, preserving the agreed total order on
// conflicting pairs while freeing non-conflicting pairs to run in
// parallel.
func BuildDependencyGraph(txs []*types.Transaction) *DependencyGraph {
	n := len(txs)
	g := &DependencyGraph{N: n, Succ: make([][]int, n), InDeg: make([]int, n)}
	reads := make([][]string, n)
	writes := make([][]string, n)
	for i, tx := range txs {
		reads[i], writes[i] = DeclaredRW(tx)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Conflicts(reads[i], writes[i], reads[j], writes[j]) {
				g.Succ[i] = append(g.Succ[i], j)
				g.InDeg[j]++
			}
		}
	}
	return g
}

// conflictEdges builds the directed conflict graph used by reordering:
// an edge i→j means i must precede j because i reads a key j writes
// (placing i first keeps i's read valid). Self-edges are excluded:
// read-your-writes within one transaction is fine.
func conflictEdges(txs []*types.Transaction) [][]int {
	n := len(txs)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// i reads a key j writes → i before j.
			for _, r := range txs[i].Reads {
				if _, ok := txs[j].Writes.Get(r.Key); ok {
					adj[i] = append(adj[i], j)
					break
				}
			}
		}
	}
	return adj
}

// ReorderPolicy selects the within-block conflict-resolution algorithm.
type ReorderPolicy int

const (
	// ReorderNone keeps the agreed order and lets MVCC validation abort
	// conflicting transactions (vanilla Fabric).
	ReorderNone ReorderPolicy = iota
	// ReorderFabricPP applies Fabric++'s cycle elimination: build the
	// conflict graph, abort transactions in cycles (greedy max-degree
	// victim selection), and emit the rest in a serializable order.
	ReorderFabricPP
	// ReorderSharp applies FabricSharp's abort-minimizing variant: exact
	// minimum feedback vertex set for small strongly connected components,
	// greedy fallback for large ones — strictly fewer aborts than
	// Fabric++'s heuristic.
	ReorderSharp
)

// Reorder reorders the block's transactions so that every kept
// transaction's reads stay valid, returning the new order (indices into
// txs) and the set of aborted indices. The rw-sets must be populated
// (post-simulation).
func Reorder(txs []*types.Transaction, policy ReorderPolicy) (order []int, aborted map[int]bool) {
	n := len(txs)
	aborted = map[int]bool{}
	if policy == ReorderNone {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order, aborted
	}
	adj := conflictEdges(txs)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for {
		scc := stronglyConnected(adj, alive)
		broke := false
		for _, comp := range scc {
			if len(comp) < 2 {
				continue
			}
			broke = true
			victims := pickVictims(adj, comp, policy)
			for _, v := range victims {
				alive[v] = false
				aborted[v] = true
			}
		}
		if !broke {
			break
		}
	}
	order = topoOrder(adj, alive)
	return order, aborted
}

// pickVictims chooses which members of a cyclic component to abort.
func pickVictims(adj [][]int, comp []int, policy ReorderPolicy) []int {
	if policy == ReorderSharp && len(comp) <= 9 {
		if v := minFeedbackVertexSet(adj, comp); v != nil {
			return v
		}
	}
	// Greedy: abort the vertex with the highest degree inside the
	// component; recomputed on the next outer iteration if cycles remain.
	inComp := map[int]bool{}
	for _, v := range comp {
		inComp[v] = true
	}
	best, bestDeg := comp[0], -1
	for _, v := range comp {
		deg := 0
		for _, w := range adj[v] {
			if inComp[w] {
				deg++
			}
		}
		for _, u := range comp {
			for _, w := range adj[u] {
				if w == v {
					deg++
				}
			}
		}
		if deg > bestDeg {
			best, bestDeg = v, deg
		}
	}
	return []int{best}
}

// minFeedbackVertexSet finds the smallest subset of comp whose removal
// makes the component acyclic, by subset enumeration in increasing size.
// Exponential, so callers cap the component size.
func minFeedbackVertexSet(adj [][]int, comp []int) []int {
	for size := 1; size < len(comp); size++ {
		if v := searchFVS(adj, comp, size, 0, nil); v != nil {
			return v
		}
	}
	return nil
}

func searchFVS(adj [][]int, comp []int, size, start int, chosen []int) []int {
	if len(chosen) == size {
		removed := map[int]bool{}
		for _, v := range chosen {
			removed[v] = true
		}
		if acyclicWithout(adj, comp, removed) {
			out := make([]int, len(chosen))
			copy(out, chosen)
			return out
		}
		return nil
	}
	for i := start; i < len(comp); i++ {
		if v := searchFVS(adj, comp, size, i+1, append(chosen, comp[i])); v != nil {
			return v
		}
	}
	return nil
}

func acyclicWithout(adj [][]int, comp []int, removed map[int]bool) bool {
	in := map[int]bool{}
	for _, v := range comp {
		if !removed[v] {
			in[v] = true
		}
	}
	// Kahn's algorithm restricted to the surviving component members.
	indeg := map[int]int{}
	for v := range in {
		indeg[v] = 0
	}
	for v := range in {
		for _, w := range adj[v] {
			if in[w] {
				indeg[w]++
			}
		}
	}
	queue := []int{}
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range adj[v] {
			if in[w] {
				indeg[w]--
				if indeg[w] == 0 {
					queue = append(queue, w)
				}
			}
		}
	}
	return seen == len(in)
}

// stronglyConnected returns the SCCs among alive vertices (iterative
// Tarjan).
func stronglyConnected(adj [][]int, alive []bool) [][]int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var out [][]int
	next := 0

	type frame struct {
		v, childIdx int
	}
	for root := 0; root < n; root++ {
		if !alive[root] || index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.childIdx == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.childIdx < len(adj[v]) {
				w := adj[v][f.childIdx]
				f.childIdx++
				if !alive[w] {
					continue
				}
				if index[w] == -1 {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// Done with v.
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				out = append(out, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return out
}

// topoOrder returns a topological order of the alive vertices; among
// independent vertices the original index order is kept (stable).
func topoOrder(adj [][]int, alive []bool) []int {
	n := len(adj)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		for _, w := range adj[v] {
			if alive[w] {
				indeg[w]++
			}
		}
	}
	// Min-index-first selection keeps the order deterministic.
	var order []int
	ready := make([]bool, n)
	remaining := 0
	for v := 0; v < n; v++ {
		if alive[v] {
			remaining++
			if indeg[v] == 0 {
				ready[v] = true
			}
		}
	}
	for len(order) < remaining {
		picked := -1
		for v := 0; v < n; v++ {
			if alive[v] && ready[v] {
				picked = v
				break
			}
		}
		if picked == -1 {
			break // graph still cyclic; caller broke cycles beforehand
		}
		ready[picked] = false
		alive[picked] = false
		order = append(order, picked)
		for _, w := range adj[picked] {
			if alive[w] {
				indeg[w]--
				if indeg[w] == 0 {
					ready[w] = true
				}
			}
		}
	}
	return order
}

// CriticalPathOps returns the weight (total operation count) of the
// longest dependency chain in a block — the execution time lower bound
// for OXII on unlimited cores. totalOps / CriticalPathOps is the block's
// ideal parallel speedup, a host-independent measure of how much
// parallelism the dependency graph exposes.
func CriticalPathOps(txs []*types.Transaction) int {
	g := BuildDependencyGraph(txs)
	longest := make([]int, g.N)
	best := 0
	// Vertices are in a valid topological order by construction (edges
	// only go from lower to higher index).
	for i := 0; i < g.N; i++ {
		// longest[i] currently holds the best predecessor chain weight.
		longest[i] += len(txs[i].Ops)
		if longest[i] > best {
			best = longest[i]
		}
		for _, j := range g.Succ[i] {
			if longest[i] > longest[j] {
				longest[j] = longest[i]
			}
		}
	}
	return best
}

// TotalOps sums the operation counts of a batch.
func TotalOps(txs []*types.Transaction) int {
	n := 0
	for _, tx := range txs {
		n += len(tx.Ops)
	}
	return n
}

// SimulateWork burns CPU proportional to factor, modeling the cost of
// smart-contract execution per operation. factor 0 is free; each unit is
// one SHA-256 compression.
func SimulateWork(factor int) {
	var buf [32]byte
	for i := 0; i < factor; i++ {
		buf = sha256.Sum256(buf[:])
	}
}
