package cdg

import (
	"fmt"
	"slices"
	"sort"
)

// This file is the engine's topology-free surface: an EdgeSet is a
// channel dependency graph stripped down to "n nodes, directed edges",
// verified by the mode engine (modes.go) through the identical Kahn peel
// + residual DFS that powers VerifyTurnSet. The paper's reduction —
// deadlock freedom iff the dependency graph is acyclic — does not care
// that our concrete channels happen to be (link, VC) pairs of a mesh; any
// wait-for relation reduced to dense indices gets the same verdict
// machinery, the same determinism guarantees, and the same cached
// entry-point discipline. Its clients are graphio's imported channel
// graphs and deadlint (internal/lint), which verifies the repository's
// own lock-acquisition/wait graph in loop mode.

// EdgeSet is an abstract directed dependency graph over n dense node
// indices [0, n). Adjacency rows are kept sorted ascending and
// duplicate-free, so verification output is independent of insertion
// order.
type EdgeSet struct {
	adj   [][]int32
	edges int
}

// NewEdgeSet returns an empty edge set over n nodes.
func NewEdgeSet(n int) *EdgeSet {
	if n < 0 {
		n = 0
	}
	return &EdgeSet{adj: make([][]int32, n)}
}

// NumNodes returns the node count.
func (e *EdgeSet) NumNodes() int { return len(e.adj) }

// NumEdges returns the number of distinct edges added.
func (e *EdgeSet) NumEdges() int { return e.edges }

// AddEdge adds the directed edge from -> to (self-edges allowed: a node
// that depends on itself is a one-node cycle) and reports whether it was
// new. Out-of-range endpoints panic — callers map their domain onto dense
// indices first.
func (e *EdgeSet) AddEdge(from, to int) bool {
	if from < 0 || from >= len(e.adj) || to < 0 || to >= len(e.adj) {
		panic(fmt.Sprintf("cdg: EdgeSet.AddEdge(%d, %d) outside [0, %d)", from, to, len(e.adj)))
	}
	row := e.adj[from]
	i := sort.Search(len(row), func(k int) bool { return row[k] >= int32(to) })
	if i < len(row) && row[i] == int32(to) {
		return false
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = int32(to)
	e.adj[from] = row
	e.edges++
	return true
}

// BuildEdgeSet builds the edge set over n nodes from a flat pair buffer
// (sender, receiver, sender, receiver, ...) in one pass, the bulk twin
// of repeated AddEdge calls: a counting sort by sender places every
// receiver in one arena, and each row is sorted and deduplicated in
// place and carved as arena[lo:hi:hi], so a later AddEdge reallocates
// that row instead of writing into its neighbour. It returns the set,
// holding each distinct edge once, and the index (pair number, counted
// from 0) of the first pair that repeats an earlier one in buffer order,
// or -1 when every pair is distinct — the edge a sequence of AddEdge
// calls would first have reported as not new. Endpoints outside [0, n)
// panic, as with AddEdge.
//
//ebda:hotpath
func BuildEdgeSet(n int, pairs []int32) (*EdgeSet, int) {
	n = max(n, 0)
	m := len(pairs) / 2
	// end[v+1] first counts row v's receivers; prefix sums make end[v]
	// the start of row v, and placing the receivers advances it to the
	// row's end.
	end := make([]int, n+1)
	for i := 0; i < 2*m; i += 2 {
		from, to := pairs[i], pairs[i+1]
		if uint(from) >= uint(n) || uint(to) >= uint(n) {
			panicRange(int(from), int(to), n)
		}
		end[from+1]++
	}
	for v := 1; v <= n; v++ {
		end[v] += end[v-1]
	}
	arena := make([]int32, m)
	for i := 0; i < 2*m; i += 2 {
		from := pairs[i]
		arena[end[from]] = pairs[i+1]
		end[from]++
	}
	e := &EdgeSet{adj: make([][]int32, n)}
	repeats := false
	lo := 0
	for v := 0; v < n; v++ {
		hi := end[v]
		row := arena[lo:hi]
		lo = hi
		if len(row) == 0 {
			continue
		}
		slices.Sort(row)
		w := 1
		for _, to := range row[1:] {
			if to != row[w-1] {
				row[w] = to
				w++
			}
		}
		repeats = repeats || w < len(row)
		e.adj[v] = row[:w:w]
		e.edges += w
	}
	if !repeats {
		return e, -1
	}
	return e, firstRepeat(e, end, pairs[:2*m])
}

// firstRepeat finds the first pair of pairs that repeats an earlier one,
// given the built set and the row ends of its arena: one seen bit per
// arena slot, each edge claiming the slot of its first row position.
func firstRepeat(e *EdgeSet, end []int, pairs []int32) int {
	seen := make([]uint64, (len(pairs)/2+63)/64)
	for i := 0; i < len(pairs); i += 2 {
		from := pairs[i]
		row := e.adj[from]
		k, _ := slices.BinarySearch(row, pairs[i+1])
		if from > 0 {
			k += end[from-1]
		}
		if seen[k/64]&(1<<(k%64)) != 0 {
			return i / 2
		}
		seen[k/64] |= 1 << (k % 64)
	}
	return -1
}

func panicRange(from, to, n int) {
	panic(fmt.Sprintf("cdg: BuildEdgeSet edge (%d, %d) outside [0, %d)", from, to, n))
}

// HasEdge reports whether the directed edge exists.
func (e *EdgeSet) HasEdge(from, to int) bool {
	if from < 0 || from >= len(e.adj) {
		return false
	}
	row := e.adj[from]
	i := sort.Search(len(row), func(k int) bool { return row[k] >= int32(to) })
	return i < len(row) && row[i] == int32(to)
}

// Succs returns the successors of a node, ascending. The slice must not
// be modified.
func (e *EdgeSet) Succs(i int) []int32 { return e.adj[i] }

// Fingerprint returns an order-independent dual 64-bit digest of the
// edge set (node count included): two sets digest equal iff built from
// the same nodes and edges, regardless of AddEdge order. It is the graph
// half of ModeKey, mirroring core.TurnSet.Fingerprint.
func (e *EdgeSet) Fingerprint() (uint64, uint64) {
	const (
		edgeSeedA = 0x8f14e45fceea167a
		edgeSeedB = 0x6c62272e07bb0142
	)
	h1 := mix64(uint64(len(e.adj)) ^ edgeSeedA)
	h2 := mix64(uint64(len(e.adj)) ^ edgeSeedB)
	for from, row := range e.adj {
		for _, to := range row {
			// Ordered pair combination, so a->b and b->a digest
			// differently; per-edge mixes sum commutatively.
			v := uint64(uint32(from))*0x100000001b3 ^ uint64(uint32(to))
			h1 += mix64(v ^ edgeSeedA)
			h2 += mix64(v ^ edgeSeedB)
		}
	}
	return h1, h2
}
