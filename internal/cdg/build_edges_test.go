package cdg

import (
	"math/rand"
	"reflect"
	"testing"
)

// refBuild is the incremental construction BuildEdgeSet replaces: one
// AddEdge per pair, the first pair that is not new reported.
func refBuild(n int, pairs []int32) (*EdgeSet, int) {
	e := NewEdgeSet(n)
	dup := -1
	for i := 0; i+1 < len(pairs); i += 2 {
		if !e.AddEdge(int(pairs[i]), int(pairs[i+1])) && dup < 0 {
			dup = i / 2
		}
	}
	return e, dup
}

// checkBuild fails t unless BuildEdgeSet agrees with refBuild: the same
// rows, edge count and first repeat.
func checkBuild(t *testing.T, n int, pairs []int32) {
	t.Helper()
	got, dup := BuildEdgeSet(n, pairs)
	want, wdup := refBuild(n, pairs)
	if dup != wdup {
		t.Fatalf("n=%d pairs=%v: first repeat %d, reference %d", n, pairs, dup, wdup)
	}
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("n=%d pairs=%v: %d nodes %d edges, reference %d, %d",
			n, pairs, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < n; v++ {
		if g, w := got.Succs(v), want.Succs(v); len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
			t.Fatalf("n=%d pairs=%v: row %d = %v, reference %v", n, pairs, v, g, w)
		}
	}
	a, b := got.Fingerprint()
	if c, d := want.Fingerprint(); a != c || b != d {
		t.Fatalf("n=%d pairs=%v: fingerprints differ", n, pairs)
	}
}

func TestBuildEdgeSetMatchesAddEdge(t *testing.T) {
	checkBuild(t, 0, nil)
	checkBuild(t, 3, nil)
	checkBuild(t, 1, []int32{0, 0, 0, 0})
	checkBuild(t, 4, []int32{3, 0, 0, 3, 3, 1, 0, 3, 3, 0})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(4 * n)
		pairs := make([]int32, 0, 2*m)
		for i := 0; i < m; i++ {
			pairs = append(pairs, int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		checkBuild(t, n, pairs)
	}
}

// TestBuildEdgeSetRowsNeverAlias pins the arena invariant: growing one
// built row with AddEdge must leave its neighbours untouched.
func TestBuildEdgeSetRowsNeverAlias(t *testing.T) {
	e, dup := BuildEdgeSet(3, []int32{0, 1, 0, 1, 1, 2, 0, 2})
	if dup != 1 {
		t.Fatalf("first repeat %d, want 1", dup)
	}
	e.AddEdge(0, 0)
	if got := e.Succs(1); !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("row 1 = %v after growing row 0", got)
	}
	if got := e.Succs(0); !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("row 0 = %v", got)
	}
}

func TestBuildEdgeSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pair accepted")
		}
	}()
	BuildEdgeSet(2, []int32{0, 2})
}

// FuzzBuildEdgeSet: the bulk builder must agree with per-edge AddEdge
// on every pair buffer over a small node count.
func FuzzBuildEdgeSet(f *testing.F) {
	f.Add(uint8(4), []byte{3, 0, 0, 3, 3, 1, 0, 3, 3, 0})
	f.Add(uint8(1), []byte{0, 0})
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		if n == 0 {
			return
		}
		pairs := make([]int32, len(raw)&^1)
		for i := range pairs {
			pairs[i] = int32(raw[i] % n)
		}
		checkBuild(t, int(n), pairs)
	})
}
