package cdg

import (
	"context"
	"reflect"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// freshReport is the unpooled reference: a brand-new graph and workspace
// state per call, so reuse bugs in the pooled path cannot hide.
func freshReport(net *topology.Network, vcs VCConfig, ts *core.TurnSet, jobs int) Report {
	return NewWorkspace(net, vcs).VerifyTurnSetJobs(ts, jobs)
}

func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	net := topology.NewMesh(5, 4)
	ws := NewWorkspace(net, nil)
	// Alternate acyclic and cyclic turn sets through one workspace; every
	// result must equal a fresh single-use verification, including the
	// extracted cycle.
	sets := []*core.TurnSet{
		xyTurnSet(), allTurnSet(), xyTurnSet(), parityTurnSet(), allTurnSet(),
	}
	for i, ts := range sets {
		got := ws.VerifyTurnSetJobs(ts, 0)
		want := freshReport(net, nil, ts, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reuse %d: report %+v, fresh %+v", i, got, want)
		}
	}
}

func TestWorkspaceJobsInvariant(t *testing.T) {
	net := topology.NewMesh(5, 5)
	for name, ts := range map[string]*core.TurnSet{
		"acyclic": xyTurnSet(), "cyclic": allTurnSet(),
	} {
		want := freshReport(net, nil, ts, 1)
		for _, jobs := range []int{2, 3, 8} {
			got := freshReport(net, nil, ts, jobs)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s jobs=%d: %+v, want %+v", name, jobs, got, want)
			}
		}
	}
}

func TestWorkspaceVerifyRelation(t *testing.T) {
	net := topology.NewMesh(4, 4)
	ws := NewWorkspace(net, nil)
	rep := ws.VerifyRelationJobs(xyRoute, "4x4 mesh / dor", 0)
	if !rep.Acyclic {
		t.Fatalf("dimension-order routing must be acyclic: %s", rep)
	}
	if rep.Network != "4x4 mesh / dor" {
		t.Errorf("Network = %q, want the caller-supplied name", rep.Network)
	}
	// Reference: unpooled construction.
	g := NewGraph(net, nil)
	g.AddRoutingEdgesJobs(xyRoute, 1)
	if rep.Edges != g.NumEdges() {
		t.Errorf("edges = %d, want %d", rep.Edges, g.NumEdges())
	}
	// Reuse after a routing build must still be clean.
	again := ws.VerifyTurnSetJobs(xyTurnSet(), 0)
	want := freshReport(net, nil, xyTurnSet(), 1)
	if !reflect.DeepEqual(again, want) {
		t.Errorf("turn-set verify after routing verify: %+v, want %+v", again, want)
	}
}

func TestWorkspacePoolReuse(t *testing.T) {
	pool := &WorkspacePool{}
	net := topology.NewMesh(3, 3)
	ws := pool.Get(net, nil)
	pool.Put(ws)
	if got := pool.Get(net, nil); got != ws {
		t.Error("pool did not reuse the returned workspace")
	}
	// Equivalent VC configurations share a shape: nil, short, explicit
	// all-ones and non-positive entries all mean one VC per dimension.
	for _, vcs := range []VCConfig{{1}, {1, 1}, {0, -2}, {1, 1, 4}} {
		pool.Put(ws)
		if got := pool.Get(net, vcs); got != ws {
			t.Errorf("VCConfig %v did not reuse the nil-config workspace", vcs)
		}
	}
	// Different VC configurations must not.
	pool.Put(ws)
	if got := pool.Get(net, Uniform(2, 2)); got == ws {
		t.Error("different VC configuration reused an incompatible workspace")
	}
	// Different network instances are distinct shapes (identity keyed).
	if got := pool.Get(topology.NewMesh(3, 3), nil); got == ws {
		t.Error("distinct network instance reused another network's workspace")
	}
	// The key is a digest; a workspace filed under it with other VC
	// counts must never be handed out.
	other := NewWorkspace(net, Uniform(2, 2))
	pool.free = map[poolKey][]*Workspace{shapeKey(net, nil): {other}}
	if got := pool.Get(net, nil); got == other {
		t.Error("pool returned a workspace with different VC counts under a colliding key")
	}
}

func TestAddEdgesBatch(t *testing.T) {
	net := topology.NewMesh(3, 3)
	a := NewGraph(net, nil)
	b := NewGraph(net, nil)
	// Batched insertion must match the incremental path for unsorted
	// input, interleaved batches, and merges below the current maximum.
	batches := [][]int32{
		{9, 2, 7},
		{5},
		{4, 3, 11},
		{1, 10},
	}
	for _, batch := range batches {
		for _, v := range batch {
			a.AddEdge(5, int(v))
		}
		b.AddEdges(5, append([]int32(nil), batch...)...)
	}
	b.AddEdges(7) // empty batch is a no-op
	if !reflect.DeepEqual(a.Succs(5), b.Succs(5)) {
		t.Errorf("AddEdges row = %v, AddEdge row = %v", b.Succs(5), a.Succs(5))
	}
	if a.NumEdges() != b.NumEdges() {
		t.Errorf("edge counts diverge: %d vs %d", a.NumEdges(), b.NumEdges())
	}
}

func TestMergeSorted(t *testing.T) {
	cases := []struct {
		row, batch, want []int32
	}{
		{nil, nil, nil},
		{nil, []int32{3, 5}, []int32{3, 5}},
		{[]int32{1, 4}, nil, []int32{1, 4}},
		{[]int32{1, 4}, []int32{4, 9}, []int32{1, 4, 4, 9}},
		{[]int32{5, 8}, []int32{1, 6, 9}, []int32{1, 5, 6, 8, 9}},
		{[]int32{2, 3, 7}, []int32{1, 1, 8}, []int32{1, 1, 2, 3, 7, 8}},
	}
	for _, tc := range cases {
		row := append([]int32(nil), tc.row...)
		got := mergeSorted(row, tc.batch)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("mergeSorted(%v, %v) = %v, want %v", tc.row, tc.batch, got, tc.want)
		}
	}
}

// adaptiveRoute offers every VC of every minimal direction: richer rows
// than a dimension-order turn set, so routing merges into reset rows grow
// past what the previous turn-set build left there.
func adaptiveRoute(g *Graph, at topology.NodeID, in *Channel, dst topology.NodeID) []int {
	var out []int
	for d, off := range g.Net().MinimalOffsets(at, dst) {
		if off == 0 {
			continue
		}
		sign := channel.Plus
		if off < 0 {
			sign = channel.Minus
		}
		for vc := 1; vc <= g.VCs().VCs(channel.Dim(d)); vc++ {
			if ch, ok := g.FindChannel(at, channel.Dim(d), sign, vc); ok {
				out = append(out, ch.Index)
			}
		}
	}
	return out
}

// TestWorkspaceArenaRowsNeverAlias drives one pooled workspace through
// every writer of adjacency rows — turn-set builds, a routing merge into
// reset rows, and delta inserts, deletes and rollback on full arena rows —
// and compares every row with a from-scratch build after each step.
func TestWorkspaceArenaRowsNeverAlias(t *testing.T) {
	net := topology.NewMesh(5, 4)
	vcs := Uniform(2, 2)
	first := xyTurnSet()
	second := core.MustParseChain("PA[X1* Y1+ Y2+] -> PB[X2* Y1- Y2-]").AllTurns()
	for _, jobs := range []int{1, 3} {
		pool := &WorkspacePool{}
		ws := pool.Get(net, vcs)
		check := func(step string, want *Graph) {
			t.Helper()
			if diff := sameGraph(ws.Graph(), want); diff != "" {
				t.Fatalf("jobs=%d after %s: %s", jobs, step, diff)
			}
		}
		ws.VerifyTurnSetJobs(first, jobs)
		check("first turn-set build", BuildFromTurnSetJobs(net, vcs, first, jobs))

		ws.VerifyRelationJobs(adaptiveRoute, "", jobs)
		routed := NewGraph(net, vcs)
		routed.AddRoutingEdgesJobs(adaptiveRoute, 1)
		check("routing merge into reset rows", routed)

		ws.VerifyTurnSetJobs(second, jobs)
		fresh := BuildFromTurnSetJobs(net, vcs, second, 1)
		check("second turn-set build", fresh)

		// Delta on the same workspace: insert into a full row whose
		// arena neighbour is non-empty, delete from another, roll back.
		dw, err := newDeltaOver(context.Background(), ws, NewTurnSetQuery(net, vcs, second), jobs)
		if err != nil {
			t.Fatal(err)
		}
		g := ws.Graph()
		a := -1
		for i := 0; i+1 < g.NumChannels() && a < 0; i++ {
			if row := g.Succs(i); len(row) > 0 && len(row) == cap(row) && len(g.Succs(i+1)) > 0 {
				a = i
			}
		}
		if a < 0 {
			t.Fatal("no full arena row with a non-empty neighbour")
		}
		b := int32(0)
		for g.HasEdge(a, int(b)) {
			b++
		}
		c := (a + 7) % g.NumChannels()
		for len(g.Succs(c)) == 0 {
			c = (c + 1) % g.NumChannels()
		}
		d := g.Succs(c)[0]
		diff := Diff{AddEdges: [][2]int32{{int32(a), b}}, RemoveEdges: [][2]int32{{int32(c), d}}}
		if err := dw.planDiff(diff); err != nil {
			t.Fatal(err)
		}
		dw.applyOps()
		patched := BuildFromTurnSetJobs(net, vcs, second, 1)
		patched.AddEdge(a, int(b))
		patched.adj[c] = deleteSorted(patched.adj[c], d)
		patched.edges--
		check("delta insert and delete", patched)
		dw.rollback()
		check("delta rollback", fresh)
		pool.Put(ws)
	}
}
