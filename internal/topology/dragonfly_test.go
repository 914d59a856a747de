// External test package: the dragonfly exerciser feeds its CDG through
// graphio into the multi-mode verifier, and graphio depends on cdg,
// which imports topology.
package topology_test

import (
	"bytes"
	"reflect"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
	"ebda/internal/topology"
)

// dragonflyGraph bridges the plain-data ChannelGraph into a validated
// graphio.Graph.
func dragonflyGraph(t *testing.T, d topology.Dragonfly, vcs int) *graphio.Graph {
	t.Helper()
	cg, err := d.ChannelGraph(vcs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphio.New(cg.Channels, cg.Inputs, cg.Outputs, cg.Edges)
	if err != nil {
		t.Fatalf("generator produced an invalid graph: %v", err)
	}
	return g
}

func TestDragonflyValidate(t *testing.T) {
	bad := []topology.Dragonfly{
		{Groups: 1, Routers: 2, Terminals: 1},
		{Groups: 2, Routers: 0, Terminals: 1},
		{Groups: 2, Routers: 1, Terminals: 0},
	}
	for _, d := range bad {
		if _, err := d.ChannelGraph(1); err == nil {
			t.Fatalf("%+v accepted", d)
		}
	}
	if _, err := (topology.Dragonfly{Groups: 2, Routers: 1, Terminals: 1}).ChannelGraph(0); err == nil {
		t.Fatal("0 VCs accepted")
	}
}

// TestDragonflySingleVCDeadlocks pins the classic result: minimal
// routing over one virtual channel closes a local-global-local cycle.
func TestDragonflySingleVCDeadlocks(t *testing.T) {
	g := dragonflyGraph(t, topology.Dragonfly{Groups: 4, Routers: 2, Terminals: 1}, 1)
	rep, err := g.Verify(cdg.ModeLoop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Reason != cdg.ReasonCycle || len(rep.Cycle) == 0 {
		t.Fatalf("single-VC dragonfly verified: %+v", rep)
	}
	// The witness must alternate through at least one global channel:
	// purely local cycles cannot occur inside a fully connected group.
	d := topology.Dragonfly{Groups: 4, Routers: 2, Terminals: 1}
	globalBase := d.Global(0, 1, 1)
	hasGlobal := false
	for _, c := range rep.Cycle {
		if c >= globalBase-1 { // globals occupy the top id range
			hasGlobal = true
		}
	}
	if !hasGlobal {
		t.Fatalf("cycle %v crosses no global channel", rep.Cycle)
	}
}

// TestDragonflyTwoVCVerifies pins the fix: VC0 before the global hop,
// VC1 after, and every mode verifies.
func TestDragonflyTwoVCVerifies(t *testing.T) {
	d := topology.Dragonfly{Groups: 4, Routers: 2, Terminals: 2}
	g := dragonflyGraph(t, d, 2)
	for _, mode := range []cdg.GraphMode{cdg.ModeLoop, cdg.ModeLiveness, cdg.ModeSubrel} {
		rep, err := g.Verify(mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("%s: %+v", mode, rep)
		}
	}
	// The VC1 local channels plus the global channels form a valid
	// escape set under the Duato condition.
	var escape []int
	for grp := 0; grp < d.Groups; grp++ {
		for i := 0; i < d.Routers; i++ {
			for j := 0; j < d.Routers; j++ {
				if i != j {
					escape = append(escape, d.Local(grp, i, j, 1, 2))
				}
			}
		}
	}
	for a := 0; a < d.Groups; a++ {
		for b := 0; b < d.Groups; b++ {
			if a != b {
				escape = append(escape, d.Global(a, b, 2))
			}
		}
	}
	rep, err := g.Verify(cdg.ModeEscape, escape)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("escape: %+v", rep)
	}
}

// TestDragonflyRoundTrip exports the generated CDG through graphio and
// reimports it byte-stably.
func TestDragonflyRoundTrip(t *testing.T) {
	g := dragonflyGraph(t, topology.Dragonfly{Groups: 3, Routers: 2, Terminals: 1}, 2)
	data := g.ExportCDG()
	g2, err := graphio.ParseCDG(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(g2.ExportCDG()); got != string(data) {
		t.Fatalf("round trip drifted:\n%s", got)
	}
	rep, err := g2.Verify(cdg.ModeLiveness, nil)
	if err != nil || !rep.OK {
		t.Fatalf("reimported graph: %+v err=%v", rep, err)
	}
}

// TestDragonflyChannelLayout pins the id layout so exported graphs stay
// stable across refactors.
func TestDragonflyChannelLayout(t *testing.T) {
	d := topology.Dragonfly{Groups: 3, Routers: 2, Terminals: 2}
	nt := 3 * 2 * 2
	if got := d.Inj(0, 0, 0); got != 0 {
		t.Fatalf("Inj(0,0,0) = %d", got)
	}
	if got := d.Inj(2, 1, 1); got != nt-1 {
		t.Fatalf("Inj(2,1,1) = %d", got)
	}
	if got := d.Ej(0, 0, 0); got != nt {
		t.Fatalf("Ej(0,0,0) = %d", got)
	}
	if got := d.Local(0, 0, 1, 0, 2); got != 2*nt {
		t.Fatalf("Local(0,0,1,0) = %d", got)
	}
	wantGlobalBase := 2*nt + 3*2*1*2
	if got := d.Global(0, 1, 2); got != wantGlobalBase {
		t.Fatalf("Global(0,1) = %d", got)
	}
	if got := d.NumChannels(2); got != wantGlobalBase+3*2 {
		t.Fatalf("NumChannels = %d", got)
	}
	// Distinct ids for every channel.
	cg, err := d.ChannelGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Channels != d.NumChannels(2) {
		t.Fatalf("graph channels %d != layout %d", cg.Channels, d.NumChannels(2))
	}
}

// refChannelGraph is the generator ChannelGraph replaced, kept as the
// differential reference: it walks every source terminal to every
// destination terminal and deduplicates the route edges through a set.
func refChannelGraph(d topology.Dragonfly, vcs int) topology.ChannelGraph {
	cg := topology.ChannelGraph{Channels: d.NumChannels(vcs)}
	for g := 0; g < d.Groups; g++ {
		for r := 0; r < d.Routers; r++ {
			for k := 0; k < d.Terminals; k++ {
				cg.Inputs = append(cg.Inputs, d.Inj(g, r, k))
				cg.Outputs = append(cg.Outputs, d.Ej(g, r, k))
			}
		}
	}
	seen := make(map[[2]int]bool)
	add := func(from, to int) {
		e := [2]int{from, to}
		if !seen[e] {
			seen[e] = true
			cg.Edges = append(cg.Edges, e)
		}
	}
	route := func(g, r, g2, r2 int) []int {
		var hops []int
		if g == g2 {
			if r != r2 {
				hops = append(hops, d.Local(g, r, r2, 0, vcs))
			}
			return hops
		}
		if gw := d.Gateway(g, g2); r != gw {
			hops = append(hops, d.Local(g, r, gw, 0, vcs))
		}
		hops = append(hops, d.Global(g, g2, vcs))
		if gw := d.Gateway(g2, g); gw != r2 {
			hops = append(hops, d.Local(g2, gw, r2, vcs-1, vcs))
		}
		return hops
	}
	for g := 0; g < d.Groups; g++ {
		for r := 0; r < d.Routers; r++ {
			for g2 := 0; g2 < d.Groups; g2++ {
				for r2 := 0; r2 < d.Routers; r2++ {
					hops := route(g, r, g2, r2)
					for k := 0; k < d.Terminals; k++ {
						prev := d.Inj(g, r, k)
						for _, h := range hops {
							add(prev, h)
							prev = h
						}
						for k2 := 0; k2 < d.Terminals; k2++ {
							add(prev, d.Ej(g2, r2, k2))
						}
					}
				}
			}
		}
	}
	return cg
}

// TestDragonflyMatchesReference holds the generator to the one it
// replaced: the same channels, inputs and outputs, every edge emitted
// once, the same edge set, and byte-identical exports in both
// encodings. The benchmark's three shapes are checked at one and two
// VCs (the largest only in a full run: the reference takes seconds
// there), small odd shapes at up to three.
func TestDragonflyMatchesReference(t *testing.T) {
	type shape struct {
		d   topology.Dragonfly
		vcs []int
	}
	shapes := []shape{
		{topology.Dragonfly{Groups: 2, Routers: 1, Terminals: 1}, []int{1, 2}},
		{topology.Dragonfly{Groups: 3, Routers: 5, Terminals: 2}, []int{1, 2, 3}},
		{topology.Dragonfly{Groups: 6, Routers: 2, Terminals: 3}, []int{1, 3}},
		{topology.Dragonfly{Groups: 9, Routers: 4, Terminals: 2}, []int{1, 2}},
		{topology.Dragonfly{Groups: 17, Routers: 8, Terminals: 4}, []int{1, 2}},
	}
	if !testing.Short() {
		shapes = append(shapes, shape{topology.Dragonfly{Groups: 33, Routers: 16, Terminals: 8}, []int{1, 2}})
	}
	for _, sh := range shapes {
		for _, vcs := range sh.vcs {
			cg, err := sh.d.ChannelGraph(vcs)
			if err != nil {
				t.Fatal(err)
			}
			ref := refChannelGraph(sh.d, vcs)
			if cg.Channels != ref.Channels || !reflect.DeepEqual(cg.Inputs, ref.Inputs) || !reflect.DeepEqual(cg.Outputs, ref.Outputs) {
				t.Fatalf("%+v vcs=%d: channel layout differs from the reference", sh.d, vcs)
			}
			if len(cg.Edges) != len(ref.Edges) || cap(cg.Edges) != len(cg.Edges) {
				t.Fatalf("%+v vcs=%d: %d edges (capacity %d), reference %d", sh.d, vcs, len(cg.Edges), cap(cg.Edges), len(ref.Edges))
			}
			g, err := graphio.New(cg.Channels, cg.Inputs, cg.Outputs, cg.Edges)
			if err != nil {
				t.Fatalf("%+v vcs=%d: %v", sh.d, vcs, err)
			}
			rg, err := graphio.New(ref.Channels, ref.Inputs, ref.Outputs, ref.Edges)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.ExportCDG(), rg.ExportCDG()) || !bytes.Equal(g.ExportJSON(), rg.ExportJSON()) {
				t.Fatalf("%+v vcs=%d: exports differ from the reference", sh.d, vcs)
			}
		}
	}
}
