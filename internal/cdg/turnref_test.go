package cdg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/partstrat"
	"ebda/internal/topology"
)

// This file keeps the turn-set CDG builder the channel-kind mask builder
// replaced — per-channel class-match lists (matchClassIdx), one
// AllowMatrix.AllowsAny probe per candidate pair, rows grown by
// mergeSorted — together with the channel enumeration it ran on, as an
// independent reference. The differential tests and FuzzTurnEdges require
// the production builder to reproduce it row for row.

// refGraph is a graph enumerated the reference way, plus the coordinate
// table the reference class matcher reads.
type refGraph struct {
	g      *Graph
	coords []int32
}

// refNewGraph enumerates channels with per-link appends and
// Network.Coord, as NewGraph did before channel kinds.
func refNewGraph(net *topology.Network, vcs VCConfig) *refGraph {
	g := &Graph{
		net:    net,
		vcs:    vcs,
		byHead: make([][]int32, net.Nodes()),
		byTail: make([][]int32, net.Nodes()),
		maxVC:  1,
	}
	for d := 0; d < net.Dims(); d++ {
		if v := vcs.VCs(channel.Dim(d)); v > g.maxVC {
			g.maxVC = v
		}
	}
	g.tailIndex = make([]int32, net.Nodes()*net.Dims()*2*g.maxVC)
	for i := range g.tailIndex {
		g.tailIndex[i] = -1
	}
	dims := net.Dims()
	r := &refGraph{g: g, coords: make([]int32, net.Nodes()*dims)}
	for v := 0; v < net.Nodes(); v++ {
		c := net.Coord(topology.NodeID(v))
		for d, x := range c {
			r.coords[v*dims+d] = int32(x)
		}
	}
	for _, link := range net.Links() {
		for vc := 1; vc <= vcs.VCs(link.Dim); vc++ {
			idx := len(g.channels)
			g.channels = append(g.channels, Channel{Link: link, VC: vc, Index: idx})
			g.byHead[link.To] = append(g.byHead[link.To], int32(idx))
			g.byTail[link.From] = append(g.byTail[link.From], int32(idx))
			g.tailIndex[g.tailSlot(link.From, link.Dim, link.Sign, vc)] = int32(idx)
		}
	}
	g.adj = make([][]int32, len(g.channels))
	return r
}

// matchClassIdx appends to dst the interned indices of the matrix classes
// the channel instantiates, evaluating parity restrictions against the
// channel's tail-node coordinate.
func (r *refGraph) matchClassIdx(dst []int32, ch Channel, m *core.AllowMatrix) []int32 {
	base := int(ch.Link.From) * r.g.net.Dims()
	for i, cls := range m.Classes() {
		if cls.Dim != ch.Link.Dim || cls.Sign != ch.Link.Sign || cls.VC != ch.VC {
			continue
		}
		if cls.Par != channel.Any && !cls.Par.Matches(int(r.coords[base+int(cls.PDim)])) {
			continue
		}
		dst = append(dst, int32(i))
	}
	return dst
}

// addTurnEdges is the reference engine: phase 1 interns class matches per
// channel, phase 2 tests every (in, out) pair of every node with AllowsAny
// and merges each batch into the row.
func (r *refGraph) addTurnEdges(ts *core.TurnSet, jobs int) int {
	g := r.g
	m := ts.Matrix()
	nc := len(g.channels)
	matched := make([][]int32, nc)
	workers := resolveJobs(jobs, g.net.Nodes())
	parallelFor(workers, func(w int) {
		for i := w; i < nc; i += workers {
			matched[i] = r.matchClassIdx(matched[i][:0], g.channels[i], m)
		}
	})
	counts := make([]int, workers)
	nodes := g.net.Nodes()
	parallelFor(workers, func(w int) {
		added := 0
		var batch []int32
		for v := w; v < nodes; v += workers {
			for _, ai := range g.byHead[v] {
				batch = batch[:0]
				for _, bi := range g.byTail[v] {
					if m.AllowsAny(matched[ai], matched[bi]) {
						batch = append(batch, bi)
					}
				}
				if len(batch) > 0 {
					g.adj[ai] = mergeSorted(g.adj[ai], batch)
					added += len(batch)
				}
			}
		}
		counts[w] = added
	})
	added := 0
	for _, c := range counts {
		added += c
	}
	g.edges += added
	return added
}

// refReport builds the reference graph of the turn set and verifies it
// through the shared peel, so only construction differs from the
// production path.
func refReport(net *topology.Network, vcs VCConfig, ts *core.TurnSet, jobs int) (*Graph, Report) {
	r := refNewGraph(net, vcs)
	r.addTurnEdges(ts, jobs)
	rep, err := (&Workspace{g: r.g}).report(context.Background(), jobs)
	if err != nil {
		panic(err)
	}
	return r.g, rep
}

// rowsOf returns a graph's successor rows with empty rows as nil, so rows
// compare by content regardless of how their backing arrays were carved.
func rowsOf(g *Graph) [][]int32 {
	out := make([][]int32, g.NumChannels())
	for i := range out {
		if row := g.Succs(i); len(row) > 0 {
			out[i] = append([]int32(nil), row...)
		}
	}
	return out
}

// sameGraph reports the first difference between two graphs over the same
// network: channel table, head/tail indices, rows, or edge count.
func sameGraph(got, want *Graph) string {
	switch {
	case !reflect.DeepEqual(got.Channels(), want.Channels()):
		return "channel tables differ"
	case got.NumEdges() != want.NumEdges():
		return "edge counts differ"
	}
	for v := 0; v < want.Net().Nodes(); v++ {
		id := topology.NodeID(v)
		if !reflect.DeepEqual(got.Into(id), want.Into(id)) || !reflect.DeepEqual(got.OutOf(id), want.OutOf(id)) {
			return fmt.Sprintf("head/tail index of n%d differs", v)
		}
	}
	gr, wr := rowsOf(got), rowsOf(want)
	for i := range wr {
		if !reflect.DeepEqual(gr[i], wr[i]) {
			return fmt.Sprintf("row %d differs: got %v, want %v", i, gr[i], wr[i])
		}
	}
	return ""
}

// checkAgainstReference builds the turn set both ways for every jobs value
// and fails on the first difference in rows, report or cycle witness.
func checkAgainstReference(t *testing.T, name string, net *topology.Network, vcs VCConfig, ts *core.TurnSet) {
	t.Helper()
	wantG, wantRep := refReport(net, vcs, ts, 1)
	for jobs := 1; jobs <= 4; jobs++ {
		g := BuildFromTurnSetJobs(net, vcs, ts, jobs)
		if diff := sameGraph(g, wantG); diff != "" {
			t.Fatalf("%s on %s jobs=%d: %s", name, net, jobs, diff)
		}
		rep := NewWorkspace(net, vcs).VerifyTurnSetJobs(ts, jobs)
		if !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("%s on %s jobs=%d: report\n%s\nwant\n%s", name, net, jobs, rep, wantRep)
		}
	}
}

// randomTurnSet draws a turn relation over the given classes: each class is
// declared and each ordered pair of distinct classes becomes a turn with
// probability p. Most draws are cyclic, which exercises the witness.
func randomTurnSet(r *rand.Rand, classes []channel.Class, p float64) *core.TurnSet {
	ts := core.NewTurnSet()
	for _, c := range classes {
		ts.Declare(c)
	}
	for _, a := range classes {
		for _, b := range classes {
			if a != b && r.Float64() < p {
				ts.Add(a, b, core.ByTheorem1)
			}
		}
	}
	return ts
}

// classSpace lists every (dim, sign, vc) class of an n-dimensional network
// with up to maxVC VCs, optionally with every parity refinement (each
// other dimension, even and odd) as well.
func classSpace(dims, maxVC int, parity bool) []channel.Class {
	var out []channel.Class
	for d := 0; d < dims; d++ {
		for _, s := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= maxVC; vc++ {
				out = append(out, channel.NewVC(channel.Dim(d), s, vc))
				if !parity {
					continue
				}
				for p := 0; p < dims; p++ {
					if p == d {
						continue
					}
					for _, par := range []channel.Parity{channel.Even, channel.Odd} {
						c := channel.NewParity(channel.Dim(d), s, channel.Dim(p), par)
						c.VC = vc
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// oddEvenTurnSet is the Odd-Even partitioning of Section 6.2 (Table 4):
// PA = {X- Ye*}, PB = {X+ Yo*}.
func oddEvenTurnSet() *core.TurnSet {
	pa := core.MustPartition("PA",
		channel.New(channel.X, channel.Minus),
		channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Even),
		channel.NewParity(channel.Y, channel.Minus, channel.X, channel.Even),
	)
	pb := core.MustPartition("PB",
		channel.New(channel.X, channel.Plus),
		channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Odd),
		channel.NewParity(channel.Y, channel.Minus, channel.X, channel.Odd),
	)
	return core.MustChain(pa, pb).AllTurns()
}

func TestTurnEdgesMatchReferenceDesigns(t *testing.T) {
	type design struct {
		name  string
		chain string // parsed when non-empty
		ts    *core.TurnSet
	}
	min3, err := partstrat.MinFullyAdaptiveChain(3)
	if err != nil {
		t.Fatal(err)
	}
	designs2D := []design{
		{name: "xy", ts: xyTurnSet()},
		{name: "all-turns", ts: allTurnSet()},
		{name: "parity", ts: parityTurnSet()},
		{name: "odd-even", ts: oddEvenTurnSet()},
		{name: "north-last", chain: "PA[X+ X- Y-] -> PB[Y+]"},
		{name: "two-vc", chain: "PA[X1* Y1+ Y2+] -> PB[X2* Y1- Y2-]"},
		{name: "three-vc", chain: "PA[X1+ Y1*] -> PB[X1- Y2*] -> PC[X2* Y3+] -> PD[Y3-]"},
	}
	designs3D := []design{
		{name: "table5", chain: "PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]"},
		{name: "min-fully-adaptive", chain: min3.String()},
		{name: "three-vc", chain: "PA[X1+ Y1+ Z3*] -> PB[X1- Y1- Z1+ Z2+] -> PC[X2* Y2+ Z1- Z2-] -> PD[Y2-]"},
	}
	designs1D := []design{
		{name: "ring-cont", chain: "PA[X1+] -> PB[X1-]"},
		{name: "ring-3vc", chain: "PA[X1+ X2-] -> PB[X3*]"},
	}
	designs4D := []design{
		{name: "negative-first", chain: "PA[X1- Y1- Z1- T1-] -> PB[X1+ Y1+ Z1+ T1+]"},
	}
	for _, group := range []struct {
		nets    []*topology.Network
		designs []design
	}{
		{[]*topology.Network{topology.NewMesh(5), topology.NewTorus(5)}, designs1D},
		{[]*topology.Network{topology.NewMesh(5, 4), topology.NewTorus(4, 5), topology.NewMesh(2, 3)}, designs2D},
		{[]*topology.Network{topology.NewMesh(3, 4, 3), topology.NewTorus(3, 3, 4)}, designs3D},
		{[]*topology.Network{topology.NewMesh(3, 2, 3, 2), topology.NewTorus(3, 3, 3, 3)}, designs4D},
	} {
		for _, d := range group.designs {
			ts := d.ts
			if d.chain != "" {
				chain, err := core.ParseChain(d.chain)
				if err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
				ts = chain.AllTurns()
			}
			for _, net := range group.nets {
				vcs := VCConfigFor(net.Dims(), ts.Classes())
				checkAgainstReference(t, d.name, net, vcs, ts)
				// A larger VC budget than the design names leaves the
				// extra channels classless; rows must still agree.
				checkAgainstReference(t, d.name+"+spare-vcs", net, Uniform(net.Dims(), 3), ts)
			}
		}
	}
}

func TestTurnEdgesMatchReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		net    *topology.Network
		maxVC  int
		parity bool
		p      float64
	}{
		{topology.NewMesh(6), 3, false, 0.3},
		{topology.NewTorus(4, 3), 2, true, 0.15},
		{topology.NewMesh(4, 4), 3, true, 0.1},
		{topology.NewMesh(3, 3, 3), 2, true, 0.05},
		{topology.NewTorus(3, 3, 3), 1, true, 0.1},
		{topology.NewMesh(2, 3, 2, 2), 3, false, 0.08},
		{topology.NewTorus(3, 2, 3, 2), 1, true, 0.05},
	} {
		classes := classSpace(tc.net.Dims(), tc.maxVC, tc.parity)
		for draw := 0; draw < 4; draw++ {
			ts := randomTurnSet(r, classes, tc.p)
			checkAgainstReference(t, "random", tc.net, Uniform(tc.net.Dims(), tc.maxVC), ts)
		}
	}
}

// TestTurnEdgesMatchReferenceWideMasks covers turn sets with more than 64
// classes, where every kind mask spans several words.
func TestTurnEdgesMatchReferenceWideMasks(t *testing.T) {
	classes := classSpace(4, 3, true) // 4 dims x 2 signs x 3 VCs x 7 parities
	if len(classes) <= 128 {
		t.Fatalf("class space has %d classes, want more than two mask words", len(classes))
	}
	r := rand.New(rand.NewSource(11))
	net := topology.NewMesh(3, 2, 2, 3)
	for draw := 0; draw < 3; draw++ {
		ts := randomTurnSet(r, classes, 0.02)
		if ts.Matrix().Words() < 3 {
			t.Fatalf("matrix has %d words, want at least 3", ts.Matrix().Words())
		}
		checkAgainstReference(t, "wide", net, Uniform(4, 3), ts)
	}
	// An acyclic wide design: a chain over every class whose partitions
	// each hold one direction of one dimension.
	ts := core.NewTurnSet()
	for i, a := range classes {
		ts.Declare(a)
		for _, b := range classes[i+1:] {
			if a.Dim != b.Dim || a.Sign != b.Sign {
				ts.Add(a, b, core.ByTheorem3)
			}
		}
	}
	checkAgainstReference(t, "wide-ordered", topology.NewTorus(2, 3, 2, 2), Uniform(4, 3), ts)
}

// FuzzTurnEdges decodes a small network shape, a VC budget and a turn
// relation from the input and requires the production builder to
// reproduce the reference builder's rows, report and cycle witness.
func FuzzTurnEdges(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x00, 0x01, 0x02, 0x13, 0x24, 0x35})
	f.Add([]byte{0x13, 0x32, 0x11, 0x05, 0x40, 0x77, 0x10, 0x01, 0x9a, 0x3c})
	f.Add([]byte{0x22, 0x11, 0x2f, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Add([]byte{0x31, 0x23, 0x00, 0xff, 0xfe, 0xfd, 0x10, 0x20, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 96 {
			return
		}
		dims := 1 + int(data[0]>>4)%3
		torus := data[0]&1 == 1
		sizes := make([]int, dims)
		for d := range sizes {
			sizes[d] = 2 + int(data[1]>>(2*d))%3
		}
		maxVC := 1 + int(data[2]%3)
		jobs := 1 + int(data[2]>>4)%4
		net := topology.NewMesh(sizes...)
		if torus {
			net = topology.NewTorus(sizes...)
		}
		classes := classSpace(dims, maxVC, true)
		ts := core.NewTurnSet()
		for _, c := range classes[:1+int(data[1])%len(classes)] {
			ts.Declare(c)
		}
		for i := 3; i+1 < len(data); i += 2 {
			a := classes[int(data[i])%len(classes)]
			b := classes[int(data[i+1])%len(classes)]
			if a != b {
				ts.Add(a, b, core.ByTheorem1)
			}
		}
		vcs := Uniform(dims, maxVC)
		wantG, wantRep := refReport(net, vcs, ts, 1)
		g := BuildFromTurnSetJobs(net, vcs, ts, jobs)
		if diff := sameGraph(g, wantG); diff != "" {
			t.Fatalf("%s jobs=%d: %s", net, jobs, diff)
		}
		if rep := NewWorkspace(net, vcs).VerifyTurnSetJobs(ts, jobs); !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("%s jobs=%d: report\n%s\nwant\n%s", net, jobs, rep, wantRep)
		}
	})
}
