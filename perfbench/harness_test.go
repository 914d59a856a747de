package main

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/topology"
)

// The same seed must give byte-identical input streams, and another
// seed a different one.
func TestSeedDeterminesInputs(t *testing.T) {
	stream := func(seed int64) []sreq {
		g, err := newStreamGen(seed)
		if err != nil {
			t.Fatal(err)
		}
		return g.stream(600)
	}
	a, b, c := stream(7), stream(7), stream(8)
	same := func(x, y []sreq) bool {
		for i := range x {
			if x[i].path != y[i].path || x[i].class != y[i].class || !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("seed 7 gave two different serve-mix streams")
	}
	if same(a, c) {
		t.Fatal("seeds 7 and 8 gave the same serve-mix stream")
	}

	d1, err1 := coldDeckFor(7)
	d2, err2 := coldDeckFor(7)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range d1 {
		if d1[i].shape.String() != d2[i].shape.String() || d1[i].design != d2[i].design {
			t.Fatalf("verify-cold deck differs at %d", i)
		}
	}

	g1 := randomDAG(rand.New(rand.NewSource(7)), 500, true)
	g2 := randomDAG(rand.New(rand.NewSource(7)), 500, true)
	if err := g1.export(); err != nil {
		t.Fatal(err)
	}
	if err := g2.export(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1.text, g2.text) || !bytes.Equal(g1.json, g2.json) {
		t.Fatal("random DAG exports differ for one seed")
	}

	s1, s2 := simDeck(7), simDeck(7)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sim-sweep deck differs at %d", i)
		}
	}
}

// Every block of 20 requests holds the mix's exact class counts, so
// every seed sends the same share of each class.
func TestStreamBlocksHoldExactMix(t *testing.T) {
	g, err := newStreamGen(3)
	if err != nil {
		t.Fatal(err)
	}
	s := g.stream(200)
	for b := 0; b < len(s); b += 20 {
		counts := map[string]int{}
		for _, r := range s[b : b+20] {
			counts[r.class]++
		}
		for _, c := range mixBlock {
			if counts[c.class] != c.n {
				t.Fatalf("block at %d holds %d %s requests, want %d", b, counts[c.class], c.class, c.n)
			}
		}
	}
}

// Self-time is a span's duration minus the union of its children's
// intervals: overlapping children are not subtracted twice, and a child
// running past its parent is clipped to it.
func TestFoldSelfTimes(t *testing.T) {
	spans := []spanRec{
		{id: "a", name: "root", start: 0, dur: 100},
		{id: "b", parent: "a", name: "left", start: 10, dur: 30},       // [10, 40)
		{id: "c", parent: "a", name: "right", start: 30, dur: 30},      // [30, 60), overlaps b
		{id: "d", parent: "a", name: "late", start: 90, dur: 20},       // [90, 110), runs past a
		{id: "e", parent: "b", name: "inner", start: 15, dur: 10},      // inside b
		{id: "f", parent: "remote:3", name: "other", start: 5, dur: 7}, // root of its own
	}
	want := map[string]int64{"root": 100 - 50 - 10, "left": 20, "right": 30, "late": 20, "inner": 10, "other": 7}
	self := selfTimes(spans)
	for i, s := range spans {
		if self[i] != want[s.name] {
			t.Errorf("%s: self %d, want %d", s.name, self[i], want[s.name])
		}
	}
	f := fold{}
	f.add(spans)
	if got := f.get("root").self.sum(); got != 0.04 {
		t.Errorf("fold root self %.3f ms, want 0.040", got)
	}
	if got := f.unattributed(map[string]bool{"left": true, "right": true, "late": true, "inner": true, "other": true}); got != 0.04 {
		t.Errorf("unattributed %.3f ms, want the root's 0.040", got)
	}
}

// The turn-set validator accepts the engine's real witness and rejects
// forgeries: a broken hop, a turn outside the list, a missing link.
func TestTurnWitnessValidator(t *testing.T) {
	net := topology.NewMesh(4, 4)
	d := design{turns: cyclicTurns[0]}
	ts, vcs, err := d.turnSet(net)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cdg.VerifyTurnSetCtx(context.Background(), net, vcs, ts, 1)
	if err != nil || rep.Acyclic {
		t.Fatalf("known-cyclic turn list verified acyclic: %v %v", rep, err)
	}
	real := hopsOf(rep.Cycle)
	if err := checkTurnCycle(net, vcs, ts, real); err != nil {
		t.Fatalf("real witness rejected: %v", err)
	}
	parsed, err := parseCycle(cdg.FormatCycle(rep.Cycle))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTurnCycle(net, vcs, ts, parsed); err != nil {
		t.Fatalf("served rendering of the real witness rejected: %v", err)
	}

	broken := append([]hop(nil), real...)
	broken[1].from++ // no longer starts where hop 0 ends
	if checkTurnCycle(net, vcs, ts, broken) == nil {
		t.Error("forged cycle with a broken hop accepted")
	}
	// A clockwise square: real links, but turns the list forbids.
	cw := []hop{
		{0, 4, channel.NewVC(channel.Y, channel.Plus, 1)},
		{4, 5, channel.NewVC(channel.X, channel.Plus, 1)},
		{5, 1, channel.NewVC(channel.Y, channel.Minus, 1)},
		{1, 0, channel.NewVC(channel.X, channel.Minus, 1)},
	}
	if checkTurnCycle(net, vcs, ts, cw) == nil {
		t.Error("forged cycle through forbidden turns accepted")
	}
	// A cycle off the mesh edge: n3 has no X+ link.
	edge := []hop{{3, 4, channel.NewVC(channel.X, channel.Plus, 1)}, {4, 3, channel.NewVC(channel.X, channel.Minus, 1)}}
	if checkTurnCycle(net, vcs, ts, edge) == nil {
		t.Error("forged cycle over a missing link accepted")
	}
}

// The graph validator accepts the engine's real witness on a DAG with a
// back edge and rejects a cycle through an edge never generated.
func TestGraphWitnessValidator(t *testing.T) {
	in := randomDAG(rand.New(rand.NewSource(3)), 300, true)
	if err := in.export(); err != nil {
		t.Fatal(err)
	}
	edges := newEdgeSet(in.edges)
	hasSucc := map[int]bool{}
	for _, e := range in.edges {
		hasSucc[e[0]] = true
	}
	sink := -1
	for v := 0; v < in.channels && sink < 0; v++ {
		if !hasSucc[v] {
			sink = v
		}
	}
	if sink < 0 {
		t.Fatal("generated DAG has no sink")
	}
	for _, mode := range graphModes {
		cdg.DefaultModeCache.Reset()
		st := &graphSetup{inputs: []graphInput{in}, edges: []edgeSet{edges}}
		rep, _, err := st.verify(nil, graphOp{0, mode == cdg.ModeLoop, mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.checkMode(edges, mode, rep); err != nil {
			t.Fatalf("%s: real verdict rejected: %v", mode, err)
		}
		if len(rep.Cycle) > 0 {
			// Detour the cycle through a sink: it has no edge back.
			rep.Cycle = append(append([]int(nil), rep.Cycle...), sink)
			if in.checkMode(edges, mode, rep) == nil {
				t.Errorf("%s: forged cycle accepted", mode)
			}
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	s := make(samples, 999)
	for i := range s {
		s[i] = float64(i)
	}
	if _, err := s.tail("x", 0.99); err == nil {
		t.Error("p99 of 999 samples reported")
	}
	s = append(s, 999)
	if v, err := s.tail("x", 0.99); err != nil || v != 989 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 989", v, err)
	}
	if _, err := s[:99].tail("x", 0.9); err == nil {
		t.Error("p90 of 99 samples reported")
	}
	pt := &passTimes{passes: []samples{s[:500], s[500:999]}}
	if _, err := pt.tail("x", 0.99); err == nil {
		t.Error("pooled p99 of 999 samples reported")
	}
}

// Per-pass figures are medians over passes, so one stalled pass does not
// move them; the tail pools every pass.
func TestPassTimesMedianOverPasses(t *testing.T) {
	pt := &passTimes{passes: []samples{{10, 10, 30}, {10, 10, 30}, {100, 100, 300}}}
	if got := pt.rate(); got != 60 {
		t.Errorf("rate %v, want 3 ops per 50 ms", got)
	}
	if got := pt.p50(); got != 10 {
		t.Errorf("p50 %v, want 10", got)
	}
	if got := pt.all().quantile(0.9); got != 300 {
		t.Errorf("pooled p90 %v, want 300", got)
	}
}
