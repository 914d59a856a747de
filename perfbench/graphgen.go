package main

import (
	"fmt"
	"math/rand"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
	"ebda/internal/topology"
)

// expect is a hand-written mode verdict: whether the property holds and,
// when it does not, the violation reason.
type expect struct {
	ok     bool
	reason string
}

// graphInput is one annotated CDG with its known verdict per mode. Modes
// without an entry are not run on it.
type graphInput struct {
	name     string
	channels int
	edges    [][2]int
	inputs   []int
	outputs  []int
	escape   []int
	want     map[cdg.GraphMode]expect
	text     []byte // constellation text form
	json     []byte // canonical JSON form
}

// known answers shared by the generators.
var (
	holds      = expect{ok: true}
	loopCycle  = expect{reason: cdg.ReasonCycle}
	escCycle   = expect{reason: cdg.ReasonEscapeCycle}
	dfAcyclic  = map[cdg.GraphMode]expect{cdg.ModeLoop: holds, cdg.ModeLiveness: holds, cdg.ModeEscape: holds, cdg.ModeSubrel: holds}
	dfOneVC    = map[cdg.GraphMode]expect{cdg.ModeLoop: loopCycle, cdg.ModeLiveness: loopCycle, cdg.ModeSubrel: holds}
	dagAnswers = map[cdg.GraphMode]expect{cdg.ModeLoop: holds, cdg.ModeLiveness: holds, cdg.ModeEscape: holds, cdg.ModeSubrel: holds}
	backAnswer = map[cdg.GraphMode]expect{cdg.ModeLoop: loopCycle, cdg.ModeLiveness: loopCycle, cdg.ModeEscape: escCycle, cdg.ModeSubrel: holds}
)

// dragonflyInput generates a dragonfly's channel graph. Minimal routing
// on one VC closes the local-global-local cycle (every channel still
// drains to an ejection, so a subrelation exists); on two VCs the graph
// is acyclic and the VC1 local channels plus the global channels form a
// valid escape set.
func dragonflyInput(d topology.Dragonfly, vcs int) (graphInput, error) {
	cg, err := d.ChannelGraph(vcs)
	if err != nil {
		return graphInput{}, err
	}
	in := graphInput{
		name:     fmt.Sprintf("dragonfly-%dx%dx%d-%dvc", d.Groups, d.Routers, d.Terminals, vcs),
		channels: cg.Channels, edges: cg.Edges, inputs: cg.Inputs, outputs: cg.Outputs,
		want: dfOneVC,
	}
	if vcs >= 2 {
		in.want = dfAcyclic
		for g := 0; g < d.Groups; g++ {
			for i := 0; i < d.Routers; i++ {
				for j := 0; j < d.Routers; j++ {
					if i != j {
						in.escape = append(in.escape, d.Local(g, i, j, 1, vcs))
					}
				}
			}
		}
		for a := 0; a < d.Groups; a++ {
			for b := 0; b < d.Groups; b++ {
				if a != b {
					in.escape = append(in.escape, d.Global(a, b, vcs))
				}
			}
		}
	}
	return in, nil
}

// randomDAG builds an n-channel graph that is acyclic by construction:
// edges only go up a random rank order, every channel but the top one
// has an edge up, and the top channel is an output. With back set, one
// edge closes a cycle of two to six channels along those guaranteed
// edges, starting at an input and touching no output: loop, liveness
// and escape (whose set is every non-output channel) must then fail with
// a cycle, and a subrelation still exists.
func randomDAG(rng *rand.Rand, n int, back bool) graphInput {
	order := rng.Perm(n)
	next := make([]int, n) // guaranteed successor by rank
	var edges [][2]int
	seen := map[[2]int]bool{}
	add := func(a, b int) {
		e := [2]int{order[a], order[b]}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for r := 0; r < n-1; r++ {
		span := min(8, n-1-r)
		next[r] = r + 1 + rng.Intn(span)
		add(r, next[r])
		for k := rng.Intn(3); k > 0; k-- {
			add(r, r+1+rng.Intn(min(64, n-1-r)))
		}
	}
	isOut := map[int]bool{n - 1: true}
	for r := n / 2; r < n-1; r++ {
		if rng.Intn(16) == 0 {
			isOut[r] = true
		}
	}
	isIn := map[int]bool{0: true}
	for r := 1; r < n/8; r++ {
		if rng.Intn(4) == 0 {
			isIn[r] = true
		}
	}
	in := graphInput{name: fmt.Sprintf("dag-%d", n), channels: n, want: dagAnswers}
	if back {
		// The cycle lives in the lowest quarter of ranks, below every
		// output (outputs sit in the upper half).
		u := rng.Intn(n / 4)
		v := u
		for steps := 1 + rng.Intn(5); steps > 0; steps-- {
			v = next[v]
		}
		add(v, u)
		isIn[u] = true
		in.name = fmt.Sprintf("dag-back-%d", n)
		in.want = backAnswer
	}
	for r := 0; r < n; r++ {
		switch {
		case isOut[r]:
			in.outputs = append(in.outputs, order[r])
		default:
			in.escape = append(in.escape, order[r])
		}
		if isIn[r] {
			in.inputs = append(in.inputs, order[r])
		}
	}
	in.edges = edges
	return in
}

// export renders the input's text and JSON forms through graphio.
func (in *graphInput) export() error {
	g, err := graphio.New(in.channels, in.inputs, in.outputs, in.edges)
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	in.text = g.ExportCDG()
	in.json = g.ExportJSON()
	return nil
}

// checkMode compares a mode verdict with the known answer and validates
// its witness against the generated edge list.
func (in *graphInput) checkMode(edges edgeSet, mode cdg.GraphMode, rep cdg.ModeReport) error {
	want := in.want[mode]
	if rep.OK != want.ok || rep.Reason != want.reason {
		return fmt.Errorf("%s %s: verdict ok=%t reason=%q, known answer ok=%t reason=%q",
			in.name, mode, rep.OK, rep.Reason, want.ok, want.reason)
	}
	if rep.Nodes != in.channels || rep.Edges != len(in.edges) {
		return fmt.Errorf("%s %s: %d channels, %d edges; generated %d, %d",
			in.name, mode, rep.Nodes, rep.Edges, in.channels, len(in.edges))
	}
	switch want.reason {
	case cdg.ReasonCycle:
		if err := checkGraphCycle(edges, rep.Cycle, nil); err != nil {
			return fmt.Errorf("%s %s: %w", in.name, mode, err)
		}
		if mode == cdg.ModeLiveness {
			if err := checkGraphPath(edges, idSet(in.inputs), rep.Path, rep.Cycle); err != nil {
				return fmt.Errorf("%s %s: %w", in.name, mode, err)
			}
		}
	case cdg.ReasonEscapeCycle:
		if err := checkGraphCycle(edges, rep.Cycle, idSet(in.escape)); err != nil {
			return fmt.Errorf("%s %s: %w", in.name, mode, err)
		}
	}
	if mode == cdg.ModeSubrel {
		for _, e := range rep.Subrelation {
			if !edges.has(e[0], e[1]) {
				return fmt.Errorf("%s subrel: edge n%d->n%d was never generated", in.name, e[0], e[1])
			}
		}
	}
	return nil
}

func idSet(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, v := range ids {
		m[v] = true
	}
	return m
}
