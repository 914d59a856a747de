package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/partstrat"
	"ebda/internal/topology"
)

// design is one routing design with its known answer on a mesh: EbDa
// chains are acyclic by Theorems 1-3, and the cyclic turn lists close a
// turn cycle around any unit square. On a torus every design here is
// cyclic: each declares a class in every dimension it routes, and
// same-class continuation around a ring of three or more nodes closes a
// cycle.
type design struct {
	chain string // partition chain, or
	turns string // explicit turn list
	// acyclicOnMesh is the hand-written expected verdict on a mesh.
	acyclicOnMesh bool
}

// cyclicTurns are turn lists known to be cyclic on every mesh of two or
// more dimensions with sides >= 2.
var cyclicTurns = []string{
	// The counter-clockwise turn cycle X+ -> Y+ -> X- -> Y- -> X+.
	"X+>Y+,Y+>X-,X->Y-,Y->X+",
	// All eight 90-degree turns: fully adaptive on one VC.
	"X+>Y+,X+>Y-,X->Y+,X->Y-,Y+>X+,Y+>X-,Y->X+,Y->X-",
	// The clockwise cycle plus one extra turn.
	"X+>Y-,Y->X-,X->Y+,Y+>X+,X+>Y+",
}

// classicChains are the 2D turn models written as EbDa chains: three on
// one VC, then three with a second VC in Y.
var classicChains = []string{
	"PA[X-] -> PB[X+ Y+ Y-]",                    // west-first
	"PA[X+ X- Y-] -> PB[Y+]",                    // north-last
	"PA[X- Y-] -> PB[X+ Y+]",                    // negative-first
	"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",        // Figure 7(b) style, 2 VCs in Y
	"PA[X1- Y1+ Y1-] -> PB[X1+ Y2+ Y2-]",        // its mirror
	"PA[X1+ Y1+] -> PB[X1- Y1-] -> PC[Y2+ Y2-]", // three partitions
}

// familyChains derives the Algorithm 2 family for a VC budget and
// returns up to max of its chains, seeded.
func familyChains(rng *rand.Rand, vcs []int, max int) ([]string, error) {
	chains, err := partstrat.Derive(partstrat.ArrangementFor(vcs))
	if err != nil {
		return nil, fmt.Errorf("derive %v: %w", vcs, err)
	}
	rng.Shuffle(len(chains), func(i, j int) { chains[i], chains[j] = chains[j], chains[i] })
	var out []string
	for _, c := range chains {
		if len(out) == max {
			break
		}
		out = append(out, c.String())
	}
	return out, nil
}

// turnSet builds the design's turn set and VC configuration on net, the
// way ebda-verify and the server do.
func (d design) turnSet(net *topology.Network) (*core.TurnSet, cdg.VCConfig, error) {
	if d.chain != "" {
		chain, err := core.ParseChain(d.chain)
		if err != nil {
			return nil, nil, err
		}
		return chain.AllTurns(), cdg.VCConfigFor(net.Dims(), chain.Channels()), nil
	}
	turns, err := core.ParseTurnList(d.turns)
	if err != nil {
		return nil, nil, err
	}
	ts := core.NewTurnSet()
	for _, t := range turns {
		ts.Add(t.From, t.To, core.ByTheorem1)
	}
	return ts, cdg.VCConfigFor(net.Dims(), ts.Classes()), nil
}

// shape is a concrete regular network.
type shape struct {
	kind  string // "mesh" or "torus"
	sizes []int
}

func (s shape) String() string {
	parts := make([]string, len(s.sizes))
	for i, v := range s.sizes {
		parts[i] = fmt.Sprint(v)
	}
	return s.kind + " " + strings.Join(parts, "x")
}

func (s shape) build() *topology.Network {
	if s.kind == "torus" {
		return topology.NewTorus(s.sizes...)
	}
	return topology.NewMesh(s.sizes...)
}

// want is the design's known verdict on the shape.
func (d design) want(s shape) bool { return s.kind == "mesh" && d.acyclicOnMesh }

// label names a design in failure messages.
func (d design) label() string {
	if d.chain != "" {
		return d.chain
	}
	return "turns " + d.turns
}
