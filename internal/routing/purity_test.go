package routing_test

import (
	"slices"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/duato"
	"ebda/internal/routing"
	"ebda/internal/topology"
	"ebda/internal/updown"
)

// TestCandidatesArePure holds every routing algorithm in the repository
// to the Algorithm contract: asked twice about the same (node, input
// class, destination), Candidates returns equal slices, and the second
// call leaves the first answer untouched. The simulator computes a
// head's candidates once and reuses them while it waits, which is only
// sound under this contract.
func TestCandidatesArePure(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	torus := topology.NewTorus(4, 4)
	mesh3 := topology.NewMesh(3, 3, 3)
	faulty := topology.NewMesh(4, 4).WithoutLinks([]topology.Link{
		{From: mesh.ID(topology.Coord{1, 1}), Dim: channel.X, Sign: channel.Plus},
		{From: mesh.ID(topology.Coord{2, 2}), Dim: channel.Y, Sign: channel.Minus},
	})
	elevators := routing.Elevators{{1, 1}}
	partial := topology.NewPartialMesh3D(3, 3, 2, elevators)
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	fa := duato.New()
	meshUD, err := updown.New(faulty, 0)
	if err != nil {
		t.Fatal(err)
	}
	torusUD, err := updown.New(torus, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		net *topology.Network
		alg routing.Algorithm
	}{
		{mesh, routing.NewXY()},
		{mesh, routing.NewYX()},
		{mesh, &routing.DOR{}},
		{mesh, routing.NewWestFirst()},
		{mesh, routing.NewNorthLast()},
		{mesh, routing.NewNegativeFirst()},
		{mesh, routing.NewOddEven()},
		{mesh, routing.NewUnrestricted()},
		{mesh, routing.NewFromChain("dyxy", chain, 2)},
		{mesh, fa},
		{mesh, fa.EscapeOnly()},
		{torus, routing.NewDatelineTorus()},
		{torus, duato.NewTorus()},
		{torus, torusUD},
		{torus, routing.NewUnrestricted()},
		{faulty, routing.NewFaultTolerant("dyxy-ft", chain, faulty)},
		{faulty, meshUD},
		{mesh3, routing.NewPlanarAdaptive()},
		{mesh3, routing.NewDOR("xyz", channel.X, channel.Y, channel.Z)},
		{partial, routing.NewElevatorFirst(elevators)},
		{partial, routing.NewEbDaElevator(core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]"), elevators)},
	}
	for _, c := range cases {
		// Every class a packet can arrive on, up to three VCs per
		// dimension, plus the injection port.
		ins := []*channel.Class{nil}
		for d := 0; d < c.net.Dims(); d++ {
			for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
				for vc := 1; vc <= 3; vc++ {
					in := channel.NewVC(channel.Dim(d), sign, vc)
					ins = append(ins, &in)
				}
			}
		}
		for cur := topology.NodeID(0); int(cur) < c.net.Nodes(); cur++ {
			for dst := topology.NodeID(0); int(dst) < c.net.Nodes(); dst++ {
				for _, in := range ins {
					first := c.alg.Candidates(c.net, cur, in, dst)
					kept := slices.Clone(first)
					second := c.alg.Candidates(c.net, cur, in, dst)
					if !slices.Equal(first, second) || !slices.Equal(first, kept) {
						t.Fatalf("%s on %v: Candidates(%v, %v, %v) not repeatable: %v then %v (first now %v)",
							c.alg.Name(), c.net, c.net.Coord(cur), in, c.net.Coord(dst), kept, second, first)
					}
				}
			}
		}
	}
}

// pinnedAlgs are the algorithms the simulator benchmark runs, whose warm
// Candidates must neither allocate nor hand out lists a caller can write
// through.
func pinnedAlgs() []routing.Algorithm {
	return []routing.Algorithm{
		routing.NewXY(),
		routing.NewWestFirst(),
		routing.NewOddEven(),
		routing.NewFromChain("dyxy", core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"), 2),
	}
}

// pinnedInputs is the injection port plus every VC-1 and VC-2 input of a
// 2D mesh.
func pinnedInputs() []*channel.Class {
	ins := []*channel.Class{nil}
	for _, d := range []channel.Dim{channel.X, channel.Y} {
		for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= 2; vc++ {
				in := channel.NewVC(d, sign, vc)
				ins = append(ins, &in)
			}
		}
	}
	return ins
}

// TestCandidatesDoNotAllocate pins a warm Candidates sweep over every
// (node, input, destination) of an 8x8 mesh at zero allocations.
func TestCandidatesDoNotAllocate(t *testing.T) {
	net := topology.NewMesh(8, 8)
	ins := pinnedInputs()
	for _, alg := range pinnedAlgs() {
		sweep := func() {
			for cur := topology.NodeID(0); int(cur) < net.Nodes(); cur++ {
				for dst := topology.NodeID(0); int(dst) < net.Nodes(); dst++ {
					for _, in := range ins {
						alg.Candidates(net, cur, in, dst)
					}
				}
			}
		}
		// AllocsPerRun warms up with one sweep, then measures one.
		if n := testing.AllocsPerRun(1, sweep); n != 0 {
			t.Errorf("%s: warm Candidates sweep allocated %v times", alg.Name(), n)
		}
	}
}

// TestCandidatesAppendCopies pins the capacity clipping of shared lists:
// appending to an answer leaves the next answer for the same arguments
// unchanged.
func TestCandidatesAppendCopies(t *testing.T) {
	net := topology.NewMesh(8, 8)
	junk := channel.NewVC(channel.Z, channel.Plus, 9)
	for _, alg := range pinnedAlgs() {
		for cur := topology.NodeID(0); int(cur) < net.Nodes(); cur++ {
			for dst := topology.NodeID(0); int(dst) < net.Nodes(); dst++ {
				for _, in := range pinnedInputs() {
					first := alg.Candidates(net, cur, in, dst)
					want := slices.Clone(first)
					_ = append(first, junk)
					if got := alg.Candidates(net, cur, in, dst); !slices.Equal(got, want) {
						t.Fatalf("%s: Candidates(%v, %v, %v) = %v after an append to the previous answer, want %v",
							alg.Name(), net.Coord(cur), in, net.Coord(dst), got, want)
					}
				}
			}
		}
	}
}
