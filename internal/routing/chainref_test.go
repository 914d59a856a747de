package routing

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// refFromChain is the FromChain that re-derived its answer on every call:
// reachability memoised in a struct-keyed map under an RWMutex, design
// classes matched by scanning the class list. It is kept as the oracle
// the compiled per-destination tables are held to. Its memo is not keyed
// by network, so each network needs its own instance.
type refFromChain struct {
	turns     *core.TurnSet
	vcs       []int
	classes   []channel.Class
	target    TargetFn
	mu        sync.RWMutex
	reachMemo map[refReachKey]bool
}

type refReachKey struct {
	node topology.NodeID
	cls  channel.Class
	dst  topology.NodeID
}

func newRefFromChain(a *FromChain) *refFromChain {
	return &refFromChain{
		turns: a.turns, vcs: a.vcs, classes: a.turns.Classes(), target: a.target,
		reachMemo: make(map[refReachKey]bool),
	}
}

// refProductiveDirs is the allocating productiveDirs the shared
// direction lists replaced.
func refProductiveDirs(net *topology.Network, cur, dst topology.NodeID) []channel.Class {
	var out []channel.Class
	for d, off := range net.MinimalOffsets(cur, dst) {
		if off == 0 {
			continue
		}
		sign := channel.Plus
		if off < 0 {
			sign = channel.Minus
		}
		if net.HasLink(cur, channel.Dim(d), sign) {
			out = append(out, channel.New(channel.Dim(d), sign))
		}
	}
	return out
}

func (a *refFromChain) matchAt(coord topology.Coord, d channel.Dim, sign channel.Sign, vc int) []channel.Class {
	var out []channel.Class
	for _, cls := range a.classes {
		if cls.Dim != d || cls.Sign != sign || cls.VC != vc {
			continue
		}
		if cls.Par != channel.Any && !cls.Par.Matches(coord[cls.PDim]) {
			continue
		}
		out = append(out, cls)
	}
	return out
}

func (a *refFromChain) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	curCoord := net.Coord(cur)
	var inClasses []channel.Class
	if in != nil {
		inClasses = a.matchAt(curCoord, in.Dim, in.Sign, in.VC)
	}
	steer := dst
	if a.target != nil {
		steer = a.target(net, cur, dst)
	}
	var out []channel.Class
	for _, dir := range refProductiveDirs(net, cur, steer) {
		next, _, ok := net.Neighbor(cur, dir.Dim, dir.Sign)
		if !ok {
			continue
		}
		for vc := 1; vc <= a.vcs[dir.Dim]; vc++ {
			viable := false
			for _, oc := range a.matchAt(curCoord, dir.Dim, dir.Sign, vc) {
				allowed := in == nil
				if !allowed {
					for _, ic := range inClasses {
						if a.turns.Allows(ic, oc) {
							allowed = true
							break
						}
					}
				}
				if allowed && a.canReach(net, next, oc, dst) {
					viable = true
					break
				}
			}
			if viable {
				out = append(out, dir.WithVC(vc))
			}
		}
	}
	return out
}

func (a *refFromChain) canReach(net *topology.Network, node topology.NodeID, cls channel.Class, dst topology.NodeID) bool {
	if node == dst {
		return true
	}
	key := refReachKey{node: node, cls: cls, dst: dst}
	a.mu.RLock()
	v, ok := a.reachMemo[key]
	a.mu.RUnlock()
	if ok {
		return v
	}
	return a.canReachRec(net, node, cls, dst, map[refReachKey]bool{})
}

func (a *refFromChain) canReachRec(net *topology.Network, node topology.NodeID, cls channel.Class, dst topology.NodeID, visiting map[refReachKey]bool) bool {
	if node == dst {
		return true
	}
	key := refReachKey{node: node, cls: cls, dst: dst}
	a.mu.RLock()
	v, ok := a.reachMemo[key]
	a.mu.RUnlock()
	if ok {
		return v
	}
	if visiting[key] {
		return false
	}
	visiting[key] = true
	steer := dst
	if a.target != nil {
		steer = a.target(net, node, dst)
	}
	coord := net.Coord(node)
	result := false
loop:
	for _, dir := range refProductiveDirs(net, node, steer) {
		next, _, ok := net.Neighbor(node, dir.Dim, dir.Sign)
		if !ok {
			continue
		}
		for vc := 1; vc <= a.vcs[dir.Dim]; vc++ {
			for _, oc := range a.matchAt(coord, dir.Dim, dir.Sign, vc) {
				if !a.turns.Allows(cls, oc) {
					continue
				}
				if a.canReachRec(net, next, oc, dst, visiting) {
					result = true
					break loop
				}
			}
		}
	}
	delete(visiting, key)
	a.mu.Lock()
	a.reachMemo[key] = result
	a.mu.Unlock()
	return result
}

// chainRefInputs is every input the differential tests ask about: the
// injection port and each (dim, sign, VC 0..3) of the network, so VCs
// outside the design are covered too.
func chainRefInputs(net *topology.Network) []*channel.Class {
	ins := []*channel.Class{nil}
	for d := 0; d < net.Dims(); d++ {
		for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 0; vc <= 3; vc++ {
				in := channel.NewVC(channel.Dim(d), sign, vc)
				ins = append(ins, &in)
			}
		}
	}
	return ins
}

type chainRefCase struct {
	name string
	net  *topology.Network
	alg  *FromChain
}

func chainRefCases() []chainRefCase {
	dyxy := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	// The Odd-Even parity chain of TestFromChainOddEvenCrossCheck.
	oddEven := core.MustChain(
		core.MustPartition("PA",
			channel.New(channel.X, channel.Minus),
			channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Even),
			channel.NewParity(channel.Y, channel.Minus, channel.X, channel.Even)),
		core.MustPartition("PB",
			channel.New(channel.X, channel.Plus),
			channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Odd),
			channel.NewParity(channel.Y, channel.Minus, channel.X, channel.Odd)))
	mesh8 := topology.NewMesh(8, 8)
	faulty := mesh8.WithoutLinks([]topology.Link{
		{From: mesh8.ID(topology.Coord{3, 3}), Dim: channel.X, Sign: channel.Plus},
		{From: mesh8.ID(topology.Coord{5, 2}), Dim: channel.Y, Sign: channel.Minus},
		{From: mesh8.ID(topology.Coord{1, 6}), Dim: channel.Y, Sign: channel.Plus},
	})
	elevators := Elevators{{0, 0}, {2, 1}}
	return []chainRefCase{
		{"dyxy-8x8", mesh8, NewFromChain("dyxy", dyxy, 2)},
		{"odd-even-6x6", topology.NewMesh(6, 6), NewFromChain("odd-even", oddEven, 2)},
		{"3d-3x3x3", topology.NewMesh(3, 3, 3),
			NewFromChain("3d", core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]"), 3)},
		{"elevator-3x3x3", topology.NewPartialMesh3D(3, 3, 3, elevators),
			NewEbDaElevator(core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]"), elevators)},
		{"torus-4x4", topology.NewTorus(4, 4), NewFromChain("dyxy", dyxy, 2)},
		{"faulty-8x8", faulty, NewFromChain("dyxy", dyxy, 2)},
	}
}

// TestFromChainMatchesReference holds the compiled FromChain to the
// map-memo oracle on every (node, input, destination) of each case.
func TestFromChainMatchesReference(t *testing.T) {
	for _, c := range chainRefCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := newRefFromChain(c.alg)
			ins := chainRefInputs(c.net)
			for cur := topology.NodeID(0); int(cur) < c.net.Nodes(); cur++ {
				for dst := topology.NodeID(0); int(dst) < c.net.Nodes(); dst++ {
					for _, in := range ins {
						got := c.alg.Candidates(c.net, cur, in, dst)
						want := ref.Candidates(c.net, cur, in, dst)
						if !slices.Equal(got, want) {
							t.Fatalf("Candidates(%v, %v, %v) = %v, reference %v",
								c.net.Coord(cur), in, c.net.Coord(dst), got, want)
						}
					}
				}
			}
		})
	}
}

// TestFromChainConcurrentNetworks hammers one fresh FromChain from
// several goroutines on two networks at once (run it under -race): each
// network compiles its own table, every column is built once and
// published, and every answer matches the oracle.
func TestFromChainConcurrentNetworks(t *testing.T) {
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	alg := NewFromChain("dyxy", chain, 2)
	nets := []*topology.Network{topology.NewMesh(6, 6), topology.NewMesh(5, 7)}
	type query struct {
		net      *topology.Network
		cur, dst topology.NodeID
		in       *channel.Class
		want     []channel.Class
	}
	var queries []query
	for _, net := range nets {
		ref := newRefFromChain(alg)
		for cur := topology.NodeID(0); int(cur) < net.Nodes(); cur++ {
			for dst := topology.NodeID(0); int(dst) < net.Nodes(); dst++ {
				for _, in := range chainRefInputs(net) {
					queries = append(queries, query{net, cur, dst, in, ref.Candidates(net, cur, in, dst)})
				}
			}
		}
	}
	const workers = 4
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the queries from its own offset, so
			// columns of both networks are first built concurrently.
			for i := range queries {
				q := queries[(i+w*len(queries)/workers)%len(queries)]
				if got := alg.Candidates(q.net, q.cur, q.in, q.dst); !slices.Equal(got, q.want) {
					errs <- fmt.Sprintf("%v: Candidates(%v, %v, %v) = %v, reference %v",
						q.net, q.net.Coord(q.cur), q.in, q.net.Coord(q.dst), got, q.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
