package main

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// The witness checks below use only the network's adjacency, the turn
// list and the edge list the benchmark generated: never the engine's
// dependency graph, whose answer they check.

// hop is one channel of a turn-set cycle witness.
type hop struct {
	from, to topology.NodeID
	cls      channel.Class
}

// hopsOf converts an engine cycle into hops.
func hopsOf(cyc []cdg.Channel) []hop {
	out := make([]hop, len(cyc))
	for i, c := range cyc {
		out[i] = hop{c.Link.From, c.Link.To, c.Class()}
	}
	return out
}

// parseCycle reads the served rendering of a cycle,
// "n0->n1 X1+ => n1->n9 Y1+ => (repeat)", into hops.
func parseCycle(s string) ([]hop, error) {
	parts := strings.Split(s, " => ")
	if len(parts) < 2 || parts[len(parts)-1] != "(repeat)" {
		return nil, fmt.Errorf("cycle %q does not end in (repeat)", s)
	}
	var out []hop
	for _, p := range parts[:len(parts)-1] {
		link, cls, ok := strings.Cut(p, " ")
		if !ok {
			return nil, fmt.Errorf("cycle hop %q has no class", p)
		}
		a, b, ok := strings.Cut(link, "->")
		if !ok {
			return nil, fmt.Errorf("cycle hop %q has no link", p)
		}
		from, err1 := strconv.Atoi(strings.TrimPrefix(a, "n"))
		to, err2 := strconv.Atoi(strings.TrimPrefix(b, "n"))
		c, err3 := channel.Parse(cls)
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("cycle hop %q: %v", p, err)
		}
		out = append(out, hop{topology.NodeID(from), topology.NodeID(to), c})
	}
	return out, nil
}

// checkTurnCycle accepts a cycle witness only when every hop is a link of
// the network on a VC the design provides, each hop starts where the
// previous one ended, and the turn list allows every transition,
// including the one that closes the cycle.
func checkTurnCycle(net *topology.Network, vcs cdg.VCConfig, ts *core.TurnSet, cyc []hop) error {
	if len(cyc) < 2 {
		return fmt.Errorf("cycle of %d channels", len(cyc))
	}
	for i, h := range cyc {
		if int(h.from) < 0 || int(h.from) >= net.Nodes() || int(h.cls.Dim) >= net.Dims() {
			return fmt.Errorf("hop %d: n%d %s outside the network", i, h.from, h.cls)
		}
		to, _, ok := net.Neighbor(h.from, h.cls.Dim, h.cls.Sign)
		if !ok || to != h.to {
			return fmt.Errorf("hop %d: no link n%d->n%d in direction %s", i, h.from, h.to, h.cls)
		}
		if h.cls.VC < 1 || h.cls.VC > vcs.VCs(h.cls.Dim) {
			return fmt.Errorf("hop %d: VC %d not provided", i, h.cls.VC)
		}
		next := cyc[(i+1)%len(cyc)]
		if next.from != h.to {
			return fmt.Errorf("hop %d ends at n%d but hop %d starts at n%d", i, h.to, (i+1)%len(cyc), next.from)
		}
		if !ts.Allows(h.cls, next.cls) {
			return fmt.Errorf("turn %s>%s at n%d is not in the turn list", h.cls, next.cls, h.to)
		}
	}
	return nil
}

// edgeSet is the benchmark's own record of a generated graph's edges:
// sorted (from, to) keys, searched by bisection. It takes 8 bytes an
// edge, a fraction of a map's footprint on the 272k-edge dragonfly.
type edgeSet []uint64

func edgeKey(from, to int) uint64 { return uint64(from)<<32 | uint64(uint32(to)) }

func newEdgeSet(edges [][2]int) edgeSet {
	s := make(edgeSet, len(edges))
	for i, e := range edges {
		s[i] = edgeKey(e[0], e[1])
	}
	slices.Sort(s)
	return s
}

// has reports whether from -> to was generated.
func (s edgeSet) has(from, to int) bool {
	_, ok := slices.BinarySearch(s, edgeKey(from, to))
	return ok
}

// checkGraphCycle accepts a cycle only when every consecutive pair, and
// the pair closing it, is a generated edge and, when within is non-nil,
// every channel lies in that set.
func checkGraphCycle(edges edgeSet, cyc []int, within map[int]bool) error {
	if len(cyc) == 0 {
		return errors.New("empty cycle")
	}
	for i, v := range cyc {
		w := cyc[(i+1)%len(cyc)]
		if !edges.has(v, w) {
			return fmt.Errorf("cycle edge n%d->n%d was never generated", v, w)
		}
		if within != nil && !within[v] {
			return fmt.Errorf("cycle channel n%d outside the escape set", v)
		}
	}
	return nil
}

// checkGraphPath accepts a liveness witness path only when it starts at
// an input, follows generated edges, and reaches the cycle.
func checkGraphPath(edges edgeSet, inputs map[int]bool, path, cyc []int) error {
	if len(path) == 0 {
		for _, c := range cyc {
			if inputs[c] {
				return nil
			}
		}
		return errors.New("no path, and no input on the cycle")
	}
	if !inputs[path[0]] {
		return fmt.Errorf("path starts at n%d, not an input", path[0])
	}
	for i := 1; i < len(path); i++ {
		if !edges.has(path[i-1], path[i]) {
			return fmt.Errorf("path edge n%d->n%d was never generated", path[i-1], path[i])
		}
	}
	last := path[len(path)-1]
	for _, c := range cyc {
		if c == last {
			return nil
		}
	}
	if len(cyc) > 0 && !edges.has(last, cyc[0]) {
		return fmt.Errorf("path ends at n%d, which does not reach the cycle", last)
	}
	return nil
}
