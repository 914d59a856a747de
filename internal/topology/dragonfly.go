package topology

import "fmt"

// This file adds the first non-mesh generator: a canonical dragonfly —
// fully connected groups of routers joined by all-to-all global links —
// expressed directly as an annotated channel dependence graph rather
// than as a coordinate Network. The dragonfly is the classic exerciser
// for the multi-mode verifier because minimal routing over a single
// virtual channel deadlocks (the local-global-local cycle), while the
// textbook two-VC discipline (VC0 before the global hop, VC1 after)
// breaks every cycle; both variants come out of the same generator.

// ChannelGraph is a plain-data annotated CDG: channel count, input and
// output channel ids, and directed dependency edges. It is the bridge
// from topology generators to graphio.New without the topology package
// depending on the verification engine.
type ChannelGraph struct {
	Channels int
	Inputs   []int
	Outputs  []int
	Edges    [][2]int
}

// Dragonfly describes a dragonfly: Groups fully connected groups, each
// of Routers fully connected routers with Terminals terminals apiece.
// Every ordered group pair (a, b) gets one dedicated global channel,
// hosted round-robin over the routers of a.
type Dragonfly struct {
	Groups    int
	Routers   int
	Terminals int
}

// Validate checks the shape is constructible.
func (d Dragonfly) Validate() error {
	if d.Groups < 2 {
		return fmt.Errorf("topology: dragonfly needs >= 2 groups, got %d", d.Groups)
	}
	if d.Routers < 1 || d.Terminals < 1 {
		return fmt.Errorf("topology: dragonfly needs >= 1 router and terminal per group, got %d x %d",
			d.Routers, d.Terminals)
	}
	return nil
}

// terminals returns the system terminal count.
func (d Dragonfly) terminals() int { return d.Groups * d.Routers * d.Terminals }

// Inj returns the injection channel id of terminal k of router r in
// group g. Injection channels are the CDG inputs.
func (d Dragonfly) Inj(g, r, k int) int { return (g*d.Routers+r)*d.Terminals + k }

// Ej returns the ejection channel id mirroring Inj. Ejection channels
// are the CDG outputs.
func (d Dragonfly) Ej(g, r, k int) int { return d.terminals() + d.Inj(g, r, k) }

// Local returns the channel id of virtual channel vc on the directed
// local link from router i to router j (i != j) inside group g. The
// graph has vcs local VCs; vc must be in [0, vcs).
func (d Dragonfly) Local(g, i, j, vc, vcs int) int {
	k := j
	if j > i {
		k = j - 1
	}
	slot := g*d.Routers*(d.Routers-1) + i*(d.Routers-1) + k
	return 2*d.terminals() + slot*vcs + vc
}

// Global returns the channel id of the global link from group a to
// group b (a != b).
func (d Dragonfly) Global(a, b, vcs int) int {
	k := b
	if b > a {
		k = b - 1
	}
	return 2*d.terminals() + d.Groups*d.Routers*(d.Routers-1)*vcs + a*(d.Groups-1) + k
}

// Gateway returns the router of group a hosting the global link toward
// group b.
func (d Dragonfly) Gateway(a, b int) int {
	k := b
	if b > a {
		k = b - 1
	}
	return k % d.Routers
}

// NumChannels returns the channel count of the vcs-VC graph.
func (d Dragonfly) NumChannels(vcs int) int {
	return 2*d.terminals() + d.Groups*d.Routers*(d.Routers-1)*vcs + d.Groups*(d.Groups-1)
}

// ChannelGraph builds the CDG of minimal routing over vcs local virtual
// channels. Every source terminal routes to every destination terminal:
// inside a group, one local hop on VC0; across groups, local to the
// gateway on VC0, the global channel, then local to the final router on
// VC vcs-1. With vcs == 1 the two local stages share channels and the
// classic local-global-local cycle appears; with vcs >= 2 the graph is
// acyclic.
//
// Each dependency is emitted exactly once, so no set is needed to
// deduplicate the terminal-pair routes: the routes' edges fall into
// eight disjoint families, each enumerated once per router pair or
// group pair, with the terminal fan-outs (injection to first hop, last
// hop to every ejection channel of a router) expanded in place.
func (d Dragonfly) ChannelGraph(vcs int) (ChannelGraph, error) {
	if err := d.Validate(); err != nil {
		return ChannelGraph{}, err
	}
	if vcs < 1 {
		return ChannelGraph{}, fmt.Errorf("topology: dragonfly needs >= 1 virtual channel, got %d", vcs)
	}
	groups, routers, terms := d.Groups, d.Routers, d.Terminals
	cg := ChannelGraph{
		Channels: d.NumChannels(vcs),
		Inputs:   make([]int, 0, d.terminals()),
		Outputs:  make([]int, 0, d.terminals()),
		Edges:    make([][2]int, 0, d.numEdges(vcs)),
	}
	for g := 0; g < groups; g++ {
		for r := 0; r < routers; r++ {
			for k := 0; k < terms; k++ {
				cg.Inputs = append(cg.Inputs, d.Inj(g, r, k))
				cg.Outputs = append(cg.Outputs, d.Ej(g, r, k))
			}
		}
	}
	add := func(from, to int) { cg.Edges = append(cg.Edges, [2]int{from, to}) }
	// eject adds from -> every ejection channel of router r of group g.
	eject := func(from, g, r int) {
		for k := 0; k < terms; k++ {
			add(from, d.Ej(g, r, k))
		}
	}
	// Global channel j of a group is hosted on router j % routers, so the
	// gateways of every group are its first min(routers, groups-1)
	// routers: the only senders of VC vcs-1 local hops.
	gateways := min(routers, groups-1)
	last := vcs - 1
	for g := 0; g < groups; g++ {
		for r := 0; r < routers; r++ {
			for k := 0; k < terms; k++ {
				inj := d.Inj(g, r, k)
				eject(inj, g, r) // destination on the source router
				for r2 := 0; r2 < routers; r2++ {
					if r2 != r {
						add(inj, d.Local(g, r, r2, 0, vcs)) // first hop local
					}
				}
				for g2 := 0; g2 < groups; g2++ {
					if g2 != g && d.Gateway(g, g2) == r {
						add(inj, d.Global(g, g2, vcs)) // first hop global
					}
				}
			}
			for r2 := 0; r2 < routers; r2++ {
				if r2 == r {
					continue
				}
				eject(d.Local(g, r, r2, 0, vcs), g, r2) // intra-group route ends
				// An inter-group route's last local hop; on one VC it is
				// the hop above.
				if vcs > 1 && r < gateways {
					eject(d.Local(g, r, r2, last, vcs), g, r2)
				}
			}
		}
		for g2 := 0; g2 < groups; g2++ {
			if g2 == g {
				continue
			}
			gw, glob, gw2 := d.Gateway(g, g2), d.Global(g, g2, vcs), d.Gateway(g2, g)
			for r := 0; r < routers; r++ {
				if r != gw {
					add(d.Local(g, r, gw, 0, vcs), glob) // to the gateway
				}
			}
			for r2 := 0; r2 < routers; r2++ {
				if r2 != gw2 {
					add(glob, d.Local(g2, gw2, r2, last, vcs)) // from the far gateway
				}
			}
			eject(glob, g2, gw2) // destination on the far gateway
		}
	}
	return cg, nil
}

// numEdges counts ChannelGraph's dependencies, family by family.
func (d Dragonfly) numEdges(vcs int) int {
	g, r, t := d.Groups, d.Routers, d.Terminals
	n := g*r*t*t + // injection to ejection on one router
		2*g*r*(r-1)*t + // injection to a VC0 local; VC0 local to ejection
		g*(g-1)*t + // injection to a global
		2*g*(g-1)*(r-1) + // VC0 local to a global; global to a last-VC local
		g*(g-1)*t // global to ejection
	if vcs > 1 {
		n += g * min(r, g-1) * (r - 1) * t // last-VC local to ejection
	}
	return n
}
