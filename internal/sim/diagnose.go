package sim

import (
	"fmt"
	"strings"

	"ebda/internal/topology"
)

// waitNode identifies one blocked entity in the wait-for graph: an input
// VC buffer or a source queue.
type waitNode struct {
	router topology.NodeID
	port   int
	vc     int
	src    bool
}

// diagnose extracts a wait cycle from a wedged network: a sequence of
// buffers each of which cannot advance until the next one drains or frees.
// It returns a human-readable trace, or a note when no cycle is found
// (e.g. when the wedge is caused by a routing function that returned no
// candidates). The search starts from the wait nodes in the order the
// scan first meets them, so the same wedge always yields the same trace.
func (s *Simulator) diagnose() string {
	edges := map[waitNode][]waitNode{}
	var order []waitNode
	addEdge := func(from, to waitNode) {
		if _, seen := edges[from]; !seen {
			order = append(order, from)
		}
		edges[from] = append(edges[from], to)
	}

	// target returns the wait node a blocked sender points at: the
	// downstream buffer it needs space or ownership in. If that buffer
	// is empty but held, the wait continues at the holder's own input.
	target := func(r *router, op, ov int) waitNode {
		down := waitNode{router: r.neighbor[op], port: op, vc: ov}
		return down
	}

	for _, r := range s.routers {
		for p := 0; p < s.ports; p++ {
			for v := range r.in[p] {
				ivc := &r.in[p][v]
				if len(ivc.buf) == 0 {
					continue
				}
				me := waitNode{router: r.id, port: p, vc: v}
				switch {
				case ivc.assigned && int(ivc.outPort) != s.ejectPort():
					addEdge(me, target(r, int(ivc.outPort), int(ivc.outVC)))
				case !ivc.assigned && ivc.buf[0].head:
					for _, c := range s.cfg.Alg.Candidates(s.net, r.id, &ivc.cls, ivc.buf[0].pkt.dst) {
						op := dirPort(c.Dim, c.Sign)
						if op < s.ports && r.hasOut[op] && c.VC-1 < len(r.out[op]) {
							addEdge(me, target(r, op, c.VC-1))
						}
					}
				}
			}
		}
		if r.srcLen() > 0 {
			me := waitNode{router: r.id, src: true}
			if r.src.assigned && int(r.src.outPort) != s.ejectPort() {
				addEdge(me, target(r, int(r.src.outPort), int(r.src.outVC)))
			} else if !r.src.assigned && r.srcQ[r.srcHead].head {
				for _, c := range s.cfg.Alg.Candidates(s.net, r.id, nil, r.srcQ[r.srcHead].pkt.dst) {
					op := dirPort(c.Dim, c.Sign)
					if op < s.ports && r.hasOut[op] && c.VC-1 < len(r.out[op]) {
						addEdge(me, target(r, op, c.VC-1))
					}
				}
			}
		}
	}
	// Empty-but-held buffers wait on their holder's input: the holder's
	// remaining flits must flow through before the buffer frees.
	for _, r := range s.routers {
		for p := 0; p < s.ports; p++ {
			for v := range r.in[p] {
				if len(r.in[p][v].buf) > 0 || !r.hasUp[p] {
					continue
				}
				up := s.routers[r.upstream[p]]
				o := up.out[p][v]
				if !o.held {
					continue
				}
				me := waitNode{router: r.id, port: p, vc: v}
				holder := waitNode{router: up.id, port: int(o.holderPort), vc: int(o.holderVC), src: o.holderSrc}
				addEdge(me, holder)
			}
		}
	}

	// DFS for a cycle.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[waitNode]int{}
	var stack []waitNode
	var cycle []waitNode
	var dfs func(u waitNode) bool
	dfs = func(u waitNode) bool {
		color[u] = grey
		stack = append(stack, u)
		for _, w := range edges[u] {
			switch color[w] {
			case grey:
				for i, x := range stack {
					if x == w {
						cycle = append([]waitNode(nil), stack[i:]...)
						return true
					}
				}
			case white:
				if dfs(w) {
					return true
				}
			}
		}
		color[u] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for _, u := range order {
		if color[u] == white && dfs(u) {
			break
		}
	}
	if len(cycle) == 0 {
		obsDiagNoCycle.Inc()
		return "no wait cycle found (check for empty routing candidates)"
	}
	obsDiagCycle.Inc()
	var b strings.Builder
	b.WriteString("wait cycle:\n")
	for _, n := range cycle {
		b.WriteString("  " + s.describe(n) + "\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// describe renders one wait node with its packet context.
func (s *Simulator) describe(n waitNode) string {
	r := s.routers[n.router]
	coord := s.net.Coord(n.router)
	if n.src {
		state := "unallocated"
		if r.src.assigned {
			d, sg := portDir(int(r.src.outPort))
			state = fmt.Sprintf("allocated %s%s vc%d", d, sg, r.src.outVC+1)
		}
		return fmt.Sprintf("source queue at %v (%d flits, %s)", coord, r.srcLen(), state)
	}
	d, sg := portDir(n.port)
	ivc := &r.in[n.port][n.vc]
	detail := "empty"
	if len(ivc.buf) > 0 {
		pkt := ivc.buf[0].pkt
		detail = fmt.Sprintf("%d flits, front pkt %d (%v -> %v)",
			len(ivc.buf), pkt.id, s.net.Coord(pkt.src), s.net.Coord(pkt.dst))
	}
	state := "unallocated"
	if ivc.assigned {
		if int(ivc.outPort) == s.ejectPort() {
			state = "ejecting"
		} else {
			od, osg := portDir(int(ivc.outPort))
			state = fmt.Sprintf("allocated %s%s vc%d", od, osg, ivc.outVC+1)
		}
	}
	return fmt.Sprintf("buffer %s%s vc%d at %v (%s; %s)", d, sg, n.vc+1, coord, detail, state)
}
