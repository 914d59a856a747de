// Package routing turns deadlock-free designs into executable routing
// algorithms and provides the classic baselines the paper discusses:
// dimension-order routing, the Glass/Ni turn models (West-First,
// North-Last, Negative-First), Chiu's Odd-Even model, Elevator-First for
// vertically partially connected 3D networks, and dateline routing for
// tori.
//
// An Algorithm answers one question: given where a packet is, the channel
// it arrived on and its destination, which output channels may it request?
// The wormhole simulator (internal/sim) consumes this interface directly,
// and internal/cdg can verify any Algorithm by extracting its full routing
// relation.
package routing

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// Algorithm is a distributed routing function.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Candidates returns the output channels a packet at cur may request
	// toward dst. in is the channel the packet arrived on, nil at the
	// injection port. The returned classes are concrete requests
	// (dimension, direction, VC; parity always Any). An empty result for
	// cur != dst means the algorithm is broken for that situation.
	//
	// Candidates must be a deterministic function of its arguments: the
	// same (net, cur, *in, dst) always yields the same classes in the
	// same order, whatever was asked before. Callers rely on this to
	// compute a packet's candidates once and reuse them while it waits
	// (the simulator does). An implementation must not retain or modify
	// *in.
	//
	// The returned list may be shared: with later calls, with other
	// goroutines, with a precompiled table. Callers read it but must not
	// modify it; copy before sorting or editing in place. Shared lists
	// are capacity-clipped (l[:n:n]), so a caller's append copies
	// instead of writing into the table.
	Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class
}

// DOR is deterministic dimension-order routing: dimensions are fully
// corrected one at a time in Order; XY routing is DOR with order {X, Y}.
type DOR struct {
	// Order lists the dimensions in correction order. Empty means
	// ascending dimension order.
	Order []channel.Dim
	// VC is the virtual channel used (1 by default).
	VC   int
	name string
}

// NewXY returns 2D XY routing.
func NewXY() *DOR { return &DOR{Order: []channel.Dim{channel.X, channel.Y}, name: "xy"} }

// NewYX returns 2D YX routing.
func NewYX() *DOR { return &DOR{Order: []channel.Dim{channel.Y, channel.X}, name: "yx"} }

// NewDOR returns dimension-order routing over the given dimension order.
func NewDOR(name string, order ...channel.Dim) *DOR { return &DOR{Order: order, name: name} }

// Name implements Algorithm.
func (a *DOR) Name() string {
	if a.name == "" {
		return "dor"
	}
	return a.name
}

// Candidates implements Algorithm.
func (a *DOR) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	vc := a.VC
	if vc == 0 {
		vc = 1
	}
	n := len(a.Order)
	if n == 0 {
		n = net.Dims()
	}
	for i := 0; i < n; i++ {
		d := channel.Dim(i)
		if len(a.Order) > 0 {
			d = a.Order[i]
		}
		off := net.MinimalOffset(cur, dst, d)
		if off == 0 {
			continue
		}
		sign := channel.Plus
		if off < 0 {
			sign = channel.Minus
		}
		return unit(d, sign, vc)
	}
	return nil
}

// TurnModel2D is a rule-based 2D partially adaptive algorithm in the
// classic priority formulation: the "first" directions must be exhausted
// before any other hop is taken, and the "last" direction may only be
// taken when it is the sole remaining one. This is how West-First,
// North-Last and Negative-First are implemented in practice — a pure
// prohibited-turn filter would offer hops that dead-end.
type TurnModel2D struct {
	name string
	// first reports directions that take priority over everything else.
	first func(channel.Class) bool
	// last reports the direction that may only be taken when alone.
	last func(channel.Class) bool
}

// NewWestFirst returns the West-First turn model: all west (X-) hops are
// taken first; afterwards routing among E/N/S is fully adaptive.
func NewWestFirst() *TurnModel2D {
	return &TurnModel2D{name: "west-first",
		first: func(c channel.Class) bool { return c.Dim == channel.X && c.Sign == channel.Minus }}
}

// NewNorthLast returns the North-Last turn model: north (Y+) hops are taken
// only when no other productive direction remains; routing among E/W/S is
// fully adaptive.
func NewNorthLast() *TurnModel2D {
	return &TurnModel2D{name: "north-last",
		last: func(c channel.Class) bool { return c.Dim == channel.Y && c.Sign == channel.Plus }}
}

// NewNegativeFirst returns the Negative-First turn model: all negative
// hops (W and S) are taken first, adaptively; then the positive hops,
// adaptively.
func NewNegativeFirst() *TurnModel2D {
	return &TurnModel2D{name: "negative-first",
		first: func(c channel.Class) bool { return c.Sign == channel.Minus }}
}

// Name implements Algorithm.
func (a *TurnModel2D) Name() string { return a.name }

// Candidates implements Algorithm.
func (a *TurnModel2D) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	dirs := productiveMask(net, cur, dst)
	if a.first != nil {
		if priority := filterDirs(dirs, a.first, true); priority != 0 {
			return dirList(priority)
		}
	} else if a.last != nil {
		if rest := filterDirs(dirs, a.last, false); rest != 0 {
			return dirList(rest)
		}
	}
	return dirList(dirs)
}

// filterDirs returns the directions of mask whose VC-1 class satisfies
// pred (keep) or fails it (!keep).
func filterDirs(mask uint64, pred func(channel.Class) bool, keep bool) uint64 {
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if pred(channel.New(dirOf(b))) == keep {
			out |= 1 << b
		}
	}
	return out
}

// OddEven is Chiu's Odd-Even turn model, implemented with the conditions
// of the original ROUTE function (which avoid the dead ends a naive
// prohibited-turn filter would create):
//
//   - eastbound with a row offset: N/S may be taken at odd columns, or
//     when the packet did not arrive on an eastbound channel (injection or
//     arrival on a Y channel); E may be taken unless it would enter an
//     even destination column that still needs a row correction;
//   - westbound: W is always available; N/S only at even columns.
type OddEven struct{}

// NewOddEven returns the Odd-Even baseline.
func NewOddEven() *OddEven { return &OddEven{} }

// Name implements Algorithm.
func (a *OddEven) Name() string { return "odd-even" }

// Candidates implements Algorithm.
func (a *OddEven) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	cx, dstX := net.CoordAt(cur, channel.X), net.CoordAt(dst, channel.X)
	dx := dstX - cx
	dy := net.CoordAt(dst, channel.Y) - net.CoordAt(cur, channel.Y)
	ySign, yi := channel.Plus, 0
	if dy < 0 {
		ySign, yi = channel.Minus, 1
	}
	switch {
	case dx == 0 && dy == 0:
		return nil
	case dx == 0:
		return unit(channel.Y, ySign, 1)
	case dx > 0: // eastbound
		if dy == 0 {
			return unit(channel.X, channel.Plus, 1)
		}
		odd := cx%2 != 0
		arrivedEast := in != nil && in.Dim == channel.X && in.Sign == channel.Plus
		y := odd || !arrivedEast
		x := dstX%2 != 0 || dx != 1
		switch {
		case y && x:
			return oddEvenYThenEast[yi]
		case y:
			return unit(channel.Y, ySign, 1)
		case x:
			return unit(channel.X, channel.Plus, 1)
		}
		return nil
	default: // westbound
		if dy != 0 && cx%2 == 0 {
			return oddEvenWestThenY[yi]
		}
		return unit(channel.X, channel.Minus, 1)
	}
}

// Odd-Even's two-hop answers, indexed by the Y sign (0 for +, 1 for -):
// {Y, X+} eastbound and {X-, Y} westbound.
var (
	oddEvenYThenEast = [2][]channel.Class{
		clip(channel.New(channel.Y, channel.Plus), channel.New(channel.X, channel.Plus)),
		clip(channel.New(channel.Y, channel.Minus), channel.New(channel.X, channel.Plus)),
	}
	oddEvenWestThenY = [2][]channel.Class{
		clip(channel.New(channel.X, channel.Minus), channel.New(channel.Y, channel.Plus)),
		clip(channel.New(channel.X, channel.Minus), channel.New(channel.Y, channel.Minus)),
	}
)

// clip returns the classes as a capacity-clipped list.
func clip(cs ...channel.Class) []channel.Class { return cs[:len(cs):len(cs)] }

// Unrestricted is minimal fully adaptive routing with NO deadlock
// avoidance: every productive direction on VC 1 is always a candidate.
// Its channel dependency graph is cyclic and the simulator's watchdog
// catches it deadlocking under load — the adversarial contrast case for
// the EbDa designs.
type Unrestricted struct{}

// NewUnrestricted returns the deadlock-capable adversarial baseline.
func NewUnrestricted() *Unrestricted { return &Unrestricted{} }

// Name implements Algorithm.
func (a *Unrestricted) Name() string { return "unrestricted" }

// Candidates implements Algorithm.
func (a *Unrestricted) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	return productiveDirs(net, cur, dst)
}

// TargetFn computes the node a packet should currently steer toward; it
// lets chain-derived algorithms route via waypoints (e.g. elevators in
// partially connected networks). The default steers directly to the
// destination.
type TargetFn func(net *topology.Network, cur, dst topology.NodeID) topology.NodeID

// FromChain derives a routing algorithm from an EbDa partition chain: a
// packet may request every productive output channel whose class the
// chain's turn relation lets it take after the class it holds, provided
// the destination stays reachable from the new class state.
//
// Like the paper's routing unit (Section 5.4), the algorithm is a fixed
// table from (input channel, destination) to allowed outputs. It compiles
// that table per network on first use (see chainTable), so Candidates is
// two index operations and safe for concurrent use without locks:
// parallel CDG extraction and concurrent simulator seeds share one
// FromChain.
type FromChain struct {
	name  string
	chain *core.Chain
	turns *core.TurnSet
	vcs   []int
	// target, when non-nil, redirects productivity toward a waypoint.
	target TargetFn

	// tables publishes the compiled networks as an immutable slice,
	// replaced whole (compare-and-swap) when a network is added, so
	// lookups take no lock.
	tables atomic.Pointer[[]*chainTable]
}

// NewFromChain builds the algorithm for a chain under the default turn
// options (Theorems 1-3 with U/I turns). The VC configuration is derived
// from the chain's channels.
func NewFromChain(name string, chain *core.Chain, dims int) *FromChain {
	ts := chain.AllTurns()
	vcs := make([]int, dims)
	for i := range vcs {
		vcs[i] = 1
	}
	for _, c := range chain.Channels() {
		if int(c.Dim) < dims && c.VC > vcs[c.Dim] {
			vcs[c.Dim] = c.VC
		}
	}
	return &FromChain{name: name, chain: chain, turns: ts, vcs: vcs}
}

// NewFromChainWithTarget is NewFromChain with a waypoint function (see
// TargetFn).
func NewFromChainWithTarget(name string, chain *core.Chain, dims int, target TargetFn) *FromChain {
	a := NewFromChain(name, chain, dims)
	a.target = target
	return a
}

// Name implements Algorithm.
func (a *FromChain) Name() string { return a.name }

// Chain returns the underlying partition chain.
func (a *FromChain) Chain() *core.Chain { return a.chain }

// Turns returns the extracted turn relation. It must not be modified:
// compiled tables snapshot its allow-matrix.
func (a *FromChain) Turns() *core.TurnSet { return a.turns }

// VCs returns the per-dimension VC counts the design uses.
func (a *FromChain) VCs() []int { return a.vcs }

// Candidates implements Algorithm. The answer is a shared, capacity-
// clipped list from the compiled table.
//
//ebda:hotpath
func (a *FromChain) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	t := a.table(net)
	state := 0
	if in != nil {
		if state = t.state(in); state < 0 {
			return nil
		}
	}
	col := t.cols[dst].Load()
	if col == nil {
		col = t.column(dst)
	}
	return col.lists[col.ids[int(cur)*t.states+state]]
}

// table returns the compiled table for net, compiling it on first use.
// Two callers racing on a new network may both compile it; one table
// wins the swap and both return it.
func (a *FromChain) table(net *topology.Network) *chainTable {
	var fresh *chainTable
	for {
		cur := a.tables.Load()
		var known []*chainTable
		if cur != nil {
			known = *cur
		}
		for _, t := range known {
			if t.net == net {
				return t
			}
		}
		if fresh == nil {
			fresh = newChainTable(a, net)
		}
		next := append(known[:len(known):len(known)], fresh)
		if a.tables.CompareAndSwap(cur, &next) {
			return fresh
		}
	}
}

// chainTable is a FromChain compiled for one network.
//
// An input state is the injection port (0) or a concrete input channel
// kind (dim, sign, VC) within the design's VCs (1 + its kind index).
// Kind (d, sign, vc) has index kindBase[d] + s*nvc[d] + vc-1, with s 0
// for Plus and 1 for Minus.
//
// The per-node class-match index is built up front; the answers are
// built lazily, one immutable column per destination, holding for every
// (node, state) the id of an interned candidate list. A column is built
// once under mu and published through its atomic pointer.
type chainTable struct {
	net    *topology.Network
	target TargetFn
	allow  *core.AllowMatrix
	// k is the number of design classes (AllowMatrix indices).
	k int
	// nvc[d] is the design's VC count in network dimension d.
	nvc      []int
	kindBase []int
	kinds    int
	states   int
	// matchOff/match: the design classes channel kind ch instantiates
	// when its tail is at node are
	// match[matchOff[node*kinds+ch]:matchOff[node*kinds+ch+1]].
	matchOff []int32
	match    []int32
	cols     []atomic.Pointer[chainColumn]

	// mu serialises column builds and guards the interned lists and the
	// reachability scratch below.
	mu    sync.Mutex
	ids   map[string]int32
	lists [][]channel.Class
	reach []int8
}

// chainColumn is one destination's answers: lists[ids[node*states+state]].
// lists is the interned list table as of the column's build; later builds
// only append to it.
type chainColumn struct {
	ids   []int32
	lists [][]channel.Class
}

func newChainTable(a *FromChain, net *topology.Network) *chainTable {
	m := a.turns.Matrix()
	dims := net.Dims()
	t := &chainTable{
		net: net, target: a.target, allow: m, k: m.NumClasses(),
		nvc: make([]int, dims), kindBase: make([]int, dims),
		cols: make([]atomic.Pointer[chainColumn], net.Nodes()),
		ids:  map[string]int32{"": 0},
		// List 0 is the empty answer.
		lists: [][]channel.Class{nil},
	}
	for d := 0; d < dims; d++ {
		if d < len(a.vcs) {
			t.nvc[d] = a.vcs[d]
		}
		t.kindBase[d] = t.kinds
		t.kinds += 2 * t.nvc[d]
	}
	t.states = 1 + t.kinds
	t.matchOff = make([]int32, 1, net.Nodes()*t.kinds+1)
	classes := m.Classes()
	for node := topology.NodeID(0); int(node) < net.Nodes(); node++ {
		for d := 0; d < dims; d++ {
			for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
				for vc := 1; vc <= t.nvc[d]; vc++ {
					for i, cls := range classes {
						if cls.Dim != channel.Dim(d) || cls.Sign != sign || cls.VC != vc {
							continue
						}
						if cls.Par != channel.Any && (int(cls.PDim) >= dims ||
							!cls.Par.Matches(net.CoordAt(node, cls.PDim))) {
							continue
						}
						t.match = append(t.match, int32(i))
					}
					t.matchOff = append(t.matchOff, int32(len(t.match)))
				}
			}
		}
	}
	return t
}

// kind returns the index of channel kind (d, sign, vc), or -1 when the
// design has no such channel in this network.
func (t *chainTable) kind(d channel.Dim, sign channel.Sign, vc int) int {
	if d < 0 || int(d) >= len(t.nvc) || vc < 1 || vc > t.nvc[d] {
		return -1
	}
	switch sign {
	case channel.Plus:
		return t.kindBase[d] + vc - 1
	case channel.Minus:
		return t.kindBase[d] + t.nvc[d] + vc - 1
	}
	return -1
}

// state returns the input state of a packet that arrived on in, or -1
// when in is outside the table.
func (t *chainTable) state(in *channel.Class) int {
	ch := t.kind(in.Dim, in.Sign, in.VC)
	if ch < 0 {
		return -1
	}
	return 1 + ch
}

// matches returns the design classes channel kind ch instantiates at node.
func (t *chainTable) matches(node topology.NodeID, ch int) []int32 {
	i := int(node)*t.kinds + ch
	return t.match[t.matchOff[i]:t.matchOff[i+1]]
}

// steer returns the node a packet at cur heads for on its way to dst.
func (t *chainTable) steer(cur, dst topology.NodeID) topology.NodeID {
	if t.target != nil {
		return t.target(t.net, cur, dst)
	}
	return dst
}

// hop is one productive output of a node in a column build: its
// concrete class, its channel kind and, as a range of the build's viable
// buffer, the design classes it instantiates from which dst stays
// reachable.
type hop struct {
	cls    channel.Class
	kind   int
	lo, hi int
}

// column builds, publishes and returns dst's column, or returns the one
// another caller published first.
func (t *chainTable) column(dst topology.NodeID) *chainColumn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if col := t.cols[dst].Load(); col != nil {
		return col
	}
	if t.reach == nil {
		t.reach = make([]int8, t.net.Nodes()*t.k)
	} else {
		clear(t.reach)
	}
	r := reacher{t: t, dst: dst, reach: t.reach}
	ids := make([]int32, t.net.Nodes()*t.states)
	var hops []hop
	var viable []int32
	var key []byte
	var out []channel.Class
	for cur := topology.NodeID(0); int(cur) < t.net.Nodes(); cur++ {
		hops, viable = hops[:0], viable[:0]
		for m := productiveMask(t.net, cur, t.steer(cur, dst)); m != 0; m &= m - 1 {
			d, sign := dirOf(bits.TrailingZeros64(m))
			next, _, ok := t.net.Neighbor(cur, d, sign)
			if !ok {
				continue
			}
			for vc := 1; vc <= t.nvc[d]; vc++ {
				h := hop{cls: channel.NewVC(d, sign, vc), kind: t.kind(d, sign, vc), lo: len(viable)}
				for _, oc := range t.matches(cur, h.kind) {
					if r.reaches(next, oc) {
						viable = append(viable, oc)
					}
				}
				h.hi = len(viable)
				hops = append(hops, h)
			}
		}
		for state := 0; state < t.states; state++ {
			var in []int32
			if state > 0 {
				in = t.matches(cur, state-1)
			}
			key, out = key[:0], out[:0]
			for _, h := range hops {
				if state == 0 && h.hi > h.lo || t.allow.AllowsAny(in, viable[h.lo:h.hi]) {
					key = binary.LittleEndian.AppendUint32(key, uint32(h.kind))
					out = append(out, h.cls)
				}
			}
			id, ok := t.ids[string(key)]
			if !ok {
				id = int32(len(t.lists))
				t.ids[string(key)] = id
				l := make([]channel.Class, len(out))
				copy(l, out)
				t.lists = append(t.lists, l)
			}
			ids[int(cur)*t.states+state] = id
		}
	}
	col := &chainColumn{ids: ids, lists: t.lists}
	t.cols[dst].Store(col)
	return col
}

// Reachability marks of a (node, class) state during a column build.
const (
	reachUnknown int8 = iota
	reachVisiting
	reachNo
	reachYes
)

// reacher answers reachability questions for one column build over the
// table's dense (node x class) scratch.
type reacher struct {
	t     *chainTable
	dst   topology.NodeID
	reach []int8
}

// reaches reports whether a packet at node holding design class cls can
// still reach dst taking productive hops the turn relation permits.
// Results are recorded for the rest of the build. A state re-entered
// while its own answer is being computed counts as unreachable
// (productive hops cannot revisit a state, so this never fires on
// well-formed targets).
func (r *reacher) reaches(node topology.NodeID, cls int32) bool {
	if node == r.dst {
		return true
	}
	t := r.t
	i := int(node)*t.k + int(cls)
	switch r.reach[i] {
	case reachYes:
		return true
	case reachNo, reachVisiting:
		return false
	}
	r.reach[i] = reachVisiting
	result := false
loop:
	for m := productiveMask(t.net, node, t.steer(node, r.dst)); m != 0; m &= m - 1 {
		d, sign := dirOf(bits.TrailingZeros64(m))
		next, _, ok := t.net.Neighbor(node, d, sign)
		if !ok {
			continue
		}
		for vc := 1; vc <= t.nvc[d]; vc++ {
			for _, oc := range t.matches(node, t.kind(d, sign, vc)) {
				if t.allow.Allows(int(cls), int(oc)) && r.reaches(next, oc) {
					result = true
					break loop
				}
			}
		}
	}
	r.reach[i] = reachNo
	if result {
		r.reach[i] = reachYes
	}
	return result
}

// String renders the algorithm for diagnostics.
func (a *FromChain) String() string {
	return fmt.Sprintf("%s: %s", a.name, a.chain.PlainString())
}
