package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ebda/internal/channel"
)

func TestMeshBasics(t *testing.T) {
	m := NewMesh(4, 3)
	if m.Nodes() != 12 || m.Dims() != 2 {
		t.Fatalf("nodes=%d dims=%d", m.Nodes(), m.Dims())
	}
	if m.Size(channel.X) != 4 || m.Size(channel.Y) != 3 {
		t.Error("sizes wrong")
	}
	if m.Wrap(channel.X) || m.Wrap(channel.Y) {
		t.Error("mesh must not wrap")
	}
	if m.String() != "4x3 mesh" {
		t.Errorf("String = %q", m.String())
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := NewMesh(5, 4, 3)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		c := m.Coord(id)
		if !m.InBounds(c) {
			t.Fatalf("coord %v out of bounds", c)
		}
		if m.ID(c) != id {
			t.Fatalf("round trip failed for %d -> %v", id, c)
		}
		for d := range c {
			if got := m.CoordAt(id, channel.Dim(d)); got != c[d] {
				t.Fatalf("CoordAt(%d, %d) = %d, Coord says %d", id, d, got, c[d])
			}
		}
	}
}

func TestMeshNeighbors(t *testing.T) {
	m := NewMesh(3, 3)
	origin := m.ID(Coord{0, 0})
	if _, _, ok := m.Neighbor(origin, channel.X, channel.Minus); ok {
		t.Error("west of origin should not exist in a mesh")
	}
	to, wrapped, ok := m.Neighbor(origin, channel.X, channel.Plus)
	if !ok || wrapped || !m.Coord(to).Equal(Coord{1, 0}) {
		t.Errorf("east of origin = %v wrapped=%v ok=%v", m.Coord(to), wrapped, ok)
	}
	corner := m.ID(Coord{2, 2})
	if _, _, ok := m.Neighbor(corner, channel.Y, channel.Plus); ok {
		t.Error("north of far corner should not exist")
	}
}

func TestTorusWraparound(t *testing.T) {
	tor := NewTorus(4, 4)
	origin := tor.ID(Coord{0, 0})
	to, wrapped, ok := tor.Neighbor(origin, channel.X, channel.Minus)
	if !ok || !wrapped || !tor.Coord(to).Equal(Coord{3, 0}) {
		t.Errorf("wraparound west = %v wrapped=%v ok=%v", tor.Coord(to), wrapped, ok)
	}
	edge := tor.ID(Coord{3, 1})
	to, wrapped, ok = tor.Neighbor(edge, channel.X, channel.Plus)
	if !ok || !wrapped || !tor.Coord(to).Equal(Coord{0, 1}) {
		t.Error("wraparound east broken")
	}
}

func TestLinksCount(t *testing.T) {
	// k x k mesh: 2 * 2 * k * (k-1) unidirectional links.
	m := NewMesh(4, 4)
	if got, want := len(m.Links()), 2*2*4*3; got != want {
		t.Errorf("mesh links = %d, want %d", got, want)
	}
	// k x k torus: 2 * 2 * k * k.
	tor := NewTorus(4, 4)
	if got, want := len(tor.Links()), 2*2*4*4; got != want {
		t.Errorf("torus links = %d, want %d", got, want)
	}
	// Wrap flags appear only on torus links.
	for _, l := range m.Links() {
		if l.Wrap {
			t.Error("mesh link marked wrap")
		}
	}
	wraps := 0
	for _, l := range tor.Links() {
		if l.Wrap {
			wraps++
		}
	}
	if wraps != 2*2*4 {
		t.Errorf("torus wrap links = %d, want 16", wraps)
	}
}

func TestPartialMesh3D(t *testing.T) {
	net := NewPartialMesh3D(3, 3, 2, [][2]int{{1, 1}})
	up := 0
	for _, l := range net.Links() {
		if l.Dim == channel.Z {
			up++
			c := net.Coord(l.From)
			if c[0] != 1 || c[1] != 1 {
				t.Errorf("vertical link at non-elevator %v", c)
			}
		}
	}
	// One elevator column with 2 layers: 1 up + 1 down.
	if up != 2 {
		t.Errorf("vertical links = %d, want 2", up)
	}
	// X/Y links unaffected.
	if !net.HasLink(net.ID(Coord{0, 0, 1}), channel.X, channel.Plus) {
		t.Error("horizontal link missing on upper layer")
	}
}

func TestMinimalOffsetsMesh(t *testing.T) {
	m := NewMesh(5, 5)
	src, dst := m.ID(Coord{1, 1}), m.ID(Coord{4, 0})
	offs := m.MinimalOffsets(src, dst)
	if offs[0] != 3 || offs[1] != -1 {
		t.Errorf("offsets = %v", offs)
	}
	if m.MinimalHops(src, dst) != 4 {
		t.Error("hops wrong")
	}
}

func TestMinimalOffsetsTorus(t *testing.T) {
	tor := NewTorus(8, 8)
	src, dst := tor.ID(Coord{0, 0}), tor.ID(Coord{7, 5})
	offs := tor.MinimalOffsets(src, dst)
	// 0 -> 7 is shorter backwards (-1); 0 -> 5 shorter backwards (-3).
	if offs[0] != -1 || offs[1] != -3 {
		t.Errorf("offsets = %v", offs)
	}
	// Exactly half way: positive direction preferred.
	src, dst = tor.ID(Coord{0, 0}), tor.ID(Coord{4, 0})
	offs = tor.MinimalOffsets(src, dst)
	if offs[0] != 4 {
		t.Errorf("half-way offset = %d, want +4", offs[0])
	}
}

func TestMinimalPathCount(t *testing.T) {
	m := NewMesh(5, 5)
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{0, 0}, Coord{1, 1}, 2},
		{Coord{0, 0}, Coord{2, 2}, 6},
		{Coord{0, 0}, Coord{4, 4}, 70},
		{Coord{4, 4}, Coord{0, 0}, 70},
		{Coord{0, 0}, Coord{0, 0}, 1},
	}
	for _, tc := range cases {
		if got := m.MinimalPathCount(m.ID(tc.a), m.ID(tc.b)); got != tc.want {
			t.Errorf("paths %v -> %v = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	m3 := NewMesh(3, 3, 3)
	// (0,0,0) -> (2,2,2): 6!/(2!2!2!) = 90.
	if got := m3.MinimalPathCount(m3.ID(Coord{0, 0, 0}), m3.ID(Coord{2, 2, 2})); got != 90 {
		t.Errorf("3D path count = %d, want 90", got)
	}
}

func TestQuickNeighborSymmetry(t *testing.T) {
	m := NewMesh(6, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		id := NodeID(r.Intn(m.Nodes()))
		d := channel.Dim(r.Intn(2))
		sign := channel.Plus
		if r.Intn(2) == 0 {
			sign = channel.Minus
		}
		to, _, ok := m.Neighbor(id, d, sign)
		if !ok {
			return true
		}
		back, _, ok2 := m.Neighbor(to, d, sign.Opposite())
		return ok2 && back == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTorusOffsetsMinimal(t *testing.T) {
	tor := NewTorus(7, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := NodeID(r.Intn(tor.Nodes()))
		dst := NodeID(r.Intn(tor.Nodes()))
		offs := tor.MinimalOffsets(src, dst)
		// Walking the offsets must land on dst.
		c := tor.Coord(src)
		for d, off := range offs {
			k := tor.Size(channel.Dim(d))
			c[d] = ((c[d]+off)%k + k) % k
		}
		if !c.Equal(tor.Coord(dst)) {
			return false
		}
		// No offset may exceed half the ring.
		for d, off := range offs {
			if abs(off) > tor.Size(channel.Dim(d))/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size < 2 should panic")
		}
	}()
	NewMesh(1)
}

// coordNeighbor and coordOffsets are the coordinate-based Neighbor and
// MinimalOffsets the stride arithmetic replaced, kept as references.
func coordNeighbor(n *Network, id NodeID, d channel.Dim, sign channel.Sign) (to NodeID, wrapped, ok bool) {
	c := n.Coord(id)
	if n.filter != nil && !n.filter(c, d, sign) {
		return 0, false, false
	}
	x := c[int(d)] + int(sign)
	switch {
	case x < 0:
		if !n.wrap[d] {
			return 0, false, false
		}
		x = n.dims[d] - 1
		wrapped = true
	case x >= n.dims[d]:
		if !n.wrap[d] {
			return 0, false, false
		}
		x = 0
		wrapped = true
	}
	c[int(d)] = x
	return n.ID(c), wrapped, true
}

func coordOffsets(n *Network, src, dst NodeID) []int {
	a, b := n.Coord(src), n.Coord(dst)
	out := make([]int, len(n.dims))
	for i := range n.dims {
		delta := b[i] - a[i]
		if n.wrap[i] {
			k := n.dims[i]
			alt := delta
			switch {
			case delta > 0 && delta > k/2:
				alt = delta - k
			case delta < 0 && -delta > k/2:
				alt = delta + k
			}
			if abs(alt) < abs(delta) || (abs(alt) == abs(delta) && alt > 0) {
				delta = alt
			}
		}
		out[i] = delta
	}
	return out
}

// TestStrideArithmeticMatchesCoordPath holds Neighbor and MinimalOffsets
// against their coordinate-based references for every node pair and
// direction on meshes, tori, a mixed-wrap network, a link-faulty torus
// and a partial 3D network.
func TestStrideArithmeticMatchesCoordPath(t *testing.T) {
	torus := NewTorus(4, 5)
	nets := []*Network{
		NewMesh(5, 4, 3), NewTorus(2, 3), torus, NewTorus(3, 3, 2),
		build("mixed", []int{4, 3}, []bool{true, false}, nil),
		torus.WithoutLinks([]Link{
			{From: torus.ID(Coord{3, 1}), Dim: channel.X, Sign: channel.Plus},
			{From: torus.ID(Coord{0, 0}), Dim: channel.Y, Sign: channel.Minus},
		}),
		NewPartialMesh3D(3, 3, 2, [][2]int{{1, 2}}),
	}
	for _, n := range nets {
		for id := NodeID(0); int(id) < n.Nodes(); id++ {
			for d := 0; d < n.Dims(); d++ {
				for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
					to, wrapped, ok := n.Neighbor(id, channel.Dim(d), sign)
					wantTo, wantWrapped, wantOK := coordNeighbor(n, id, channel.Dim(d), sign)
					if to != wantTo || wrapped != wantWrapped || ok != wantOK {
						t.Fatalf("%v: Neighbor(%v, %d, %v) = (%d, %v, %v), want (%d, %v, %v)",
							n, n.Coord(id), d, sign, to, wrapped, ok, wantTo, wantWrapped, wantOK)
					}
				}
			}
			for dst := NodeID(0); int(dst) < n.Nodes(); dst++ {
				got, want := n.MinimalOffsets(id, dst), coordOffsets(n, id, dst)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v: MinimalOffsets(%v, %v) = %v, want %v", n, n.Coord(id), n.Coord(dst), got, want)
					}
				}
			}
		}
	}
}

// TestNeighborAllocationFree pins that unfiltered Neighbor and HasLink
// allocate nothing: routing algorithms call them per hop.
func TestNeighborAllocationFree(t *testing.T) {
	for _, n := range []*Network{NewMesh(8, 8), NewTorus(4, 4)} {
		allocs := testing.AllocsPerRun(100, func() {
			for id := NodeID(0); int(id) < n.Nodes(); id++ {
				n.Neighbor(id, channel.X, channel.Minus)
				n.HasLink(id, channel.Y, channel.Plus)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: Neighbor/HasLink allocate %.1f times per sweep, want 0", n, allocs)
		}
	}
}
