package sim

import (
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/routing"
	"ebda/internal/topology"
	"ebda/internal/traffic"
)

// tableAlg answers Candidates from a table filled by the algorithm it
// wraps, so a run through it allocates nothing on the routing side. The
// wrapped algorithm must ignore the input class (XY does).
type tableAlg struct {
	routing.Algorithm
	nodes int
	table [][]channel.Class // [cur*nodes+dst]
}

func newTableAlg(net *topology.Network, alg routing.Algorithm) *tableAlg {
	a := &tableAlg{Algorithm: alg, nodes: net.Nodes(), table: make([][]channel.Class, net.Nodes()*net.Nodes())}
	for cur := 0; cur < a.nodes; cur++ {
		for dst := 0; dst < a.nodes; dst++ {
			a.table[cur*a.nodes+dst] = alg.Candidates(net, topology.NodeID(cur), nil, topology.NodeID(dst))
		}
	}
	return a
}

func (a *tableAlg) Candidates(_ *topology.Network, cur topology.NodeID, _ *channel.Class, dst topology.NodeID) []channel.Class {
	return a.table[int(cur)*a.nodes+int(dst)]
}

// step advances the simulator one cycle the way run does, without the
// watchdog.
func (s *Simulator) step() {
	s.inject()
	s.allocate()
	s.traverse()
	s.cycle++
}

// TestCycleAllocationsBoundedByPacketCreation pins the steady-state
// allocation cost of a simulated cycle on a loaded 8x8 mesh. With the
// routing side allocation-free (a table-driven XY), the cycle loop's own
// allocations must come from creating packets only: at most one per
// packet injected plus one for amortised queue and statistics growth.
func TestCycleAllocationsBoundedByPacketCreation(t *testing.T) {
	net := topology.NewMesh(8, 8)
	s := New(Config{
		Net: net, Alg: newTableAlg(net, routing.NewXY()),
		InjectionRate: 0.2, Seed: 1,
		Warmup: 100, Measure: 100000, Drain: 1,
	})
	for s.cycle < 500 {
		s.step()
	}
	const runs = 400
	before := s.injected
	allocs := testing.AllocsPerRun(runs, s.step)
	perCycle := float64(s.injected-before) / (runs + 1)
	if perCycle < 1 {
		t.Fatalf("only %.2f packets per cycle: the mesh is not loaded", perCycle)
	}
	if bound := perCycle + 1; allocs > bound {
		t.Errorf("%.0f allocations per cycle at %.2f packets per cycle, want at most %.2f", allocs, perCycle, bound)
	}
}

// BenchmarkSimDeck runs the sim-sweep deck of the repository benchmark:
// XY, west-first, odd-even and a two-VC EbDa chain on an 8x8 mesh,
// under uniform, transpose and hotspot traffic at a low and a
// near-saturation rate, with simulation seeds 1 and 2 — 48 simulations
// of 320 cycles per op.
func BenchmarkSimDeck(b *testing.B) {
	net := topology.NewMesh(8, 8)
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	algs := []struct {
		alg routing.Algorithm
		vcs []int
	}{
		{routing.NewXY(), []int{1, 1}},
		{routing.NewWestFirst(), []int{1, 1}},
		{routing.NewOddEven(), []int{1, 1}},
		{routing.NewFromChain("ebda-2vc", chain, 2), []int{1, 2}},
	}
	patterns := []struct {
		name      string
		low, high float64
	}{
		{"uniform", 0.05, 0.30},
		{"transpose", 0.05, 0.20},
		{"hotspot", 0.05, 0.20},
	}
	var configs []Config
	for _, a := range algs {
		for _, p := range patterns {
			pat, err := traffic.ByName(p.name)
			if err != nil {
				b.Fatal(err)
			}
			for _, rate := range []float64{p.low, p.high} {
				for seed := int64(1); seed <= 2; seed++ {
					configs = append(configs, Config{
						Net: net, Alg: a.alg, VCs: a.vcs, PacketLen: 5,
						InjectionRate: rate, Pattern: pat, Seed: seed,
						Warmup: 40, Measure: 160, Drain: 120,
					})
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			if res := New(cfg).Run(); res.Deadlocked || res.Cycles != 320 {
				b.Fatalf("deck run failed: %s", res)
			}
		}
	}
}
