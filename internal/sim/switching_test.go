package sim

import (
	"testing"

	"ebda/internal/core"
	"ebda/internal/duato"
	"ebda/internal/routing"
	"ebda/internal/topology"
	"ebda/internal/traffic"
)

// The paper's Assumption 1: SAF and VCT are special cases of wormhole, so
// an EbDa design that is deadlock-free under wormhole is deadlock-free
// under all three. Assumption 2: packets may have arbitrary lengths.

func switchingConfig(sw Switching, alg routing.Algorithm, vcs []int, rate float64) Config {
	return Config{
		Net: topology.NewMesh(4, 4), Alg: alg, VCs: vcs,
		InjectionRate: rate, Seed: 5, Switching: sw,
		Warmup: 500, Measure: 2000, Drain: 2500,
	}
}

func TestAllSwitchingModesDeliver(t *testing.T) {
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	alg := routing.NewFromChain("dyxy", chain, 2)
	for _, sw := range []Switching{Wormhole, VirtualCutThrough, StoreAndForward} {
		res := New(switchingConfig(sw, alg, alg.VCs(), 0.05)).Run()
		if res.Deadlocked {
			t.Errorf("%s: %s", sw, res)
			continue
		}
		if res.DeliveredPackets != res.InjectedPackets {
			t.Errorf("%s: delivered %d/%d", sw, res.DeliveredPackets, res.InjectedPackets)
		}
	}
}

func TestSwitchingLatencyOrdering(t *testing.T) {
	// At low load: wormhole and VCT pipeline flits (latency ~ hops +
	// packetLen), SAF serialises per hop (~ hops * packetLen). SAF must
	// be clearly slower; VCT close to wormhole.
	alg := routing.NewXY()
	lat := map[Switching]float64{}
	for _, sw := range []Switching{Wormhole, VirtualCutThrough, StoreAndForward} {
		res := New(switchingConfig(sw, alg, nil, 0.02)).Run()
		if res.Deadlocked {
			t.Fatalf("%s deadlocked", sw)
		}
		lat[sw] = res.AvgLatency
	}
	if lat[StoreAndForward] < lat[Wormhole]*1.5 {
		t.Errorf("SAF latency %.1f should be well above wormhole %.1f",
			lat[StoreAndForward], lat[Wormhole])
	}
	if lat[VirtualCutThrough] > lat[Wormhole]*1.3 {
		t.Errorf("VCT latency %.1f should be close to wormhole %.1f",
			lat[VirtualCutThrough], lat[Wormhole])
	}
}

func TestSwitchingRaisesBufferDepth(t *testing.T) {
	cfg := Config{Net: topology.NewMesh(3, 3), Alg: routing.NewXY(),
		PacketLen: 8, BufferDepth: 2, Switching: VirtualCutThrough}
	cfg.setDefaults()
	if cfg.BufferDepth != 8 {
		t.Errorf("VCT buffer depth = %d, want 8", cfg.BufferDepth)
	}
	cfg2 := Config{Net: topology.NewMesh(3, 3), Alg: routing.NewXY(),
		PacketLen: 4, LongPacketLen: 12, LongFraction: 0.1,
		BufferDepth: 2, Switching: StoreAndForward}
	cfg2.setDefaults()
	if cfg2.BufferDepth != 12 {
		t.Errorf("SAF buffer depth = %d, want 12", cfg2.BufferDepth)
	}
}

func TestMixedPacketLengths(t *testing.T) {
	// Assumption 2: mixed short/long packets. The EbDa design stays
	// deadlock-free even with long packets over shallow buffers, and
	// everything drains.
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	alg := routing.NewFromChain("dyxy", chain, 2)
	res := New(Config{
		Net: topology.NewMesh(4, 4), Alg: alg, VCs: alg.VCs(),
		InjectionRate: 0.2, PacketLen: 2,
		LongPacketLen: 16, LongFraction: 0.2,
		BufferDepth: 2, Seed: 9,
		Warmup: 500, Measure: 2000, Drain: 4000,
	}).Run()
	if res.Deadlocked {
		t.Fatalf("mixed lengths deadlocked: %s", res)
	}
	if res.DeliveredPackets != res.InjectedPackets || res.StuckFlits != 0 {
		t.Errorf("mixed lengths: %s", res)
	}
}

func TestMixedLengthsStressEbDaVsUnrestricted(t *testing.T) {
	// Long packets over shallow buffers are the classic deadlock
	// amplifier; the contrast must hold with mixed lengths too.
	stress := func(alg routing.Algorithm, vcs []int) Result {
		return New(Config{
			Net: topology.NewMesh(4, 4), Alg: alg, VCs: vcs,
			InjectionRate: 0.5, PacketLen: 3,
			LongPacketLen: 12, LongFraction: 0.3,
			BufferDepth: 2, Seed: 7,
			Warmup: 1500, Measure: 4000, Drain: 1000, DeadlockThreshold: 500,
		}).Run()
	}
	if res := stress(routing.NewUnrestricted(), nil); !res.Deadlocked {
		t.Errorf("unrestricted with long packets should deadlock: %s", res)
	}
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	alg := routing.NewFromChain("dyxy", chain, 2)
	if res := stress(alg, alg.VCs()); res.Deadlocked {
		t.Errorf("EbDa design deadlocked with long packets: %s", res)
	}
}

func TestDuatoTorusSimulation(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	alg := duato.NewTorus()
	res := New(Config{
		Net: tor, Alg: alg, VCs: alg.VCsPerDim(tor),
		InjectionRate: 0.3, Seed: 13,
		Warmup: 1000, Measure: 3000, Drain: 2000, DeadlockThreshold: 500,
	}).Run()
	if res.Deadlocked {
		t.Fatalf("duato-torus deadlocked: %s", res)
	}
	if res.DeliveredPackets == 0 {
		t.Error("delivered nothing")
	}
}

func TestOddEvenOddWidthMeshes(t *testing.T) {
	// Chiu's conditions must hold on odd-width and non-square meshes
	// (edge columns of both parities).
	for _, sizes := range [][]int{{5, 5}, {7, 5}, {5, 3}} {
		net := topology.NewMesh(sizes...)
		alg := routing.NewOddEven()
		if rep := routing.Verify(net, nil, alg); !rep.Acyclic {
			t.Errorf("%v: %s", sizes, rep)
		}
		if del := routing.CheckDelivery(net, alg, 64); !del.OK() {
			t.Errorf("%v: %s", sizes, del)
		}
		res := New(Config{
			Net: net, Alg: alg,
			InjectionRate: 0.1, Seed: 17,
			Warmup: 500, Measure: 1500, Drain: 1500,
		}).Run()
		if res.Deadlocked || res.DeliveredPackets != res.InjectedPackets {
			t.Errorf("%v sim: %s", sizes, res)
		}
	}
}

func TestTraceDrivenInjection(t *testing.T) {
	// A fixed trace replaces the stochastic generator: exactly the
	// scheduled packets are injected, in order, and all deliver.
	net := topology.NewMesh(4, 4)
	trace := []traffic.TraceEntry{
		{Cycle: 0, Src: net.ID(topology.Coord{0, 0}), Dst: net.ID(topology.Coord{3, 3})},
		{Cycle: 5, Src: net.ID(topology.Coord{3, 0}), Dst: net.ID(topology.Coord{0, 3}), Len: 9},
		{Cycle: 5, Src: net.ID(topology.Coord{1, 1}), Dst: net.ID(topology.Coord{2, 2})},
		{Cycle: 40, Src: net.ID(topology.Coord{0, 3}), Dst: net.ID(topology.Coord{3, 0})},
	}
	res := New(Config{
		Net: net, Alg: routing.NewXY(), Trace: trace,
		Warmup: 0, Measure: 100, Drain: 200, Seed: 1,
	}).Run()
	if res.Deadlocked {
		t.Fatal(res)
	}
	if res.InjectedPackets != 4 || res.DeliveredPackets != 4 {
		t.Errorf("trace packets: injected %d delivered %d, want 4/4", res.InjectedPackets, res.DeliveredPackets)
	}
	if res.StuckFlits != 0 {
		t.Errorf("stuck flits = %d", res.StuckFlits)
	}
}

func TestRouterLatencyIncreasesLatency(t *testing.T) {
	mk := func(depth int) Result {
		cfg := Config{
			Net: topology.NewMesh(4, 4), Alg: routing.NewXY(),
			InjectionRate: 0.02, Seed: 42, RouterLatency: depth,
			Warmup: 500, Measure: 2000, Drain: 1500,
		}
		return New(cfg).Run()
	}
	shallow, deep := mk(1), mk(4)
	if shallow.Deadlocked || deep.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	// Each hop pays ~3 extra cycles with a 4-deep pipeline; average hops
	// on a 4x4 mesh is ~2.7, so expect roughly +8 cycles.
	if deep.AvgLatency < shallow.AvgLatency+4 {
		t.Errorf("pipeline depth 4 latency %.1f vs depth 1 %.1f: too small a gap",
			deep.AvgLatency, shallow.AvgLatency)
	}
	if deep.DeliveredPackets != deep.InjectedPackets {
		t.Errorf("deep pipeline lost packets: %s", deep)
	}
}

func TestVCTNeverInterleavesBuffers(t *testing.T) {
	// Under VCT, allocation requires room for the whole packet, so a
	// buffer can never hold flits of a packet that wouldn't fit. Run a
	// moderate load and re-verify conservation.
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	alg := routing.NewFromChain("dyxy", chain, 2)
	res := New(switchingConfig(VirtualCutThrough, alg, alg.VCs(), 0.15)).Run()
	if res.Deadlocked || res.StuckFlits != 0 {
		t.Errorf("VCT run: %s", res)
	}
}

func TestTraceNegativeNodeIDsSkipped(t *testing.T) {
	// A hand-built trace is not bounds-checked the way ParseTrace's
	// output is: entries naming a node outside the network, negative IDs
	// included, are skipped instead of indexing past the routers.
	net := topology.NewMesh(4, 4)
	trace := []traffic.TraceEntry{
		{Cycle: 0, Src: -1, Dst: 5},
		{Cycle: 1, Src: 3, Dst: -1},
		{Cycle: 2, Src: -2, Dst: -3},
		{Cycle: 3, Src: 0, Dst: 16},
		{Cycle: 4, Src: 0, Dst: 15},
	}
	res := New(Config{
		Net: net, Alg: routing.NewXY(), Trace: trace,
		Warmup: 0, Measure: 50, Drain: 100, Seed: 1,
	}).Run()
	if res.InjectedPackets != 1 || res.DeliveredPackets != 1 {
		t.Errorf("injected %d delivered %d, want only the one valid entry", res.InjectedPackets, res.DeliveredPackets)
	}
}
