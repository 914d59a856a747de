package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/duato"
	"ebda/internal/routing"
	"ebda/internal/topology"
	"ebda/internal/traffic"
	"ebda/internal/updown"
)

// oracleAlg is one routing algorithm on the network it is meant for.
type oracleAlg struct {
	name string
	net  *topology.Network
	alg  routing.Algorithm
	vcs  []int
}

// oracleAlgs returns every routing algorithm of internal/routing,
// internal/duato and internal/updown on a small network it routes:
// meshes for the 2D turn models, a link-faulty mesh for FaultTolerant
// and up*/down*, a torus for dateline routing, a 3D mesh for planar
// adaptive and DOR, and a partial 3D network for the elevator designs.
func oracleAlgs(t testing.TB) []oracleAlg {
	mesh := topology.NewMesh(4, 4)
	mesh5 := topology.NewMesh(5, 5)
	torus := topology.NewTorus(4, 4)
	mesh3 := topology.NewMesh(3, 3, 3)
	faulty := topology.NewMesh(5, 5).WithoutLinks([]topology.Link{
		{From: mesh5.ID(topology.Coord{1, 2}), Dim: channel.X, Sign: channel.Plus},
		{From: mesh5.ID(topology.Coord{3, 1}), Dim: channel.Y, Sign: channel.Plus},
	})
	elevators := routing.Elevators{{2, 2}}
	partial := topology.NewPartialMesh3D(3, 3, 2, elevators)

	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	dyxy := routing.NewFromChain("dyxy", chain, 2)
	ft := routing.NewFaultTolerant("dyxy-ft", chain, faulty)
	ebdaElev := routing.NewEbDaElevator(core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]"), elevators)
	fa := duato.New()
	torusFA := duato.NewTorus()
	dateline := routing.NewDatelineTorus()
	planar := routing.NewPlanarAdaptive()
	ud, err := updown.New(faulty, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleAlg{
		{"xy", mesh, routing.NewXY(), nil},
		{"yx", mesh, routing.NewYX(), nil},
		{"west-first", mesh5, routing.NewWestFirst(), nil},
		{"north-last", mesh5, routing.NewNorthLast(), nil},
		{"negative-first", mesh5, routing.NewNegativeFirst(), nil},
		{"odd-even", mesh5, routing.NewOddEven(), nil},
		{"unrestricted", mesh, routing.NewUnrestricted(), nil},
		{"dyxy", mesh, dyxy, dyxy.VCs()},
		{"fault-tolerant", faulty, ft, ft.VCs()},
		{"updown", faulty, ud, nil},
		{"dateline", torus, dateline, dateline.VCsPerDim(torus)},
		{"duato-torus", torus, torusFA, torusFA.VCsPerDim(torus)},
		{"duato-fa", mesh, fa, fa.VCsPerDim(mesh)},
		{"duato-escape", mesh, fa.EscapeOnly(), fa.VCsPerDim(mesh)},
		{"planar-adaptive", mesh3, planar, planar.VCsPerDim(mesh3)},
		{"dor-xyz", mesh3, routing.NewDOR("xyz", channel.X, channel.Y, channel.Z), nil},
		{"elevator-first", partial, routing.NewElevatorFirst(elevators), routing.NewElevatorFirst(elevators).VCsPerDim()},
		{"ebda-elevator", partial, ebdaElev, ebdaElev.VCs()},
	}
}

// oracleConfig is one grid point's base configuration: short phases and
// shallow buffers so congestion, blocked heads and source queues that
// grow and drain all occur within a few hundred cycles.
func oracleConfig(a oracleAlg, rate float64, seed int64) Config {
	return Config{
		Net: a.net, Alg: a.alg, VCs: a.vcs,
		InjectionRate: rate, BufferDepth: 3, Seed: seed,
		Warmup: 80, Measure: 200, Drain: 200, DeadlockThreshold: 150,
	}
}

// oracleRandomTrace is a seeded trace over the network with mixed packet
// lengths, bursts of same-cycle entries and a few out-of-range entries
// the injector must skip.
func oracleRandomTrace(net *topology.Network, seed int64) []traffic.TraceEntry {
	r := rand.New(rand.NewSource(seed))
	var out []traffic.TraceEntry
	for cycle := 0; cycle < 300; cycle += r.Intn(3) {
		out = append(out, traffic.TraceEntry{
			Cycle: cycle,
			Src:   topology.NodeID(r.Intn(net.Nodes())),
			Dst:   topology.NodeID(r.Intn(net.Nodes())),
			Len:   r.Intn(10),
		})
	}
	out = append(out,
		traffic.TraceEntry{Cycle: 301, Src: -1, Dst: 2},
		traffic.TraceEntry{Cycle: 301, Src: 1, Dst: topology.NodeID(net.Nodes())},
	)
	return out
}

// checkAgainstReference runs cfg through the current cycle loop and the
// reference loop and requires identical Results (DeadlockTrace
// included), LinkLoads and NodeLoad. It returns the current loop's
// Result.
func checkAgainstReference(t *testing.T, label string, cfg Config) Result {
	t.Helper()
	cur := New(cfg)
	got := cur.Run()
	ref := New(cfg)
	want := ref.refRun()
	if got != want {
		t.Fatalf("%s: Result differs from the reference loop\n  got  %+v\n  want %+v", label, got, want)
	}
	if !slices.Equal(cur.LinkLoads(), ref.LinkLoads()) {
		t.Fatalf("%s: LinkLoads differ from the reference loop", label)
	}
	if !slices.Equal(cur.NodeLoad(), ref.NodeLoad()) {
		t.Fatalf("%s: NodeLoad differs from the reference loop", label)
	}
	return got
}

// TestCycleLoopMatchesReference is the differential oracle for the cycle
// loop: every routing algorithm under every selection policy and
// switching technique, at a light and a saturating load, must produce
// exactly what the reference loop in ref_test.go produces.
func TestCycleLoopMatchesReference(t *testing.T) {
	selections := []Selection{SelectRandom, SelectFirst, SelectCredits}
	switchings := []Switching{Wormhole, VirtualCutThrough, StoreAndForward}
	for i, a := range oracleAlgs(t) {
		for _, rate := range []float64{0.1, 0.45} {
			for _, sel := range selections {
				for _, sw := range switchings {
					cfg := oracleConfig(a, rate, int64(i+1))
					cfg.Selection, cfg.Switching = sel, sw
					label := fmt.Sprintf("%s/rate%.2f/sel%d/%v", a.name, rate, sel, sw)
					res := checkAgainstReference(t, label, cfg)
					if res.InjectedPackets == 0 || res.DeliveredPackets == 0 {
						t.Fatalf("%s: grid point moved no traffic: %s", label, res)
					}
				}
			}
		}
	}
}

// TestCycleLoopMatchesReferenceVariants covers the configuration knobs
// the main grid leaves at their defaults: link and router latency of 2,
// mixed long packets under all three switching techniques, and
// trace-driven injection.
func TestCycleLoopMatchesReferenceVariants(t *testing.T) {
	algs := oracleAlgs(t)
	for i, a := range algs {
		variants := map[string]func(*Config){
			"link2":   func(c *Config) { c.LinkLatency = 2 },
			"router2": func(c *Config) { c.RouterLatency = 2 },
			"both2":   func(c *Config) { c.LinkLatency, c.RouterLatency = 2, 2 },
			"long-wh": func(c *Config) { c.LongPacketLen, c.LongFraction = 12, 0.25 },
			"long-vct": func(c *Config) {
				c.LongPacketLen, c.LongFraction, c.Switching = 12, 0.25, VirtualCutThrough
			},
			"long-saf": func(c *Config) {
				c.LongPacketLen, c.LongFraction, c.Switching = 12, 0.25, StoreAndForward
			},
			"trace": func(c *Config) { c.Trace = oracleRandomTrace(c.Net, c.Seed) },
		}
		for name, apply := range variants {
			cfg := oracleConfig(a, 0.3, int64(100+i))
			cfg.Selection = Selection(i % 3)
			apply(&cfg)
			checkAgainstReference(t, a.name+"/"+name, cfg)
		}
	}
}

// TestCycleLoopMatchesReferenceOnDeadlock drives the deadlock-capable
// baseline into a wedge under every selection policy: the watchdog must
// fire at the same cycle with the same stuck flits and the same wait
// cycle text as the reference loop, and a rerun must reproduce the text.
func TestCycleLoopMatchesReferenceOnDeadlock(t *testing.T) {
	deadlocks := 0
	for _, sel := range []Selection{SelectRandom, SelectFirst, SelectCredits} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := stressConfig(routing.NewUnrestricted())
			cfg.Selection, cfg.Seed = sel, seed
			cfg.Warmup, cfg.Measure, cfg.Drain, cfg.DeadlockThreshold = 300, 1200, 300, 100
			res := checkAgainstReference(t, fmt.Sprintf("unrestricted/sel%d/seed%d", sel, seed), cfg)
			if again := New(cfg).Run(); again != res {
				t.Fatalf("same configuration, different results:\n  %+v\n  %+v", res, again)
			}
			if res.Deadlocked {
				deadlocks++
				if !strings.Contains(res.DeadlockTrace, "wait cycle:") {
					t.Errorf("deadlock without a wait cycle:\n%s", res.DeadlockTrace)
				}
			}
		}
	}
	if deadlocks == 0 {
		t.Fatal("no grid point deadlocked; the oracle did not exercise the watchdog")
	}
}

// countingAlg counts Candidates calls of the algorithm it wraps.
type countingAlg struct {
	routing.Algorithm
	calls int
}

func (c *countingAlg) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	c.calls++
	return c.Algorithm.Candidates(net, cur, in, dst)
}

// TestCandidatesOncePerHead pins the per-head candidate memo: under a
// burst into one node, heads wait many cycles for a VC, yet XY routing
// is consulted exactly once per hop of every packet (at the source and
// at each intermediate router), where the reference loop asks again on
// every blocked cycle.
func TestCandidatesOncePerHead(t *testing.T) {
	net := topology.NewMesh(6, 6)
	hot := net.ID(topology.Coord{3, 3})
	var trace []traffic.TraceEntry
	hops := 0
	for cycle := 0; cycle < 40; cycle += 4 {
		for src := topology.NodeID(0); int(src) < net.Nodes(); src++ {
			if src == hot {
				continue
			}
			trace = append(trace, traffic.TraceEntry{Cycle: cycle, Src: src, Dst: hot})
			hops += net.MinimalHops(src, hot)
		}
	}
	run := func(ref bool) (Result, int) {
		alg := &countingAlg{Algorithm: routing.NewXY()}
		s := New(Config{Net: net, Alg: alg, Trace: trace, Warmup: 1, Measure: 100, Drain: 4000, Seed: 1})
		if ref {
			return s.refRun(), alg.calls
		}
		return s.Run(), alg.calls
	}
	res, calls := run(false)
	if res.Deadlocked || res.DeliveredPackets != len(trace) {
		t.Fatalf("burst did not drain: %s", res)
	}
	if calls != hops {
		t.Errorf("Candidates called %d times for %d packet hops", calls, hops)
	}
	if _, refCalls := run(true); refCalls <= calls {
		t.Errorf("reference loop made %d calls, not more than %d: no head ever waited", refCalls, calls)
	}
}
