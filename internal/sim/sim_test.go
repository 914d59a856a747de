package sim

import (
	"strings"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/duato"
	"ebda/internal/routing"
	"ebda/internal/topology"
	"ebda/internal/traffic"
)

func lowLoadConfig(alg routing.Algorithm, vcs []int) Config {
	return Config{
		Net: topology.NewMesh(4, 4), Alg: alg, VCs: vcs,
		InjectionRate: 0.02, Seed: 42,
		Warmup: 500, Measure: 1500, Drain: 1500,
	}
}

func TestXYLowLoadDeliversEverything(t *testing.T) {
	res := New(lowLoadConfig(routing.NewXY(), nil)).Run()
	if res.Deadlocked {
		t.Fatalf("XY deadlocked: %s", res)
	}
	if res.InjectedPackets == 0 {
		t.Fatal("no packets injected")
	}
	if res.DeliveredPackets != res.InjectedPackets {
		t.Errorf("delivered %d of %d", res.DeliveredPackets, res.InjectedPackets)
	}
	if res.StuckFlits != 0 {
		t.Errorf("stuck flits = %d", res.StuckFlits)
	}
	if res.MeasuredPackets == 0 || res.AvgLatency <= 0 {
		t.Errorf("bad measurement: %s", res)
	}
}

func TestZeroLoadLatencyIsHopsPlusSerialization(t *testing.T) {
	// At near-zero load, packet latency approaches
	// hops + packetLen - 1 + ejection. Average hop count on a 4x4 mesh
	// under uniform traffic is ~2.67; expect latency in a tight band.
	cfg := lowLoadConfig(routing.NewXY(), nil)
	cfg.InjectionRate = 0.005
	cfg.Measure = 4000
	res := New(cfg).Run()
	if res.Deadlocked {
		t.Fatal(res)
	}
	if res.AvgLatency < 5 || res.AvgLatency > 14 {
		t.Errorf("zero-load latency %.1f outside expected band", res.AvgLatency)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(lowLoadConfig(routing.NewXY(), nil)).Run()
	b := New(lowLoadConfig(routing.NewXY(), nil)).Run()
	if a != b {
		t.Errorf("same seed produced different results:\n%v\n%v", a, b)
	}
	cfg := lowLoadConfig(routing.NewXY(), nil)
	cfg.Seed = 43
	c := New(cfg).Run()
	if a == c {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestUnrestrictedDeadlocksUnderLoad(t *testing.T) {
	// The adversarial baseline: minimal fully adaptive with one VC and
	// no deadlock avoidance. Under heavy load with long packets and
	// shallow buffers it must deadlock — and the watchdog must say so.
	cfg := Config{
		Net: topology.NewMesh(4, 4), Alg: routing.NewUnrestricted(),
		InjectionRate: 0.6, PacketLen: 8, BufferDepth: 2, Seed: 7,
		Warmup: 2000, Measure: 6000, Drain: 2000, DeadlockThreshold: 500,
	}
	res := New(cfg).Run()
	if !res.Deadlocked {
		t.Fatalf("unrestricted routing should deadlock: %s", res)
	}
	if res.StuckFlits == 0 {
		t.Error("deadlock reported with no stuck flits")
	}
	// The diagnosis must extract a genuine wait cycle.
	if !strings.Contains(res.DeadlockTrace, "wait cycle:") {
		t.Errorf("missing wait cycle trace:\n%s", res.DeadlockTrace)
	}
	if strings.Count(res.DeadlockTrace, "buffer ") < 2 {
		t.Errorf("trace too short:\n%s", res.DeadlockTrace)
	}
}

func TestEbDaDesignsNeverDeadlockUnderSameLoad(t *testing.T) {
	// The same stress that deadlocks the unrestricted baseline leaves
	// every EbDa-derived design live (throughput may saturate, but the
	// watchdog must stay quiet).
	chains := map[string]string{
		"north-last-chain": "PA[X+ X- Y-] -> PB[Y+]",
		"negative-first":   "PA[X- Y-] -> PB[X+ Y+]",
		"dyxy":             "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",
	}
	for name, spec := range chains {
		chain := core.MustParseChain(spec)
		alg := routing.NewFromChain(name, chain, 2)
		cfg := Config{
			Net: topology.NewMesh(4, 4), Alg: alg, VCs: alg.VCs(),
			InjectionRate: 0.6, PacketLen: 8, BufferDepth: 2, Seed: 7,
			Warmup: 2000, Measure: 6000, Drain: 2000, DeadlockThreshold: 500,
		}
		res := New(cfg).Run()
		if res.Deadlocked {
			t.Errorf("%s deadlocked: %s", name, res)
		}
		if res.DeliveredPackets == 0 {
			t.Errorf("%s delivered nothing", name)
		}
	}
}

func TestAdaptiveBeatsDeterministicOnTranspose(t *testing.T) {
	// Transpose concentrates XY traffic on the diagonal; the fully
	// adaptive six-channel design should carry at least as much traffic.
	mk := func(alg routing.Algorithm, vcs []int) Result {
		return New(Config{
			Net: topology.NewMesh(6, 6), Alg: alg, VCs: vcs,
			Pattern:       traffic.Transpose{},
			InjectionRate: 0.25, Seed: 11,
			Warmup: 1000, Measure: 3000, Drain: 2000,
		}).Run()
	}
	xy := mk(routing.NewXY(), nil)
	dyxy := routing.NewFromChain("dyxy", core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"), 2)
	ad := mk(dyxy, dyxy.VCs())
	if xy.Deadlocked || ad.Deadlocked {
		t.Fatalf("unexpected deadlock: xy=%s dyxy=%s", xy, ad)
	}
	if ad.Throughput < xy.Throughput*0.95 {
		t.Errorf("adaptive throughput %.4f well below XY %.4f on transpose", ad.Throughput, xy.Throughput)
	}
}

func TestDuatoRunsWithoutDeadlockUnderStress(t *testing.T) {
	alg := duato.New()
	net := topology.NewMesh(4, 4)
	cfg := Config{
		Net: net, Alg: alg, VCs: alg.VCsPerDim(net),
		InjectionRate: 0.6, PacketLen: 8, BufferDepth: 2, Seed: 7,
		Warmup: 2000, Measure: 6000, Drain: 2000, DeadlockThreshold: 500,
	}
	res := New(cfg).Run()
	if res.Deadlocked {
		t.Errorf("duato deadlocked: %s", res)
	}
	if res.DeliveredPackets == 0 {
		t.Error("duato delivered nothing")
	}
}

func TestFlitConservation(t *testing.T) {
	cfg := lowLoadConfig(routing.NewXY(), nil)
	cfg.InjectionRate = 0.1
	cfg.Drain = 4000
	res := New(cfg).Run()
	if res.Deadlocked {
		t.Fatal(res)
	}
	// With a long drain at moderate load, everything injected must come
	// out, and nothing may remain in flight.
	if res.DeliveredPackets != res.InjectedPackets || res.StuckFlits != 0 {
		t.Errorf("conservation violated: %s", res)
	}
}

func TestSelectionPolicies(t *testing.T) {
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	alg := routing.NewFromChain("dyxy", chain, 2)
	for _, sel := range []Selection{SelectRandom, SelectFirst, SelectCredits} {
		cfg := lowLoadConfig(alg, alg.VCs())
		cfg.Selection = sel
		res := New(cfg).Run()
		if res.Deadlocked || res.DeliveredPackets != res.InjectedPackets {
			t.Errorf("selection %d: %s", sel, res)
		}
	}
}

func TestPatterns(t *testing.T) {
	for _, p := range []traffic.Pattern{
		traffic.Uniform{}, traffic.Transpose{}, traffic.BitComplement{},
		traffic.Neighbor{}, traffic.Hotspot{Fraction: 0.2},
	} {
		cfg := lowLoadConfig(routing.NewXY(), nil)
		cfg.Pattern = p
		res := New(cfg).Run()
		if res.Deadlocked {
			t.Errorf("%s: %s", p.Name(), res)
		}
		if res.InjectedPackets > 0 && res.DeliveredPackets != res.InjectedPackets {
			t.Errorf("%s: delivered %d/%d", p.Name(), res.DeliveredPackets, res.InjectedPackets)
		}
	}
}

func TestHigherLoadHigherThroughputBelowSaturation(t *testing.T) {
	mk := func(rate float64) Result {
		cfg := lowLoadConfig(routing.NewXY(), nil)
		cfg.InjectionRate = rate
		return New(cfg).Run()
	}
	lo, hi := mk(0.05), mk(0.15)
	if hi.Throughput <= lo.Throughput {
		t.Errorf("throughput did not scale: %.4f -> %.4f", lo.Throughput, hi.Throughput)
	}
	// Accepted traffic tracks offered load below saturation.
	if hi.Throughput < 0.10 || lo.Throughput < 0.03 {
		t.Errorf("accepted traffic too low: lo=%.4f hi=%.4f", lo.Throughput, hi.Throughput)
	}
}

func TestTorusDatelineSimulation(t *testing.T) {
	alg := routing.NewDatelineTorus()
	net := topology.NewTorus(4, 4)
	cfg := Config{
		Net: net, Alg: alg, VCs: alg.VCsPerDim(net),
		InjectionRate: 0.1, Seed: 3,
		Warmup: 500, Measure: 2000, Drain: 2000,
	}
	res := New(cfg).Run()
	if res.Deadlocked || res.DeliveredPackets != res.InjectedPackets {
		t.Errorf("dateline torus sim: %s", res)
	}
}

func TestFairnessIndex(t *testing.T) {
	// Uniform traffic at low load should be near-perfectly fair; the
	// index lives in (1/N, 1].
	cfg := lowLoadConfig(routing.NewXY(), nil)
	cfg.InjectionRate = 0.1
	cfg.Measure = 4000
	res := New(cfg).Run()
	if res.Deadlocked {
		t.Fatal(res)
	}
	if res.Fairness < 0.8 || res.Fairness > 1.0 {
		t.Errorf("uniform low-load fairness = %.3f, want near 1", res.Fairness)
	}
	// A single-source trace yields the minimum 1/N.
	net := topology.NewMesh(4, 4)
	var trace []traffic.TraceEntry
	for c := 1; c <= 40; c++ {
		trace = append(trace, traffic.TraceEntry{
			Cycle: c * 10, Src: 0, Dst: net.ID(topology.Coord{3, 3}),
		})
	}
	res = New(Config{Net: net, Alg: routing.NewXY(), Trace: trace,
		Warmup: 1, Measure: 500, Drain: 500, Seed: 1}).Run()
	want := 1.0 / 16
	if res.Fairness < want-1e-9 || res.Fairness > want+1e-9 {
		t.Errorf("single-source fairness = %.4f, want %.4f", res.Fairness, want)
	}
}

func TestRunSeeds(t *testing.T) {
	cfg := lowLoadConfig(routing.NewXY(), nil)
	cfg.InjectionRate = 0.1
	rep := RunSeeds(cfg, 4)
	if rep.Runs != 4 || rep.Deadlocks != 0 {
		t.Fatalf("replication: %s", rep)
	}
	if rep.Latency.N() != 4 || rep.Latency.Mean() <= 0 {
		t.Errorf("latency stream: %s", rep.Latency.String())
	}
	// Different seeds should produce some spread.
	if rep.Latency.Std() == 0 && rep.Throughput.Std() == 0 {
		t.Error("zero variance across seeds is suspicious")
	}
	// Deadlocking configs are counted, not averaged.
	bad := Config{
		Net: topology.NewMesh(4, 4), Alg: routing.NewUnrestricted(),
		InjectionRate: 0.6, PacketLen: 8, BufferDepth: 2, Seed: 7,
		Warmup: 1500, Measure: 4000, Drain: 500, DeadlockThreshold: 400,
	}
	brep := RunSeeds(bad, 2)
	if brep.Deadlocks == 0 {
		t.Error("expected deadlocks to be counted")
	}
	if !strings.Contains(brep.String(), "deadlocked") {
		t.Errorf("render: %s", brep)
	}
}

func TestLinkLatencyIncreasesLatency(t *testing.T) {
	mk := func(linkLatency int) Result {
		cfg := lowLoadConfig(routing.NewXY(), nil)
		cfg.LinkLatency = linkLatency
		return New(cfg).Run()
	}
	l1, l3 := mk(1), mk(3)
	if l1.Deadlocked || l3.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if l3.AvgLatency <= l1.AvgLatency+1 {
		t.Errorf("link latency 3 should raise latency: %.1f vs %.1f", l3.AvgLatency, l1.AvgLatency)
	}
	if l3.DeliveredPackets != l3.InjectedPackets {
		t.Errorf("delivery broken with link latency: %s", l3)
	}
}

func TestAdaptiveSpreadsLoadMoreEvenly(t *testing.T) {
	// Under transpose traffic, XY concentrates flits on the diagonal
	// links; the fully adaptive design spreads them (lower Gini).
	mk := func(alg routing.Algorithm, vcs []int) Result {
		return New(Config{
			Net: topology.NewMesh(6, 6), Alg: alg, VCs: vcs,
			Pattern:       traffic.Transpose{},
			InjectionRate: 0.2, Seed: 21,
			Warmup: 1000, Measure: 3000, Drain: 2000,
		}).Run()
	}
	xy := mk(routing.NewXY(), nil)
	dyxy := routing.NewFromChain("dyxy", core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"), 2)
	ad := mk(dyxy, dyxy.VCs())
	if xy.Deadlocked || ad.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if ad.LinkLoad.Gini >= xy.LinkLoad.Gini {
		t.Errorf("adaptive gini %.3f not below XY gini %.3f",
			ad.LinkLoad.Gini, xy.LinkLoad.Gini)
	}
	if xy.LatencyStd <= 0 {
		t.Error("latency std should be positive under load")
	}
}

func TestFaultySimulationReturnsCredits(t *testing.T) {
	// Regression: with a unidirectional link fault, credit return must
	// not depend on the reverse data link existing (credits are control
	// signals tied to the forward link). Before the fix, draining a
	// buffer whose reverse link was faulty leaked credits and wedged the
	// network.
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	base := topology.NewMesh(6, 6)
	faults := []topology.Link{
		{From: base.ID(topology.Coord{2, 3}), Dim: channel.X, Sign: channel.Plus},
		{From: base.ID(topology.Coord{3, 2}), Dim: channel.Y, Sign: channel.Plus},
	}
	faulty := base.WithoutLinks(faults)
	alg := routing.NewFaultTolerant("dyxy-ft", chain, faulty)
	res := New(Config{
		Net: faulty, Alg: alg, VCs: alg.VCs(),
		InjectionRate: 0.15, Seed: 3,
	}).Run()
	if res.Deadlocked {
		t.Fatalf("credit leak regression: %s", res)
	}
	if res.DeliveredPackets != res.InjectedPackets {
		t.Errorf("delivered %d/%d", res.DeliveredPackets, res.InjectedPackets)
	}
}

func TestPartial3DElevatorSimulation(t *testing.T) {
	net := topology.NewPartialMesh3D(3, 3, 2, [][2]int{{2, 2}})
	chain := core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]")
	alg := routing.NewEbDaElevator(chain, routing.Elevators{{2, 2}})
	cfg := Config{
		Net: net, Alg: alg, VCs: alg.VCs(),
		InjectionRate: 0.05, Seed: 9,
		Warmup: 500, Measure: 2000, Drain: 3000,
	}
	res := New(cfg).Run()
	if res.Deadlocked || res.DeliveredPackets != res.InjectedPackets {
		t.Errorf("partial 3D sim: %s", res)
	}
}

func TestRunSeedsJobsDeterministic(t *testing.T) {
	// A memoizing adaptive algorithm shared across workers is the
	// hardest case: concurrent Candidates calls hit the same reach
	// cache. The aggregate must be bit-identical for every jobs value.
	dyxy := routing.NewFromChain("dyxy", core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"), 2)
	cfg := lowLoadConfig(dyxy, dyxy.VCs())
	cfg.InjectionRate = 0.1
	ref := RunSeedsJobs(cfg, 6, 1)
	for _, jobs := range []int{2, 8} {
		rep := RunSeedsJobs(cfg, 6, jobs)
		if rep != ref {
			t.Fatalf("jobs=%d diverged:\n  got  %+v\n  want %+v", jobs, rep, ref)
		}
	}
	if ref.Runs != 6 || ref.Latency.N() != 6 {
		t.Fatalf("aggregate lost runs: %+v", ref)
	}
}

// TestStageCounters pins the per-stage counts on a trace that fully
// drains under XY: each packet's head is routed once at every router
// before its destination (however long it waits there), each flit moves
// through one switch per hop plus the ejection switch, every move was a
// bucketed request, and recordObs folds exactly these counts into the
// process counters.
func TestStageCounters(t *testing.T) {
	net := topology.NewMesh(4, 4)
	var trace []traffic.TraceEntry
	wantRouted, wantMoved := 0, 0
	for i := 0; i < 60; i++ {
		src := topology.NodeID(i * 7 % net.Nodes())
		dst := topology.NodeID(i * 11 % net.Nodes())
		if src == dst {
			continue
		}
		length := 1 + i%5
		trace = append(trace, traffic.TraceEntry{Cycle: 1 + i/3, Src: src, Dst: dst, Len: length})
		hops := net.MinimalHops(src, dst)
		wantRouted += hops
		wantMoved += length * (hops + 1)
	}
	s := New(Config{Net: net, Alg: routing.NewXY(), Trace: trace, Warmup: 1, Measure: 100, Drain: 2000, Seed: 1})
	routedBefore, bucketedBefore, movedBefore := obsHeadsRouted.Value(), obsRequestsBucketed.Value(), obsFlitsMoved.Value()
	res := s.Run()
	if res.Deadlocked || res.StuckFlits != 0 || res.DeliveredPackets != len(trace) {
		t.Fatalf("trace did not drain: %+v", res)
	}
	if s.headsRouted != wantRouted || s.flitsMoved != wantMoved {
		t.Errorf("heads routed %d, flits moved %d; want %d and %d", s.headsRouted, s.flitsMoved, wantRouted, wantMoved)
	}
	if s.requestsBucketed < s.flitsMoved {
		t.Errorf("requests bucketed %d < flits moved %d", s.requestsBucketed, s.flitsMoved)
	}
	for _, c := range []struct {
		name          string
		before, after uint64
		want          int
	}{
		{"heads routed", routedBefore, obsHeadsRouted.Value(), s.headsRouted},
		{"requests bucketed", bucketedBefore, obsRequestsBucketed.Value(), s.requestsBucketed},
		{"flits moved", movedBefore, obsFlitsMoved.Value(), s.flitsMoved},
	} {
		if got := c.after - c.before; got != uint64(c.want) {
			t.Errorf("%s counter grew by %d, want %d", c.name, got, c.want)
		}
	}
}
