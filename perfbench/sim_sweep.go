package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ebda/internal/core"
	"ebda/internal/obs/trace"
	"ebda/internal/routing"
	"ebda/internal/sim"
	"ebda/internal/topology"
	"ebda/internal/traffic"
)

// sim-sweep: one worker in a closed loop simulates a fixed config set on
// an 8x8 mesh: XY, west-first, odd-even and an EbDa chain, under uniform,
// transpose and hotspot traffic, at one injection rate below saturation
// and one near it. Each op is one seeded simulation, what
// sim.RunSeedsJobs runs per seed with jobs=1; the harness calls sim.New
// and Simulator.Run itself because RunSeedsJobs returns only aggregates
// and the conservation check needs each run's counts. One worker, not
// nproc: on a two-CPU host a second worker would share its CPU with the
// collector and the harness, and its op times with them.

const (
	simSide                         = 8
	simWarmup, simMeasure, simDrain = 40, 160, 120
	simCycles                       = simWarmup + simMeasure + simDrain
	simPacketLen                    = 5
)

// simAlg is a routing algorithm with the per-dimension VCs it needs.
type simAlg struct {
	alg routing.Algorithm
	vcs []int
}

// simAlgs builds the algorithms.
func simAlgs() []simAlg {
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	return []simAlg{
		{routing.NewXY(), []int{1, 1}},
		{routing.NewWestFirst(), []int{1, 1}},
		{routing.NewOddEven(), []int{1, 1}},
		{routing.NewFromChain("ebda-2vc", chain, 2), []int{1, 2}},
	}
}

// simPatterns pairs each traffic pattern with a rate below saturation and
// one near it (flits/node/cycle, 8x8 mesh).
var simPatterns = []struct {
	name      string
	low, high float64
}{
	{"uniform", 0.05, 0.30},
	{"transpose", 0.05, 0.20},
	{"hotspot", 0.05, 0.20},
}

// simOp is one deck entry: a config and the seed of its simulation.
type simOp struct {
	alg, pattern int
	high         bool
	seed         int64
}

func (o simOp) String() string {
	rate := "low"
	if o.high {
		rate = "high"
	}
	return fmt.Sprintf("alg%d/%s/%s/seed%d", o.alg, simPatterns[o.pattern].name, rate, o.seed)
}

// simDeck deals every config twice, with simulation seeds 1 and 2, in an
// order drawn from the run seed; its first half holds each config once.
// The simulation seeds are fixed, not drawn: near saturation a
// simulation's work moves with its traffic, and every run seed is to
// simulate the same work.
func simDeck(seed int64) []simOp {
	rng := rand.New(rand.NewSource(seed))
	var deck []simOp
	for rep := int64(1); rep <= 2; rep++ {
		var half []simOp
		for a := 0; a < 4; a++ {
			for p := range simPatterns {
				for _, high := range []bool{false, true} {
					half = append(half, simOp{a, p, high, rep})
				}
			}
		}
		rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
		deck = append(deck, half...)
	}
	return deck
}

// simWorker owns the algorithm instances and the network.
type simWorker struct {
	net      *topology.Network
	algs     []simAlg
	patterns []traffic.Pattern
}

func newSimWorker() (*simWorker, error) {
	w := &simWorker{net: topology.NewMesh(simSide, simSide), algs: simAlgs()}
	for _, p := range simPatterns {
		pat, err := traffic.ByName(p.name)
		if err != nil {
			return nil, err
		}
		w.patterns = append(w.patterns, pat)
	}
	return w, nil
}

// simulate is the measured op.
func (w *simWorker) simulate(tc *trace.Trace, o simOp) sim.Result {
	a := w.algs[o.alg]
	rate := simPatterns[o.pattern].low
	if o.high {
		rate = simPatterns[o.pattern].high
	}
	nsp := tc.StartSpan("sim.new")
	s := sim.New(sim.Config{
		Net: w.net, Alg: a.alg, VCs: a.vcs, PacketLen: simPacketLen,
		InjectionRate: rate, Pattern: w.patterns[o.pattern], Seed: o.seed,
		Warmup: simWarmup, Measure: simMeasure, Drain: simDrain,
	})
	nsp.End()
	rsp := tc.StartSpan("sim.run")
	res := s.Run()
	rsp.End()
	return res
}

// checkSim holds a deadlock-free algorithm's run to its known answer: no
// deadlock, and flits conserved — every packet not delivered still has
// between one and PacketLen flits in the network.
func checkSim(res sim.Result) error {
	if res.Deadlocked {
		return fmt.Errorf("deadlock reported after %d cycles", res.Cycles)
	}
	undelivered := res.InjectedPackets - res.DeliveredPackets
	if undelivered < 0 || res.StuckFlits < undelivered || res.StuckFlits > undelivered*simPacketLen {
		return fmt.Errorf("flits not conserved: %d injected, %d delivered, %d flits in flight",
			res.InjectedPackets, res.DeliveredPackets, res.StuckFlits)
	}
	if res.DeliveredPackets == 0 || res.Cycles != simCycles {
		return fmt.Errorf("ran %d cycles, delivered %d packets", res.Cycles, res.DeliveredPackets)
	}
	return nil
}

type simSetup struct {
	deck   []simOp
	worker *simWorker
}

func runSimSweep(cfg config) (*report, error) {
	st, setupS, err := setupMedian(func() (*simSetup, error) {
		w, err := newSimWorker()
		if err != nil {
			return nil, err
		}
		st := &simSetup{deck: simDeck(cfg.seed), worker: w}
		// Warm-up: every config once.
		for _, o := range st.deck[:len(st.deck)/2] {
			if err := checkSim(w.simulate(nil, o)); err != nil {
				return nil, err
			}
		}
		return st, nil
	}, func(*simSetup) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setupS

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var tracedMs, plainMs samples
	var cycles, delivered float64
	byConfig := map[string]samples{}
	correct := 0
	pt := closedLoop(cfg, len(st.deck), func(i int) float64 {
		op := st.deck[i%len(st.deck)]
		traced := tr != nil && (i+i/len(st.deck))%2 == 0
		var tc *trace.Trace
		if traced {
			tc = tr.start("bench.sim")
		}
		t0 := now()
		res := st.worker.simulate(tc, op)
		d := ms(since(t0).Nanoseconds())
		if traced {
			tr.finish(tc)
			tracedMs = append(tracedMs, d)
		} else {
			plainMs = append(plainMs, d)
		}
		rep.attempted++
		if err := checkSim(res); err != nil {
			rep.fail("sim-sweep %s: %v", op, err)
			return d
		}
		correct++
		if i < len(st.deck) {
			cycles += float64(res.Cycles)
			delivered += float64(res.DeliveredPackets)
		}
		op.seed = 0 // group runs by config
		byConfig[op.String()] = append(byConfig[op.String()], d)
		return d
	})
	all := pt.all()
	keys := make([]string, 0, len(byConfig))
	for k := range byConfig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.linef("sim-sweep config %-32s runs %4d  mean %8.2f ms", k, len(byConfig[k]), byConfig[k].mean())
	}
	rep.linef("sim-sweep: %d simulations (%d correct) in %.2fs of op time, %d passes over a deck of %d runs, %d cycles each",
		len(all), correct, all.sum()/1e3, len(pt.passes), len(st.deck), simCycles)
	if len(all) < minVerdicts {
		return nil, fmt.Errorf("only %d simulations; p99 needs %d", len(all), minVerdicts)
	}
	routerCycles := float64(simSide*simSide) * simCycles
	perSec := pt.rate()
	p99, err := pt.tail("verdict", 0.99)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.metrics["verdict_p50_ms"] = pt.p50()
		rep.metrics["verdicts_per_s"] = perSec * float64(correct) / float64(len(all))
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.linef("sim-sweep: verdict p50 %.3f ms and rate %.2f/s (medians over %d passes), p99 %.3f ms over %d samples",
			pt.p50(), perSec, len(pt.passes), p99, len(all))
		rep.linef("sim-sweep: sim_router_cycles_per_s %.0f 1/s (%d routers x %d cycles x %.2f simulations/s)",
			perSec*routerCycles, simSide*simSide, simCycles, perSec)
		return rep, nil
	}
	f := tr.f
	m := rep.metrics
	m["verdict_p99_ms"] = p99
	m["sim.new_ms"] = f.get("sim.new").self.mean()
	m["sim.run_ms"] = f.get("sim.run").self.mean()
	m["sim.cycles"] = cycles
	m["sim.delivered_packets"] = delivered
	m["sim.router_cycles_per_s"] = perSec * routerCycles
	m["trace.overhead_frac"] = ratio(tracedMs.mean(), plainMs.mean()) - 1
	m["unattributed_frac"] = ratio(f.unattributed(map[string]bool{"sim.new": true, "sim.run": true}), f.get("bench.sim").dur.sum())
	m["traced_verdicts"] = float64(len(tracedMs))
	rep.linef("sim-sweep traced: %d traced simulations, %d untraced; sim.cycles and sim.delivered_packets over the first pass of %d deck runs",
		len(tracedMs), len(plainMs), len(st.deck))
	printFold(rep, f)
	return rep, nil
}
