package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"ebda/internal/cdg"
	"ebda/internal/obs"
	"ebda/internal/obs/trace"
	"ebda/internal/partstrat"
	"ebda/internal/topology"
)

// verify-cold: one caller in a closed loop verifies turn-set designs
// through VerifyCache.VerifyTurnSetCtx with jobs=1, the ebda-verify
// path. The cache is emptied before every call, so every verdict is a
// miss and the work is edge construction and the Kahn peel.

const poolReuses = "ebda_workspace_pool_reuses_total"

// The verify-cold shapes are fixed, so every seed does the same amount
// of work; the seed picks the designs within each category and the
// order. With their VC configurations they make more (network, VCs)
// pairs than the engine's workspace pool keeps, so the pool keeps
// flushing and first-contact verifies recur all run long.
var (
	coldShapes2D = []shape{
		{"mesh", []int{16, 16}}, {"mesh", []int{16, 40}}, {"mesh", []int{24, 24}}, {"mesh", []int{24, 56}},
		{"mesh", []int{32, 32}}, {"mesh", []int{32, 48}}, {"mesh", []int{40, 40}}, {"mesh", []int{48, 20}},
		{"mesh", []int{48, 48}}, {"mesh", []int{56, 30}}, {"mesh", []int{64, 64}}, {"mesh", []int{64, 16}},
		{"torus", []int{16, 16}}, {"torus", []int{32, 32}}, {"torus", []int{48, 24}}, {"torus", []int{64, 40}},
	}
	coldShapes3D = []shape{
		{"mesh", []int{4, 4, 4}}, {"mesh", []int{8, 8, 8}}, {"mesh", []int{16, 16, 16}}, {"mesh", []int{8, 8, 16}},
		{"mesh", []int{12, 12, 12}}, {"mesh", []int{16, 8, 4}}, {"mesh", []int{6, 10, 14}}, {"mesh", []int{10, 10, 10}},
	}
	coldShapes4D = []shape{{"mesh", []int{8, 8, 8, 8}}}
)

// coldItem is one deck entry: a shape, a design and the known answer.
type coldItem struct {
	shape  shape
	design design
	want   bool
	net    *topology.Network // set by the set-up
}

// coldDeckFor deals every shape one design from each of its categories:
// each Derive family's VC budget, a single-VC classic turn model (2D),
// the minimal fully adaptive chain (2D, 3D) and a known-cyclic turn
// list, about one item in six. Within a category every pick has the same
// VC configuration, so the seed changes designs but not the set of
// (network, VC) shapes the engine sees.
func coldDeckFor(seed int64) ([]coldItem, error) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	var deck []coldItem
	add := func(s shape, d design) { deck = append(deck, coldItem{shape: s, design: d, want: d.want(s)}) }
	for _, dims := range []struct {
		shapes  []shape
		budgets [][]int
		classic bool
	}{
		{coldShapes2D, [][]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}, true},
		{coldShapes3D, [][]int{{1, 1, 1}, {1, 1, 2}}, false},
		{coldShapes4D, [][]int{{1, 1, 1, 1}}, false},
	} {
		n := len(dims.shapes[0].sizes)
		var families [][]string
		for _, b := range dims.budgets {
			chains, err := familyChains(rng, b, 6)
			if err != nil {
				return nil, err
			}
			families = append(families, chains)
		}
		var minFA string
		if n <= 3 {
			c, err := partstrat.MinFullyAdaptiveChain(n)
			if err != nil {
				return nil, err
			}
			minFA = c.String()
		}
		for _, s := range dims.shapes {
			for _, f := range families {
				add(s, design{chain: pick(f), acyclicOnMesh: true})
			}
			if dims.classic {
				add(s, design{chain: pick(classicChains[:3]), acyclicOnMesh: true})
			}
			if minFA != "" {
				add(s, design{chain: minFA, acyclicOnMesh: true})
			}
			add(s, design{turns: pick(cyclicTurns)})
		}
	}
	// The order is fixed, not seeded: the pool's flush pattern, and with
	// it which verifies are first contacts, is then the same for every
	// seed.
	order := rand.New(rand.NewSource(1))
	order.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck, nil
}

// coldSetup is what verify-cold builds before timing. The networks are
// built once per shape and kept across ops, as the server keeps them, so
// the engine's workspace pool can recognise a shape it has seen.
type coldSetup struct {
	deck  []coldItem
	cache *cdg.VerifyCache
	// buildMs holds each shape's NewMesh/NewTorus and link-table time.
	buildMs samples
}

func buildColdSetup(seed int64) (*coldSetup, error) {
	deck, err := coldDeckFor(seed)
	if err != nil {
		return nil, err
	}
	st := &coldSetup{deck: deck, cache: &cdg.VerifyCache{}}
	nets := map[string]*topology.Network{}
	for i := range deck {
		key := deck[i].shape.String()
		if nets[key] == nil {
			t0 := now()
			nets[key] = deck[i].shape.build()
			nets[key].Links()
			st.buildMs = append(st.buildMs, ms(since(t0).Nanoseconds()))
		}
		deck[i].net = nets[key]
	}
	// Warm-up: one pass over the deck, so the loop starts with the code
	// paths resident and the workspace pool in its steady state.
	for i := range deck {
		st.cache.Reset()
		if r := st.verify(context.Background(), &deck[i]); r.err != nil {
			return nil, r.err
		}
	}
	st.cache.Reset()
	return st, nil
}

// coldResult is one timed verdict, checked after the loop.
type coldResult struct {
	item *coldItem
	net  *topology.Network
	rep  cdg.Report
	err  error
}

func runVerifyCold(cfg config) (*report, error) {
	st, setupS, err := setupMedian(func() (*coldSetup, error) { return buildColdSetup(cfg.seed) }, func(*coldSetup) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setupS

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	reuses := obs.Default.Counter(poolReuses, "")
	var results []coldResult
	var tracedMs, plainMs samples
	firstContacts := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	pt := closedLoop(cfg, len(st.deck), func(i int) float64 {
		it := &st.deck[i%len(st.deck)]
		st.cache.Reset()
		// Trace every other op, flipping parity each pass over the deck so
		// each item is measured both ways.
		traced := tr != nil && (i+i/len(st.deck))%2 == 0
		ctx := context.Background()
		var tc *trace.Trace
		if traced {
			tc = tr.start("bench.verify")
			ctx = trace.NewContext(ctx, tc)
		}
		r0 := reuses.Value()
		t0 := now()
		res := st.verify(ctx, it)
		d := ms(since(t0).Nanoseconds())
		if traced {
			tr.finish(tc)
			tracedMs = append(tracedMs, d)
			if reuses.Value() == r0 {
				firstContacts++
			}
		} else {
			plainMs = append(plainMs, d)
		}
		results = append(results, res)
		return d
	})
	wall := since(start).Seconds()
	runtime.ReadMemStats(&m1)

	correct := 0
	for i := range results {
		r := &results[i]
		rep.attempted++
		if err := r.check(); err != nil {
			rep.fail("verify-cold %s on %s: %v", r.item.design.label(), r.item.shape, err)
			continue
		}
		correct++
	}
	if len(results) < minVerdicts {
		return nil, fmt.Errorf("only %d verdicts in %.1fs; p99 needs %d", len(results), wall, minVerdicts)
	}
	rep.linef("verify-cold: %d verdicts (%d correct) in %.2fs, %d passes over a deck of %d items, jobs=1",
		len(results), correct, wall, len(pt.passes), len(st.deck))
	p99, err := pt.tail("verdict", 0.99)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.metrics["verdict_p50_ms"] = pt.p50()
		rep.metrics["verdicts_per_s"] = pt.rate() * float64(correct) / float64(len(results))
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.linef("verify-cold: verdict p50 %.3f ms and rate %.1f/s (medians over %d passes), p99 %.3f ms over %d samples",
			pt.p50(), pt.rate(), len(pt.passes), p99, len(results))
		return rep, nil
	}

	// Per-layer metrics from the traced half of the ops.
	f := tr.f
	var chans, edges float64
	for i := range st.deck {
		chans += float64(results[i].rep.Channels)
		edges += float64(results[i].rep.Edges)
	}
	pass := float64(len(st.deck))
	edgeSelf := f.get("cdg.edges").self.sum()
	kahnSelf := f.get("cdg.kahn").self.sum()
	builtEdges := f.get("cdg.edges").attrs["edges"]
	m := rep.metrics
	m["verdict_p99_ms"] = p99
	m["cdg.edges_ms"] = f.get("cdg.edges").self.mean()
	m["cdg.kahn_ms"] = f.get("cdg.kahn").self.mean()
	m["cdg.kahn_rounds"] = ratio(f.get("cdg.kahn").attrs["rounds"], float64(len(f.get("cdg.kahn").self)))
	m["cdg.verify_self_ms"] = f.get("cdg.verify").self.mean()
	m["cdg.build_peel_ratio"] = ratio(edgeSelf, kahnSelf)
	m["cdg.pool_key_ms"] = f.get("cdg.call").self.mean()
	m["cdg.first_contact_ratio"] = ratio(float64(firstContacts), float64(len(tracedMs)))
	m["topology.network_ms"] = st.buildMs.mean()
	m["core.turnset_ms"] = f.get("core.turnset").self.mean()
	m["cdg.channels_per_verdict"] = chans / pass
	m["cdg.edges_per_verdict"] = edges / pass
	m["cdg.edges_per_s"] = ratio(builtEdges, edgeSelf/1e3)
	m["alloc_bytes_per_verdict"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(results))
	m["trace.overhead_frac"] = ratio(tracedMs.mean(), plainMs.mean()) - 1
	layers := map[string]bool{"core.turnset": true, "cdg.call": true,
		"cdg.verify": true, "cdg.edges": true, "cdg.kahn": true}
	m["unattributed_frac"] = ratio(f.unattributed(layers), f.get("bench.verify").dur.sum())
	m["traced_verdicts"] = float64(len(tracedMs))
	rep.linef("verify-cold traced: %d traced verdicts, %d untraced; first contact %d of %d traced (base: traced verdicts)",
		len(tracedMs), len(plainMs), firstContacts, len(tracedMs))
	rep.linef("verify-cold traced: channels/edges per verdict over one pass of %d deck items", int(pass))
	rep.linef("verify-cold traced: cdg.edges_per_s = %.0f built edges / %.3f s of cdg.edges self time", builtEdges, edgeSelf/1e3)
	rep.linef("verify-cold traced: topology.network_ms is the mean NewMesh/NewTorus build over the %d shapes of the last set-up", len(st.buildMs))
	printFold(rep, f)
	return rep, nil
}

// verify is the measured op: design bytes to verdict.
func (st *coldSetup) verify(ctx context.Context, it *coldItem) coldResult {
	tc := trace.FromContext(ctx)
	net := it.net
	tsp := tc.StartSpan("core.turnset")
	ts, vcs, err := it.design.turnSet(net)
	tsp.End()
	if err != nil {
		return coldResult{item: it, net: net, err: err}
	}
	csp := tc.StartSpan("cdg.call")
	rep, err := st.cache.VerifyTurnSetCtx(ctx, net, vcs, ts, 1)
	csp.End()
	return coldResult{item: it, net: net, rep: rep, err: err}
}

// check compares the verdict with the known answer and validates a
// cycle witness hop by hop.
func (r *coldResult) check() error {
	if r.err != nil {
		return r.err
	}
	if r.rep.Acyclic != r.item.want {
		return fmt.Errorf("verdict acyclic=%t, known answer %t", r.rep.Acyclic, r.item.want)
	}
	if r.rep.Acyclic {
		return nil
	}
	ts, vcs, err := r.item.design.turnSet(r.net)
	if err != nil {
		return err
	}
	return checkTurnCycle(r.net, vcs, ts, hopsOf(r.rep.Cycle))
}
