package main

import (
	"math/rand"
	"runtime"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
	"ebda/internal/obs/trace"
	"ebda/internal/topology"
)

// graph-modes: one caller in a closed loop takes graph bytes through
// graphio.Parse and graphio.Graph.Verify, the ebda-graph path. The mode
// cache is emptied before every op, as in a fresh ebda-graph process, so
// every verdict is computed.

// graphModes lists the modes in deck order.
var graphModes = []cdg.GraphMode{cdg.ModeLoop, cdg.ModeLiveness, cdg.ModeEscape, cdg.ModeSubrel}

// graphSize groups inputs by how often each (encoding, mode) pair of
// theirs appears per pass over the deck. The large dragonfly appears
// often enough that the slowest class (its JSON parse) holds more than
// 1% of ops, so p99 falls inside one class rather than on a boundary.
type graphSize struct {
	weight int
	build  func(rng *rand.Rand) ([]graphInput, error)
}

var graphSizes = []graphSize{
	{7, func(rng *rand.Rand) ([]graphInput, error) {
		return withDAGs(rng, 1000, topology.Dragonfly{Groups: 9, Routers: 4, Terminals: 2}, 1, 2)
	}},
	{1, func(rng *rand.Rand) ([]graphInput, error) {
		return withDAGs(rng, 8000, topology.Dragonfly{Groups: 17, Routers: 8, Terminals: 4}, 1, 2)
	}},
	{1, func(*rand.Rand) ([]graphInput, error) {
		in, err := dragonflyInput(topology.Dragonfly{Groups: 33, Routers: 16, Terminals: 8}, 2)
		return []graphInput{in}, err
	}},
}

// withDAGs returns a dragonfly at each VC count plus an n-channel random
// DAG and the same DAG with a back edge.
func withDAGs(rng *rand.Rand, n int, d topology.Dragonfly, vcs ...int) ([]graphInput, error) {
	var out []graphInput
	for _, v := range vcs {
		in, err := dragonflyInput(d, v)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	// Both DAGs come from the same stream position, so the back-edge
	// graph is the plain one plus one edge.
	state := rng.Int63()
	out = append(out, randomDAG(rand.New(rand.NewSource(state)), n, false))
	out = append(out, randomDAG(rand.New(rand.NewSource(state)), n, true))
	return out, nil
}

// graphOp is one deck entry.
type graphOp struct {
	in   int // index into inputs
	json bool
	mode cdg.GraphMode
}

type graphSetup struct {
	inputs []graphInput
	edges  []edgeSet
	deck   []graphOp
	genS   float64 // dragonfly generation time of this set-up
	expS   float64 // graphio build and export time of this set-up
}

// buildGraphSetup generates every input, exports it and deals the deck.
func buildGraphSetup(seed int64) (*graphSetup, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &graphSetup{}
	for _, sz := range graphSizes {
		t0 := now()
		ins, err := sz.build(rng)
		if err != nil {
			return nil, err
		}
		st.genS += since(t0).Seconds()
		for i := range ins {
			t1 := now()
			if err := ins[i].export(); err != nil {
				return nil, err
			}
			st.expS += since(t1).Seconds()
			idx := len(st.inputs)
			st.inputs = append(st.inputs, ins[i])
			st.edges = append(st.edges, newEdgeSet(ins[i].edges))
			for _, mode := range graphModes {
				if _, ok := ins[i].want[mode]; !ok {
					continue
				}
				for w := 0; w < sz.weight; w++ {
					st.deck = append(st.deck, graphOp{idx, false, mode}, graphOp{idx, true, mode})
				}
			}
		}
	}
	rng.Shuffle(len(st.deck), func(i, j int) { st.deck[i], st.deck[j] = st.deck[j], st.deck[i] })
	return st, nil
}

// verify is the measured op: bytes to verdict.
func (st *graphSetup) verify(tc *trace.Trace, op graphOp) (cdg.ModeReport, int, error) {
	in := &st.inputs[op.in]
	data, name := in.text, "graphio.parse_text"
	if op.json {
		data, name = in.json, "graphio.parse_json"
	}
	psp := tc.StartSpan(name)
	g, err := graphio.Parse(data)
	psp.End()
	if err != nil {
		return cdg.ModeReport{}, 0, err
	}
	var escape []int
	if op.mode == cdg.ModeEscape {
		escape = in.escape
	}
	vsp := tc.StartSpan(modeSpan[op.mode])
	rep, err := g.Verify(op.mode, escape)
	vsp.End()
	return rep, g.Edges.NumEdges(), err
}

var modeSpan = map[cdg.GraphMode]string{
	cdg.ModeLoop: "cdg.mode.loop", cdg.ModeLiveness: "cdg.mode.liveness",
	cdg.ModeEscape: "cdg.mode.escape", cdg.ModeSubrel: "cdg.mode.subrel",
}

func runGraphModes(cfg config) (*report, error) {
	st, setupS, err := setupMedian(func() (*graphSetup, error) {
		st, err := buildGraphSetup(cfg.seed)
		if err != nil {
			return nil, err
		}
		// Warm-up: one op per input on the smallest encodings.
		for _, op := range st.deck[:16] {
			cdg.DefaultModeCache.Reset()
			if _, _, err := st.verify(nil, op); err != nil {
				return nil, err
			}
		}
		return st, nil
	}, func(*graphSetup) {})
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
	var parsedBytes float64
	correct := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pt := closedLoop(cfg, len(st.deck), func(i int) float64 {
		op := st.deck[i%len(st.deck)]
		cdg.DefaultModeCache.Reset()
		traced := tr != nil && (i+i/len(st.deck))%2 == 0
		var tc *trace.Trace
		if traced {
			tc = tr.start("bench.graph")
		}
		t0 := now()
		mrep, nEdges, err := st.verify(tc, op)
		d := ms(since(t0).Nanoseconds())
		if traced {
			tr.finish(tc)
			tracedMs = append(tracedMs, d)
			if op.json {
				parsedBytes += float64(len(st.inputs[op.in].json))
			} else {
				parsedBytes += float64(len(st.inputs[op.in].text))
			}
		} else if tr != nil {
			plainMs = append(plainMs, d)
		}
		rep.attempted++
		in := &st.inputs[op.in]
		switch {
		case err != nil:
			rep.fail("graph-modes %s %s: %v", in.name, op.mode, err)
		case nEdges != len(in.edges):
			rep.fail("graph-modes %s: parsed %d edges, generated %d", in.name, nEdges, len(in.edges))
		default:
			if err := in.checkMode(st.edges[op.in], op.mode, mrep); err != nil {
				rep.fail("graph-modes %v", err)
			} else {
				correct++
			}
		}
		return d
	})
	runtime.ReadMemStats(&m1)
	all := pt.all()
	rep.linef("graph-modes: %d verdicts (%d correct) in %.2fs of op time, %d passes over a deck of %d ops on %d inputs",
		len(all), correct, all.sum()/1e3, len(pt.passes), len(st.deck), len(st.inputs))
	p99, err := pt.tail("verdict", 0.99)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.metrics["verdict_p50_ms"] = pt.p50()
		rep.metrics["verdicts_per_s"] = pt.rate() * float64(correct) / float64(len(all))
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.linef("graph-modes: verdict p50 %.3f ms and rate %.1f/s (medians over %d passes), p99 %.3f ms over %d samples",
			pt.p50(), pt.rate(), len(pt.passes), p99, len(all))
		return rep, nil
	}
	f := tr.f
	m := rep.metrics
	m["verdict_p99_ms"] = p99
	parseSelf := f.selfSum("graphio.parse_text", "graphio.parse_json")
	m["graphio.parse_text_ms"] = f.get("graphio.parse_text").self.mean()
	m["graphio.parse_json_ms"] = f.get("graphio.parse_json").self.mean()
	m["graphio.parse_mb_per_s"] = ratio(parsedBytes/1e6, parseSelf/1e3)
	for _, name := range modeSpan {
		m[name+"_ms"] = f.get(name).self.mean()
	}
	m["topology.dragonfly_gen_s"] = st.genS
	m["graphio.export_s"] = st.expS
	m["alloc_bytes_per_verdict"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(all))
	m["trace.overhead_frac"] = ratio(tracedMs.mean(), plainMs.mean()) - 1
	layers := map[string]bool{"graphio.parse_text": true, "graphio.parse_json": true}
	for _, name := range modeSpan {
		layers[name] = true
	}
	m["unattributed_frac"] = ratio(f.unattributed(layers), f.get("bench.graph").dur.sum())
	m["traced_verdicts"] = float64(len(tracedMs))
	rep.linef("graph-modes traced: %d traced verdicts, %d untraced; parse rate base %.1f MB over %.3f s of parse self time",
		len(tracedMs), len(plainMs), parsedBytes/1e6, parseSelf/1e3)
	rep.linef("graph-modes traced: set-up spent %.3f s in the dragonfly generator and %.3f s in graphio build+export (last set-up)",
		st.genS, st.expS)
	printFold(rep, f)
	return rep, nil
}
