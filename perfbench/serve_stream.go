package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/serve"
	"ebda/internal/topology"
)

// The serve-mix request stream. It copies ebda-loadgen's seeded mix in
// spirit; it is not observed traffic. Every request carries the check
// its response must pass, written from the known answer of its input.

// sreq is one request of the stream.
type sreq struct {
	class string // hot, cold, delta, graph, batch, design or invalid
	path  string
	body  []byte
	check func(status int, body []byte) error
}

// The mix is dealt in blocks of 20 requests, each holding exactly these
// counts in a seeded order, so every seed sends the same share of each
// class: 50% hot, 15% cold, 10% delta, 10% graph, 5% batch, 5% design
// and 5% invalid bodies.
var mixBlock = []struct {
	class string
	n     int
}{{"hot", 10}, {"cold", 3}, {"delta", 2}, {"graph", 2}, {"batch", 1}, {"design", 1}, {"invalid", 1}}

// coldSides are the mesh sides cold requests draw from: every pair of
// them, in a seeded order per cycle, so each seed verifies the same
// shapes in a cycle of 225 cold requests.
var coldSides = []int{4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32}

// freshDAGSizes are the channel counts fresh graph requests cycle through.
var freshDAGSizes = []int{250, 500, 1000, 2000}

// verifyCase is a /v1/verify input with its known answer.
type verifyCase struct {
	shape  shape
	design design
}

// hotCases are the handful of designs the cache holds after warm-up,
// two of them known-cyclic so hot responses carry witnesses too.
var hotCases = []verifyCase{
	{shape{"mesh", []int{8, 8}}, design{chain: "PA[X+ X- Y-] -> PB[Y+]", acyclicOnMesh: true}},
	{shape{"mesh", []int{6, 6}}, design{chain: "PA[X-] -> PB[X+ Y+ Y-]", acyclicOnMesh: true}},
	{shape{"mesh", []int{5, 5}}, design{chain: "PA[X- Y-] -> PB[X+ Y+]", acyclicOnMesh: true}},
	{shape{"mesh", []int{16, 16}}, design{chain: "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]", acyclicOnMesh: true}},
	{shape{"torus", []int{6, 6}}, design{chain: "PA[X+ Y+] -> PB[X- Y-]", acyclicOnMesh: true}},
	{shape{"mesh", []int{6, 6}}, design{turns: cyclicTurns[0]}},
}

// deltaBases are the pinned designs the delta requests perturb.
var deltaBases = []verifyCase{
	{shape{"mesh", []int{8, 8}}, design{chain: "PA[X+ X- Y-] -> PB[Y+]", acyclicOnMesh: true}},
	{shape{"mesh", []int{8, 8}}, design{chain: "PA[X-] -> PB[X+ Y+ Y-]", acyclicOnMesh: true}},
	{shape{"mesh", []int{8, 8}}, design{chain: "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]", acyclicOnMesh: true}},
}

// invalidBodies must each be answered with a 4xx.
var invalidBodies = []struct{ path, body string }{
	{"/v1/verify", `{"network":{"kind":"ring","sizes":[8,8]},"chain":"PA[X+]"}`},
	{"/v1/verify", `{"network":{"kind":"mesh","sizes":[1,8]},"chain":"PA[X+]"}`},
	{"/v1/verify", `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+]","turns":"X+>Y+"}`},
	{"/v1/verify", `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[Q*]"}`},
	{"/v1/verify", `not json at all`},
	{"/v1/verify/delta", `{"base":{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"},"remove_links":[{"at":[7,3],"dir":"X+"}]}`},
	{"/v1/verify/graph", `{"cdg":"3\n0\n2\n0 1\n1 2\n","mode":"sideways"}`},
	{"/v1/design", `{"vcs":[]}`},
	{"/v1/batch", `{"requests":"none"}`},
}

func (vc verifyCase) request() serve.VerifyRequest {
	return serve.VerifyRequest{
		Network: serve.NetworkSpec{Kind: vc.shape.kind, Sizes: vc.shape.sizes},
		Chain:   vc.design.chain, Turns: vc.design.turns,
	}
}

// checkVerify holds a verify response to the case's known answer and
// validates a cycle witness hop by hop.
func (vc verifyCase) checkVerify(r *serve.VerifyResponse) error {
	want := vc.design.want(vc.shape)
	if r.Acyclic != want {
		return fmt.Errorf("%s on %s: acyclic=%t, known answer %t", vc.design.label(), vc.shape, r.Acyclic, want)
	}
	if want {
		return nil
	}
	hops, err := parseCycle(r.Cycle)
	if err != nil {
		return err
	}
	net := vc.shape.build()
	ts, vcs, err := vc.design.turnSet(net)
	if err != nil {
		return err
	}
	if err := checkTurnCycle(net, vcs, ts, hops); err != nil {
		return fmt.Errorf("%s on %s: witness: %w", vc.design.label(), vc.shape, err)
	}
	return nil
}

// streamGen draws the stream; used remembers keys already drawn so the
// cold, delta and fresh-graph classes stay cache misses.
type streamGen struct {
	rng  *rand.Rand
	used map[string]bool
	// coldCats are the cold design categories, dealt in turn: the
	// cyclic turn lists, then one VC configuration each.
	coldCats  [][]design
	coldOrder []int // the rest of this cycle's shapes
	counts    map[string]int
	baseTurns [][]core.Turn
	graphPool []graphInput
	large     graphInput // the largest graph the endpoint admits
	// repeats memoizes the bodies of repeated graph requests, so the
	// stream holds each once.
	repeats map[repeatKey][]byte
}

type repeatKey struct {
	name string
	mode cdg.GraphMode
	text bool
}

func newStreamGen(seed int64) (*streamGen, error) {
	g := &streamGen{rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}, counts: map[string]int{},
		repeats: map[repeatKey][]byte{}}
	var err error
	// Cold designs: the cyclic turn lists, then per 2D VC budget up to two
	// per dimension its Derive family, with the classic turn models of the
	// same budget.
	var cyclic []design
	for _, t := range cyclicTurns {
		cyclic = append(cyclic, design{turns: t})
	}
	g.coldCats = append(g.coldCats, cyclic)
	for i, b := range [][]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		chains, err := familyChains(rand.New(rand.NewSource(seed)), b, 6)
		if err != nil {
			return nil, err
		}
		switch i {
		case 0:
			chains = append(chains, classicChains[:3]...)
		case 1:
			chains = append(chains, classicChains[3:]...)
		}
		var cat []design
		for _, c := range chains {
			cat = append(cat, design{chain: c, acyclicOnMesh: true})
		}
		g.coldCats = append(g.coldCats, cat)
	}
	for _, b := range deltaBases {
		chain, err := core.ParseChain(b.design.chain)
		if err != nil {
			return nil, err
		}
		g.baseTurns = append(g.baseTurns, chain.AllTurns().Turns())
	}
	// Repeated graph inputs: small dragonflies and one DAG pair.
	for _, vcs := range []int{1, 2} {
		in, err := dragonflyInput(topology.Dragonfly{Groups: 9, Routers: 4, Terminals: 2}, vcs)
		if err != nil {
			return nil, err
		}
		g.graphPool = append(g.graphPool, in)
	}
	if g.large, err = dragonflyInput(topology.Dragonfly{Groups: 17, Routers: 8, Terminals: 4}, 2); err != nil {
		return nil, err
	}
	state := g.rng.Int63()
	g.graphPool = append(g.graphPool,
		randomDAG(rand.New(rand.NewSource(state)), 1500, false),
		randomDAG(rand.New(rand.NewSource(state)), 1500, true))
	return g, nil
}

// stream draws n requests, block by block.
func (g *streamGen) stream(n int) []sreq {
	var block []string
	for _, c := range mixBlock {
		for k := 0; k < c.n; k++ {
			block = append(block, c.class)
		}
	}
	out := make([]sreq, 0, n)
	for len(out) < n {
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block[:min(len(block), n-len(out))] {
			out = append(out, g.draw(class))
		}
	}
	return out
}

// draw draws one request of a class.
func (g *streamGen) draw(class string) sreq {
	switch class {
	case "hot":
		return g.verify("hot", hotCases[g.rng.Intn(len(hotCases))])
	case "cold":
		return g.verify("cold", g.coldCase())
	case "delta":
		return g.delta()
	case "graph":
		return g.graph()
	case "batch":
		return g.batch()
	case "design":
		return g.design()
	}
	inv := invalidBodies[g.rng.Intn(len(invalidBodies))]
	return sreq{class: "invalid", path: inv.path, body: []byte(inv.body), check: want4xx}
}

// next returns how many of kind were drawn before, and counts one more.
func (g *streamGen) next(kind string) int {
	k := g.counts[kind]
	g.counts[kind]++
	return k
}

func want4xx(status int, _ []byte) error {
	if status < 400 || status >= 500 {
		return fmt.Errorf("invalid body answered %d, want 4xx", status)
	}
	return nil
}

// fresh reports whether key is new to the stream, and records it.
func (g *streamGen) fresh(key string) bool {
	if g.used[key] {
		return false
	}
	g.used[key] = true
	return true
}

// coldCase draws a shape x design pair not drawn before: the next mesh
// of the shape cycle and a design from the next category, so one in five
// is a known-cyclic turn list. When the category holds no design new to
// the shape, it moves on to the next shape and category.
func (g *streamGen) coldCase() verifyCase {
	for {
		if len(g.coldOrder) == 0 {
			g.coldOrder = g.rng.Perm(len(coldSides) * len(coldSides))
		}
		s := g.coldOrder[0]
		g.coldOrder = g.coldOrder[1:]
		sh := shape{"mesh", []int{coldSides[s/len(coldSides)], coldSides[s%len(coldSides)]}}
		cat := g.coldCats[g.next("cold")%len(g.coldCats)]
		for _, k := range g.rng.Perm(len(cat)) {
			if vc := (verifyCase{sh, cat[k]}); g.fresh(sh.String() + cat[k].label()) {
				return vc
			}
		}
	}
}

func (g *streamGen) verify(class string, vc verifyCase) sreq {
	body, _ := json.Marshal(vc.request()) // plain data; cannot fail
	return sreq{class: class, path: "/v1/verify", body: body, check: func(status int, b []byte) error {
		var r serve.VerifyResponse
		if err := decodeOK(status, b, &r); err != nil {
			return err
		}
		return vc.checkVerify(&r)
	}}
}

// decodeOK requires a 200 and decodes its body.
func decodeOK(status int, b []byte, v any) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(b)))
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("bad response body: %w", err)
	}
	return nil
}

// delta draws a fresh link removal and/or turn removal against a pinned
// base. Both only delete dependencies of an acyclic EbDa design, so the
// perturbed design is acyclic too.
func (g *streamGen) delta() sreq {
	for {
		bi := g.rng.Intn(len(deltaBases))
		req := serve.DeltaRequest{Base: deltaBases[bi].request()}
		key := strconv.Itoa(bi)
		kind := g.rng.Intn(3) // 0 link, 1 turn, 2 both
		if kind != 1 {
			link := serve.LinkSpec{At: []int{1 + g.rng.Intn(6), 1 + g.rng.Intn(6)},
				Dir: []string{"X+", "X-", "Y+", "Y-"}[g.rng.Intn(4)]}
			req.RemoveLinks = []serve.LinkSpec{link}
			key += fmt.Sprint(link)
		}
		if kind != 0 {
			turns := g.baseTurns[bi]
			t := turns[g.rng.Intn(len(turns))]
			req.DisableTurns = t.From.String() + ">" + t.To.String()
			key += req.DisableTurns
		}
		if !g.fresh("delta" + key) {
			continue
		}
		body, _ := json.Marshal(req)
		return sreq{class: "delta", path: "/v1/verify/delta", body: body, check: func(status int, b []byte) error {
			var r serve.DeltaResponse
			if err := decodeOK(status, b, &r); err != nil {
				return err
			}
			if !r.Acyclic {
				return fmt.Errorf("delta on an acyclic base reported cyclic: %s", r.Cycle)
			}
			return nil
		}}
	}
}

// graph draws a graph request in any mode with a known answer, in turn:
// the 17x8x4 two-VC dragonfly as JSON (3264 channels, about 220 KB, the
// heaviest body of the mix), a graph of the repeated pool in either
// encoding, and two fresh random DAGs, their sizes cycling through
// freshDAGSizes. The check regenerates its input rather than holding it,
// so the stream does not keep every graph's edge list alive through the
// run.
func (g *streamGen) graph() sreq {
	var mk func() graphInput
	large, repeat := false, true
	switch k := g.next("graph"); k % 4 {
	case 0:
		large = true
		mk = func() graphInput { return g.large }
	case 1:
		in := g.graphPool[g.rng.Intn(len(g.graphPool))]
		mk = func() graphInput { return in }
	default:
		repeat = false
		seed, n, back := g.rng.Int63(), freshDAGSizes[(k/2)%len(freshDAGSizes)], g.rng.Intn(2) == 0
		mk = func() graphInput { return randomDAG(rand.New(rand.NewSource(seed)), n, back) }
	}
	in := mk()
	var modes []cdg.GraphMode
	for _, m := range graphModes {
		if _, ok := in.want[m]; ok {
			modes = append(modes, m)
		}
	}
	mode := modes[g.rng.Intn(len(modes))]
	text := !large && g.rng.Intn(2) == 0
	key := repeatKey{in.name, mode, text}
	var body []byte
	if repeat {
		body = g.repeats[key]
	}
	if body == nil {
		req := serve.GraphVerifyRequest{Mode: mode.String()}
		if mode == cdg.ModeEscape {
			req.Escape = in.escape
		}
		if text {
			if err := in.export(); err == nil {
				req.CDG = string(in.text)
			}
		} else {
			req.Graph = &serve.GraphSpec{Channels: in.channels, Inputs: in.inputs, Outputs: in.outputs, Edges: in.edges}
		}
		body, _ = json.Marshal(req)
		if repeat {
			g.repeats[key] = body
		}
	}
	return sreq{class: "graph", path: "/v1/verify/graph", body: body, check: func(status int, b []byte) error {
		var r serve.GraphVerifyResponse
		if err := decodeOK(status, b, &r); err != nil {
			return err
		}
		rep := cdg.ModeReport{Mode: mode, Nodes: r.Channels, Edges: r.Edges, OK: r.OK, Reason: r.Reason}
		var err1, err2 error
		rep.Path, err1 = parseNodeChain(r.Path)
		rep.Cycle, err2 = parseNodeChain(r.Cycle)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("graph witness: %v %v", err1, err2)
		}
		in := mk()
		return in.checkMode(newEdgeSet(in.edges), mode, rep)
	}}
}

// parseNodeChain reads "n1 => n17 => n8", optionally ending in
// " => (repeat)", into channel ids.
func parseNodeChain(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(strings.TrimSuffix(s, " => (repeat)"), " => ") {
		v, err := strconv.Atoi(strings.TrimPrefix(p, "n"))
		if err != nil {
			return nil, fmt.Errorf("bad channel %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// batch draws two, three or four verify requests in turn, alternately
// fresh cold and hot.
func (g *streamGen) batch() sreq {
	var cases []verifyCase
	n := 2 + g.next("batch")%3
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			cases = append(cases, g.coldCase())
		} else {
			cases = append(cases, hotCases[g.rng.Intn(len(hotCases))])
		}
	}
	var req serve.BatchRequest
	for _, c := range cases {
		req.Requests = append(req.Requests, c.request())
	}
	body, _ := json.Marshal(req)
	return sreq{class: "batch", path: "/v1/batch", body: body, check: func(status int, b []byte) error {
		var r serve.BatchResponse
		if err := decodeOK(status, b, &r); err != nil {
			return err
		}
		if len(r.Results) != len(cases) {
			return fmt.Errorf("batch of %d answered %d results", len(cases), len(r.Results))
		}
		for i, res := range r.Results {
			if res.OK == nil {
				return fmt.Errorf("batch item %d: status %d %s", i, res.Status, res.Error)
			}
			if err := cases[i].checkVerify(res.OK); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	}}
}

// design draws an Algorithm 2 family request, its VC budgets in turn;
// every derived option is an EbDa chain and must verify acyclic.
func (g *streamGen) design() sreq {
	vcs := [][]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}[g.next("design")%4]
	body, _ := json.Marshal(serve.DesignRequest{VCs: vcs, Max: 4})
	return sreq{class: "design", path: "/v1/design", body: body, check: func(status int, b []byte) error {
		var r serve.DesignResponse
		if err := decodeOK(status, b, &r); err != nil {
			return err
		}
		if len(r.Options) == 0 {
			return fmt.Errorf("design %v derived no options", vcs)
		}
		for _, o := range r.Options {
			if !o.Acyclic {
				return fmt.Errorf("derived chain %s reported cyclic", o.Chain)
			}
		}
		return nil
	}}
}
