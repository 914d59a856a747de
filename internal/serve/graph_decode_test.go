package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/graphio"
	"ebda/internal/topology"
)

// refDecodeGraphRequest is the decode decodeGraphRequest replaced, kept
// as the differential oracle: encoding/json over the whole body into
// GraphVerifyRequest (GraphSpec through graphio.DecodeJSON), then the
// graph rebuilt edge by edge (refNew), and the size limits checked on
// the built graph.
func refDecodeGraphRequest(body []byte) (*builtGraph, error) {
	var req GraphVerifyRequest
	r := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), MaxBodyBytes)
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	mode, err := cdg.ParseGraphMode(req.Mode)
	if err != nil {
		return nil, err
	}
	var g *graphio.Graph
	switch {
	case req.Graph != nil && req.CDG != "":
		return nil, errors.New("use either graph or cdg, not both")
	case req.Graph != nil:
		g, err = refNew(req.Graph)
	case req.CDG != "":
		g, err = graphio.ParseCDG([]byte(req.CDG))
	default:
		return nil, errors.New("one of graph or cdg is required")
	}
	if err != nil {
		return nil, err
	}
	if n := g.Edges.NumNodes(); n > maxGraphChannels {
		return nil, fmt.Errorf("graph has %d channels, limit %d", n, maxGraphChannels)
	}
	if n := g.Edges.NumEdges(); n > maxGraphEdges {
		return nil, fmt.Errorf("graph has %d edges, limit %d", n, maxGraphEdges)
	}
	if mode == cdg.ModeEscape && len(req.Escape) == 0 {
		return nil, errors.New("mode escape requires a non-empty escape set")
	}
	for _, v := range req.Escape {
		if v < 0 || v >= g.Edges.NumNodes() {
			return nil, fmt.Errorf("escape channel %d outside [0, %d)", v, g.Edges.NumNodes())
		}
	}
	return &builtGraph{g: g, mode: mode, escape: req.Escape}, nil
}

// refNew is graphio.New as the replaced path ran it: the sets
// validated, then every edge range-checked and inserted by
// EdgeSet.AddEdge, the first one out of range or not new failing.
func refNew(sp *GraphSpec) (*graphio.Graph, error) {
	g, err := graphio.New(sp.Channels, sp.Inputs, sp.Outputs, nil)
	if err != nil {
		return nil, err
	}
	for _, e := range sp.Edges {
		if e[0] < 0 || e[0] >= sp.Channels || e[1] < 0 || e[1] >= sp.Channels {
			return nil, fmt.Errorf("edge %v out of range", e)
		}
		if !g.Edges.AddEdge(e[0], e[1]) {
			return nil, fmt.Errorf("edge %v declared twice", e)
		}
	}
	return g, nil
}

// checkSameRequest fails t unless the scanner and the oracle agree:
// both reject, or both accept the same graph, mode and escape set, and
// therefore ask the mode cache the same question.
func checkSameRequest(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeGraphRequest(body)
	want, rerr := refDecodeGraphRequest(body)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("body %q: scanner err=%v, oracle err=%v", body, err, rerr)
	}
	if err != nil {
		return
	}
	g1, g2 := got.g.Edges.Fingerprint()
	w1, w2 := want.g.Edges.Fingerprint()
	if g1 != w1 || g2 != w2 || got.g.Edges.NumNodes() != want.g.Edges.NumNodes() || got.g.Edges.NumEdges() != want.g.Edges.NumEdges() {
		t.Fatalf("body %q: graphs differ:\n%s\n---oracle---\n%s", body, got.g.ExportCDG(), want.g.ExportCDG())
	}
	if !reflect.DeepEqual(got.g.Inputs, want.g.Inputs) || !reflect.DeepEqual(got.g.Outputs, want.g.Outputs) {
		t.Fatalf("body %q: sets differ: %v %v, oracle %v %v", body, got.g.Inputs, got.g.Outputs, want.g.Inputs, want.g.Outputs)
	}
	if got.mode != want.mode || !reflect.DeepEqual(got.escape, want.escape) {
		t.Fatalf("body %q: mode %v escape %v, oracle %v %v", body, got.mode, got.escape, want.mode, want.escape)
	}
	q := cdg.NewModeQuery(got.g.Edges, got.mode, got.g.Inputs, got.g.Outputs, got.escape)
	if k, c := cdg.ModeKey(want.g.Edges, want.mode, want.g.Inputs, want.g.Outputs, want.escape); q.Key != k || q.Check != c {
		t.Fatalf("body %q: cache keys differ", body)
	}
}

// graphRequestQuirks are bodies on the edges of the request grammar.
var graphRequestQuirks = []string{
	`{"graph":` + escapeOKSpec + `,"mode":"loop"}`,
	`{"cdg":"` + strings.ReplaceAll(escapeOKText, "\n", `\n`) + `","mode":"escape","escape":[4]}`,
	`{"GRAPH":` + escapeOKSpec + `,"Mode":"subrel"}`,
	`{"graph":` + escapeOKSpec + `,"graph":null,"cdg":"1\n\n\n","mode":"loop"}`,
	`{"graph":` + escapeOKSpec + `,"mode":"escape","escape":[4,2],"escape":[null]}`,
	`{"graph":` + escapeOKSpec + `,"mode":"escape","escape":[4],"escape":null}`,
	`{"cdg":"2\n0\n1\n0 1\n","cdg":null,"mode":"loop"}`,
	`{"cdg":"2\n0\n1\n0 1\n","mode":"loop"}}`,
	`{"cdg":"2\n0\n1\n0 1\n","mode":"loop"}]`,
	`{"cdg":"2\n0\n1\n0 1\n","mode":"loop"} ` + "\n",
	`{"cdg":"# 😀 \ud800\n2\n0\n1\n0 1\n","mode":"loop"}`,
	"{\"cdg\":\"# \xff\\n2\\n0\\n1\\n0 1\\n\",\"mode\":\"loop\"}",
	`{"eſcape":[1],"graph":{"channels":2,"edges":[[0,1]]},"mode":"escape"}`,
	`{"graph":{"channels":1048576},"mode":"loop"}`,
	`{"cdg":"1048576\n0\n0\n","mode":"loop"}`,
	`{"graph":{"channels":3,"edges":[[0,1],[1,2],[0,1]]},"mode":"loop"}`,
	`{"graph":{"channels":3,"edges":[[0,1]],"edges":[[1,2,0]]},"mode":"loop"}`,
	`{"graph":5,"mode":"loop"}`,
	`{"graph":"x","mode":"loop"}`,
	`{"cdg":5,"mode":"loop"}`,
	`{"graph":` + escapeOKSpec + `,"mode":"escape","escape":[1.0]}`,
	`{"graph":` + escapeOKSpec + `,"mode":"escape","escape":[-0]}`,
	`{"graph":null,"mode":"loop"}`,
	`null`,
	`[]`,
	``,
}

func TestDecodeGraphRequestMatchesOracle(t *testing.T) {
	for _, body := range graphRequestQuirks {
		checkSameRequest(t, []byte(body))
	}
}

// FuzzDecodeGraphRequest: the request scanner must agree with the
// replaced decode on every body — accept or reject, and for accepted
// bodies the graph (fingerprint, inputs, outputs), the mode, the escape
// set and the cache key.
func FuzzDecodeGraphRequest(f *testing.F) {
	for _, body := range graphRequestQuirks {
		f.Add([]byte(body))
	}
	cg, err := topology.Dragonfly{Groups: 3, Routers: 2, Terminals: 1}.ChannelGraph(2)
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(GraphVerifyRequest{Graph: &GraphSpec{Channels: cg.Channels, Inputs: cg.Inputs, Outputs: cg.Outputs, Edges: cg.Edges}, Mode: "liveness"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSameRequest(t, body)
	})
}

// TestTrailingDataRejected pins that every endpoint answers 400 to a
// request object followed by anything but whitespace — a stray '}' or
// ']' included — while the same body with trailing whitespace passes.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, raw := post(t, ts, "/v1/verify", deltaBaseBody)
	if status != 200 {
		t.Fatalf("base POST = %d: %s", status, raw)
	}
	var base VerifyResponse
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ path, body string }{
		{"/v1/verify", deltaBaseBody},
		{"/v1/batch", `{"requests":[` + deltaBaseBody + `]}`},
		{"/v1/design", `{"vcs":[1,2],"max":4}`},
		{"/v1/verify/delta", `{"base":` + deltaBaseBody + `,"base_key":"` + base.Key + `","remove_links":[{"at":[2,3],"dir":"X+"}]}`},
		{"/v1/verify/graph", `{"cdg":"2\n0\n1\n0 1\n","mode":"loop"}`},
		{"/v1/verify/graph", graphBody("loop", "")},
	}
	for _, tc := range cases {
		if status, raw := post(t, ts, tc.path, tc.body+" \n\t"); status != 200 {
			t.Fatalf("%s with trailing whitespace = %d: %s", tc.path, status, raw)
		}
		for _, trail := range []string{"}", "]", "{}", "x", ` "`} {
			if status, raw := post(t, ts, tc.path, tc.body+trail); status != 400 {
				t.Errorf("%s with trailing %q = %d, want 400: %s", tc.path, trail, status, raw)
			}
		}
	}
}

// TestOverLimitGraphRefusedCheaply pins that a graph over the channel
// limit is refused before anything is built for it: a 45-byte body
// declaring 2^20 channels must not cost more than a small, fixed
// amount of memory, in either encoding.
func TestOverLimitGraphRefusedCheaply(t *testing.T) {
	for _, body := range []string{
		`{"graph":{"channels":1048576},"mode":"loop"}`,
		`{"cdg":"1048576\n0\n0\n","mode":"loop"}`,
	} {
		raw := []byte(body)
		if _, err := decodeGraphRequest(raw); !errors.Is(err, graphio.ErrLimit) {
			t.Fatalf("%s: err=%v, want ErrLimit", body, err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decodeGraphRequest(raw)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
			t.Errorf("%.40s...: %d bytes allocated per request, want < 64 KiB", body, per)
		}
	}
}

// TestGraphMissComputesOnce pins that a graph miss goes through the
// mode cache once: one miss recorded, one entry stored, and the repeat
// is a hit.
func TestGraphMissComputesOnce(t *testing.T) {
	s, ts := testServer(t, Config{})
	before := s.modes.Stats()
	body := graphBody("subrel", "")
	if status, raw := post(t, ts, "/v1/verify/graph", body); status != 200 {
		t.Fatalf("POST = %d: %s", status, raw)
	}
	st := s.modes.Stats()
	if st.Misses != before.Misses+1 || st.Entries != before.Entries+1 || st.Hits != before.Hits {
		t.Fatalf("one graph miss: stats %+v -> %+v, want one miss and one entry", before, st)
	}
	if status, raw := post(t, ts, "/v1/verify/graph", body); status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw)
	}
	if again := s.modes.Stats(); again.Hits != st.Hits+1 || again.Misses != st.Misses || again.Entries != st.Entries {
		t.Fatalf("repeat: stats %+v -> %+v, want one hit", st, again)
	}
}

// TestVerifyMissComputesOnce pins that a turn-set miss goes through the
// verify cache once, under the key the handler reports: one miss, one
// entry stored, and the repeat is a hit.
func TestVerifyMissComputesOnce(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := `{"network":{"kind":"mesh","sizes":[5,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`
	before := s.cache.Stats()
	status, raw := post(t, ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("POST = %d: %s", status, raw)
	}
	st := s.cache.Stats()
	if st.Misses != before.Misses+1 || st.Entries != before.Entries+1 || st.Hits != before.Hits {
		t.Fatalf("one verify miss: stats %+v -> %+v, want one miss and one entry", before, st)
	}
	var got VerifyResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	req, err := DecodeVerifyRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := req.build(s.nets)
	if err != nil {
		t.Fatal(err)
	}
	key, check := cdg.VerifyKey(b.net, b.vcs, b.ts)
	if got.Key != strconv.FormatUint(key, 16) {
		t.Fatalf("reported key %s, want %x", got.Key, key)
	}
	if _, ok := s.cache.Lookup(key, check); !ok {
		t.Fatal("the verdict is not stored under the design's VerifyKey")
	}
	if status, raw := post(t, ts, "/v1/verify", body); status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw)
	}
	if again := s.cache.Stats(); again.Hits != st.Hits+2 || again.Misses != st.Misses || again.Entries != st.Entries {
		t.Fatalf("repeat: stats %+v -> %+v, want one hit besides the Lookup above", st, again)
	}
}

// TestDeltaMissComputesOnce is TestVerifyMissComputesOnce for a delta:
// the delta is stored under the DeltaKey the handler reports, whose base
// part matches the reported base key.
func TestDeltaMissComputesOnce(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := `{"base":` + deltaBaseBody + `,"remove_links":[{"at":[2,3],"dir":"X+"}]}`
	before := s.cache.Stats()
	status, raw := post(t, ts, "/v1/verify/delta", body)
	if status != 200 {
		t.Fatalf("POST = %d: %s", status, raw)
	}
	st := s.cache.Stats()
	if st.Misses != before.Misses+1 || st.Entries != before.Entries+1 || st.Hits != before.Hits {
		t.Fatalf("one delta miss: stats %+v -> %+v, want one miss and one entry", before, st)
	}
	var got DeltaResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	net, vcs, turns := deltaBaseDesign(t)
	link, ok := net.FindLink(net.ID(topology.Coord{2, 3}), 0, channel.Plus)
	if !ok {
		t.Fatal("link (2,3)X+ missing")
	}
	key, check := cdg.DeltaKey(net, vcs, turns, cdg.Diff{RemoveLinks: []topology.Link{link}})
	baseKey, _ := cdg.VerifyKey(net, vcs, turns)
	if got.Key != strconv.FormatUint(key, 16) || got.BaseKey != strconv.FormatUint(baseKey, 16) {
		t.Fatalf("reported keys %s (base %s), want %x (base %x)", got.Key, got.BaseKey, key, baseKey)
	}
	if _, ok := s.cache.Lookup(key, check); !ok {
		t.Fatal("the delta verdict is not stored under its DeltaKey")
	}
	if status, raw := post(t, ts, "/v1/verify/delta", body); status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw)
	}
	if again := s.cache.Stats(); again.Hits != st.Hits+2 || again.Misses != st.Misses || again.Entries != st.Entries {
		t.Fatalf("repeat: stats %+v -> %+v, want one hit besides the Lookup above", st, again)
	}
}

// BenchmarkDecodeGraphRequest is the graph request's decode layer: body
// bytes of the 17x8x4 two-VC dragonfly (the large graph of the serve
// benchmark) to a built graph and its cache key, through the scanner
// and through the oracle it replaced.
func BenchmarkDecodeGraphRequest(b *testing.B) {
	cg, err := topology.Dragonfly{Groups: 17, Routers: 8, Terminals: 4}.ChannelGraph(2)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(GraphVerifyRequest{Graph: &GraphSpec{Channels: cg.Channels, Inputs: cg.Inputs, Outputs: cg.Outputs, Edges: cg.Edges}, Mode: "loop"})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*builtGraph, error)
	}{{"scan", decodeGraphRequest}, {"oracle", refDecodeGraphRequest}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bg, err := bc.decode(body)
				if err != nil {
					b.Fatal(err)
				}
				cdg.ModeKey(bg.g.Edges, bg.mode, bg.g.Inputs, bg.g.Outputs, bg.escape)
			}
		})
	}
}
