package graphio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/topology"
)

const goldenDir = "../../testdata/graphio"

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snippetsExample is the constellation verify.py CDG from SNIPPETS.md
// §1: an xy-routing per-output graph for destination 8.
const snippetsExample = `24
1 2 3 4 5 6 7
8
1 17
2 8
3 17
4 19
5 23
6 19
7 23
17 8
19 8
23 19
`

func TestParseSnippetsExample(t *testing.T) {
	g, err := ParseCDG([]byte(snippetsExample))
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges.NumNodes() != 24 || g.Edges.NumEdges() != 10 {
		t.Fatalf("parsed %d channels, %d edges", g.Edges.NumNodes(), g.Edges.NumEdges())
	}
	if len(g.Inputs) != 7 || len(g.Outputs) != 1 || g.Outputs[0] != 8 {
		t.Fatalf("annotations: in=%v out=%v", g.Inputs, g.Outputs)
	}
	for _, mode := range []cdg.GraphMode{cdg.ModeLoop, cdg.ModeLiveness, cdg.ModeSubrel} {
		rep, err := g.Verify(mode, nil)
		if err != nil || !rep.OK {
			t.Fatalf("%s: %+v err=%v", mode, rep, err)
		}
	}
	// Round trip is byte-stable: the example is already canonical.
	if got := g.ExportCDG(); !bytes.Equal(got, []byte(snippetsExample)) {
		t.Fatalf("export drifted:\n%s", got)
	}
}

// xyPerOutputGraph regenerates the committed xy3x3-out4.txt golden: a
// 3x3 mesh routed XY toward the centre node 4. Channels: injection i
// per node i (0..8, the inputs), ejection 9 (the output), then one
// channel per directed mesh link XY uses, ordered by (from, to) node.
func xyPerOutputGraph(t *testing.T) *Graph {
	t.Helper()
	links := [][2]int{{0, 1}, {1, 4}, {2, 1}, {3, 4}, {5, 4}, {6, 7}, {7, 4}, {8, 7}}
	linkCh := make(map[[2]int]int, len(links))
	for i, l := range links {
		linkCh[l] = 10 + i
	}
	var edges [][2]int
	seen := make(map[[2]int]bool)
	add := func(from, to int) {
		if !seen[[2]int{from, to}] {
			seen[[2]int{from, to}] = true
			edges = append(edges, [2]int{from, to})
		}
	}
	for src := 0; src < 9; src++ {
		x, y := src%3, src/3
		prev := src // injection channel
		for x != 1 || y != 1 {
			from := y*3 + x
			if x != 1 {
				x += sign(1 - x)
			} else {
				y += sign(1 - y)
			}
			ch := linkCh[[2]int{from, y*3 + x}]
			add(prev, ch)
			prev = ch
		}
		add(prev, 9)
	}
	g, err := New(18, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{9}, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

func TestXYGoldenMatchesGenerator(t *testing.T) {
	want := readGolden(t, "xy3x3-out4.txt")
	if got := xyPerOutputGraph(t).ExportCDG(); !bytes.Equal(got, want) {
		t.Fatalf("golden drifted from generator:\n%s", got)
	}
}

func TestRoundTripGoldens(t *testing.T) {
	for _, name := range []string{"xy3x3-out4.txt", "cycle4.txt", "escape-ok.txt", "deadend.txt"} {
		data := readGolden(t, name)
		g, err := ParseCDG(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := g.ExportCDG(); !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip drifted:\n%s", name, got)
		}
		// Text -> JSON -> text lands on the same canonical bytes.
		g2, err := Parse(g.ExportJSON())
		if err != nil {
			t.Fatalf("%s: reparse JSON: %v", name, err)
		}
		if got := g2.ExportCDG(); !bytes.Equal(got, data) {
			t.Fatalf("%s: JSON round trip drifted:\n%s", name, got)
		}
	}
}

func TestJSONGoldenRoundTrip(t *testing.T) {
	data := readGolden(t, "escape-ok.json")
	g, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ExportJSON(); !bytes.Equal(got, data) {
		t.Fatalf("JSON export drifted:\n%s", got)
	}
	text := readGolden(t, "escape-ok.txt")
	if got := g.ExportCDG(); !bytes.Equal(got, text) {
		t.Fatalf("JSON and text goldens disagree:\n%s", got)
	}
}

// TestGoldenVerdicts pins the constellation-style verdicts and witness
// shapes for every committed golden in all four modes.
func TestGoldenVerdicts(t *testing.T) {
	type want struct {
		mode   cdg.GraphMode
		escape []int
		ok     bool
		reason string
	}
	cases := map[string][]want{
		"xy3x3-out4.txt": {
			{mode: cdg.ModeLoop, ok: true},
			{mode: cdg.ModeLiveness, ok: true},
			{mode: cdg.ModeEscape, escape: []int{10, 11, 12, 13, 14, 15, 16, 17}, ok: true},
			{mode: cdg.ModeSubrel, ok: true},
		},
		"cycle4.txt": {
			{mode: cdg.ModeLoop, reason: cdg.ReasonCycle},
			{mode: cdg.ModeLiveness, reason: cdg.ReasonCycle},
			{mode: cdg.ModeEscape, escape: []int{2}, reason: cdg.ReasonEscapeStranded},
			{mode: cdg.ModeSubrel, reason: cdg.ReasonNoSubrel},
		},
		"escape-ok.txt": {
			{mode: cdg.ModeLoop, reason: cdg.ReasonCycle},
			{mode: cdg.ModeLiveness, reason: cdg.ReasonCycle},
			{mode: cdg.ModeEscape, escape: []int{4}, ok: true},
			{mode: cdg.ModeSubrel, ok: true},
		},
		"deadend.txt": {
			{mode: cdg.ModeLoop, ok: true},
			{mode: cdg.ModeLiveness, reason: cdg.ReasonDeadEnd},
			{mode: cdg.ModeEscape, escape: []int{1}, reason: cdg.ReasonEscapeStranded},
			{mode: cdg.ModeSubrel, reason: cdg.ReasonNoSubrel},
		},
	}
	for name, wants := range cases {
		g, err := ParseCDG(readGolden(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range wants {
			rep, err := g.Verify(w.mode, w.escape)
			if err != nil {
				t.Fatalf("%s %s: %v", name, w.mode, err)
			}
			if rep.OK != w.ok || rep.Reason != w.reason {
				t.Fatalf("%s %s: got ok=%v reason=%q, want ok=%v reason=%q",
					name, w.mode, rep.OK, rep.Reason, w.ok, w.reason)
			}
			if !rep.OK && len(rep.Path) == 0 && len(rep.Cycle) == 0 {
				t.Fatalf("%s %s: violation without witness: %+v", name, w.mode, rep)
			}
			if w.mode == cdg.ModeSubrel && rep.OK && len(rep.Subrelation) == 0 {
				t.Fatalf("%s subrel: verified without a subrelation", name)
			}
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	in := "# per-output CDG\n\n4\n0\n3\n# edges\n0 1\n\n1 2\n2 3\n"
	g, err := ParseCDG([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges.NumEdges() != 3 {
		t.Fatalf("edges: %d", g.Edges.NumEdges())
	}
	// Export is canonical: comments and blank lines do not survive.
	want := "4\n0\n3\n0 1\n1 2\n2 3\n"
	if got := string(g.ExportCDG()); got != want {
		t.Fatalf("export: %q", got)
	}
}

func TestEmptyIDSets(t *testing.T) {
	g, err := ParseCDG([]byte("2\n\n\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Inputs) != 0 || len(g.Outputs) != 0 {
		t.Fatalf("sets: in=%v out=%v", g.Inputs, g.Outputs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
		line int
	}{
		{"empty", "", ErrMissingSection, 0},
		{"count only", "4\n", ErrMissingSection, 0},
		{"no outputs", "4\n0\n", ErrMissingSection, 0},
		{"bad count", "x\n0\n1\n", ErrChannelCount, 1},
		{"negative count", "-2\n\n\n", ErrChannelCount, 1},
		{"huge count", "99999999\n\n\n", ErrChannelCount, 1},
		{"input out of range", "2\n5\n1\n", ErrIDRange, 2},
		{"output out of range", "2\n0\n-1\n", ErrIDRange, 3},
		{"sender out of range", "2\n0\n1\n7 1\n", ErrIDRange, 4},
		{"receiver out of range", "2\n0\n1\n0 9\n", ErrIDRange, 4},
		{"duplicate edge", "3\n0\n2\n0 1\n0 1\n", ErrDuplicateEdge, 5},
		{"duplicate edge one line", "3\n0\n2\n0 1 1\n", ErrDuplicateEdge, 4},
		{"duplicate input", "3\n0 0\n2\n", ErrDuplicateID, 2},
		{"lonely sender", "3\n0\n2\n1\n", ErrSyntax, 4},
		{"non-numeric edge", "3\n0\n2\n0 x\n", ErrSyntax, 4},
	}
	for _, tc := range cases {
		_, err := ParseCDG([]byte(tc.in))
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %T is not a *ParseError", tc.name, err)
		}
		if tc.line > 0 && pe.Line != tc.line {
			t.Fatalf("%s: reported line %d, want %d", tc.name, pe.Line, tc.line)
		}
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"unknown field", `{"channels":2,"inputs":[],"outputs":[],"edges":[],"extra":1}`, ErrSyntax},
		{"trailing data", `{"channels":2,"inputs":[],"outputs":[],"edges":[]} {}`, ErrSyntax},
		{"bad json", `{`, ErrSyntax},
		{"range", `{"channels":2,"inputs":[9],"outputs":[],"edges":[]}`, ErrIDRange},
		{"negative channels", `{"channels":-1,"inputs":[],"outputs":[],"edges":[]}`, ErrChannelCount},
		{"duplicate edge", `{"channels":2,"inputs":[],"outputs":[],"edges":[[0,1],[0,1]]}`, ErrDuplicateEdge},
		{"triple edge", `{"channels":3,"inputs":[],"outputs":[],"edges":[[0,1,2]]}`, ErrSyntax},
		{"single id edge", `{"channels":2,"inputs":[],"outputs":[],"edges":[[1]]}`, ErrSyntax},
		{"empty edge", `{"channels":2,"inputs":[],"outputs":[],"edges":[[]]}`, ErrSyntax},
	}
	for _, tc := range cases {
		if _, err := ParseJSON([]byte(tc.in)); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestParseSniffsJSON(t *testing.T) {
	g, err := Parse([]byte("  \n\t" + `{"channels":1,"inputs":[],"outputs":[0],"edges":[]}`))
	if err != nil || g.Edges.NumNodes() != 1 {
		t.Fatalf("sniff: %+v err=%v", g, err)
	}
}

func TestVerifyEscapeRange(t *testing.T) {
	g, err := New(2, []int{0}, []int{1}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Verify(cdg.ModeEscape, []int{7}); !errors.Is(err, ErrIDRange) {
		t.Fatalf("escape range: %v", err)
	}
}

// jsonQuirks exercise the corners of the JSON grammar the package
// comment states: key folding and escapes, null, repeated keys, numbers
// that are not ints, trailing data, and error precedence.
var jsonQuirks = []string{
	`{}`,
	`null`,
	` {"CHANNELS":2,"Inputs":[0],"outputS":[1],"EDGES":[[0,1]]} `,
	`{"channel\u0073":2,"\u0069nputs":[],"outputs":[],"edges":[]}`,
	"{\"input\u017f\":[0],\"channels\":1}",
	`{"edges":[[0,1]],"channels":2}`,
	`{"channels":null,"inputs":null,"outputs":null,"edges":null}`,
	`{"channels":3,"edges":[[null,2],[1,null]]}`,
	`{"channels":3,"channels":null,"inputs":[2,1],"inputs":[0]}`,
	`{"channels":4,"inputs":[1,2,3],"inputs":[null,null]}`,
	`{"channels":4,"inputs":[1,2,3],"inputs":[0],"inputs":[null,null]}`,
	`{"channels":4,"edges":[[1,2],[2,3]],"edges":[[null,3]]}`,
	`{"channels":4,"edges":[[0,1,2]],"edges":[[null,null,null]]}`,
	`{"channels":4,"edges":[[0,1,2]],"edges":[[3,2]]}`,
	`{"channels":4,"edges":[[1,2]],"edges":[null],"edges":[[null,null]]}`,
	`{"channels":4,"edges":[[1,2]],"edges":[],"edges":[[null,3]]}`,
	`{"channels":4,"edges":[[1,2],[3,3]],"edges":[[0,1]],"edges":[[0,1],[null,null]]}`,
	`{"channels":2.0}`,
	`{"channels":2e0}`,
	`{"channels":-0,"edges":[]}`,
	`{"channels":02}`,
	`{"channels":9223372036854775808}`,
	`{"channels":4,"edges":[[0,4294967296]]}`,
	`{"channels":4,"edges":[[0,123456789],[0,1234567890]]}`,
	`{"channels":4,"edges":[[0,1],[-1,2]]}`,
	`{"channels":4,"edges":[[0,1],[01,2]]}`,
	`{"channels":4,"edges":[[0,1],[1e0,2]]}`,
	"{\"channels\":4,\"edges\": [ [ 0 ,\t1 ] ,\r\n[ 1,2 ] ] }",
	`{"channels":"2"}`,
	`{"channels":2,"edges":[[0,1]]}x`,
	`{"channels":2,"edges":[[0,1]]}{}`,
	`{"channels":2,"edges":[[0,1],]}`,
	`{"channels":2,"edges":[[0,1]]`,
	`{"channels":-1,"inputs":[5],"edges":[[9,9]]}`,
	`{"channels":2,"inputs":[5],"outputs":[1,1],"edges":[[9,9]]}`,
	`{"channels":2,"outputs":[1,1],"edges":[[0,1],[0,1],[9,0]]}`,
	`{"channels":2,"edges":[[0,1],[0,1],[9,0]],"edges":[[0,1],[1,9]]}`,
	`{"channels":2,"inputs":[9],"edges":[[0,1,1]]}`,
}

// refParseJSON is the encoding/json decoder ParseJSON replaced, kept as
// the differential reference: unchanged except that edges decode as
// [][]int and must be exact pairs, where [2]int padded and truncated.
func refParseJSON(data []byte) (*Graph, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var jg struct {
		Channels int     `json:"channels"`
		Inputs   []int   `json:"inputs"`
		Outputs  []int   `json:"outputs"`
		Edges    [][]int `json:"edges"`
	}
	if err := dec.Decode(&jg); err != nil {
		return nil, &ParseError{Err: fmt.Errorf("%w: %v", ErrSyntax, err)}
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); !errors.Is(err, io.EOF) {
		return nil, &ParseError{Err: fmt.Errorf("%w: trailing data after JSON document", ErrSyntax)}
	}
	edges := make([][2]int, len(jg.Edges))
	for i, e := range jg.Edges {
		if len(e) != 2 {
			return nil, &ParseError{Err: fmt.Errorf("%w: edge %v is not a pair", ErrSyntax, e)}
		}
		edges[i] = [2]int{e[0], e[1]}
	}
	return refNew(jg.Channels, jg.Inputs, jg.Outputs, edges)
}

// refNew is the New that inserted edge by edge through EdgeSet.AddEdge,
// kept so the references exercise a builder independent of
// cdg.BuildEdgeSet.
func refNew(channels int, inputs, outputs []int, edges [][2]int) (*Graph, error) {
	g, err := newGraph(Limits{}, channels, inputs, outputs)
	if err != nil {
		return nil, err
	}
	g.Edges = cdg.NewEdgeSet(channels)
	for _, e := range edges {
		if err := refAddEdge(g.Edges, 0, e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// refAddEdge validates one edge and inserts it.
func refAddEdge(e *cdg.EdgeSet, line, from, to int) error {
	n := e.NumNodes()
	if from < 0 || from >= n {
		return perr(line, ErrIDRange, "sender channel %d outside [0, %d)", from, n)
	}
	if to < 0 || to >= n {
		return perr(line, ErrIDRange, "receiver channel %d outside [0, %d)", to, n)
	}
	if !e.AddEdge(from, to) {
		return perr(line, ErrDuplicateEdge, "%d -> %d declared twice", from, to)
	}
	return nil
}

// refParseCDG is the strings.Split text parser ParseCDG replaced, kept
// verbatim as the differential reference.
func refParseCDG(data []byte) (*Graph, error) {
	lines := strings.Split(string(data), "\n")
	// A final newline terminates the last line; it does not open an
	// empty one.
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	// next yields the index of the next significant line at or after i
	// (comments skipped; blank lines skipped only when blankOK).
	cursor := 0
	next := func(blankOK bool) (string, int, bool) {
		for ; cursor < len(lines); cursor++ {
			ln := strings.TrimSuffix(lines[cursor], "\r")
			trimmed := strings.TrimSpace(ln)
			if strings.HasPrefix(trimmed, "#") {
				continue
			}
			if trimmed == "" && blankOK {
				continue
			}
			cursor++
			return ln, cursor, true
		}
		return "", cursor, false
	}

	countLine, countNo, ok := next(true)
	if !ok {
		return nil, perr(cursor, ErrMissingSection, "channel count line missing")
	}
	channels, err := strconv.Atoi(strings.TrimSpace(countLine))
	if err != nil || channels < 0 || channels > MaxChannels {
		return nil, perr(countNo, ErrChannelCount, "%q is not a count in [0, %d]", strings.TrimSpace(countLine), MaxChannels)
	}
	g := &Graph{Edges: cdg.NewEdgeSet(channels)}

	// The input and output lines directly follow the count; a blank line
	// here means the empty set.
	for _, sec := range []struct {
		what string
		dst  *[]int
	}{{"input", &g.Inputs}, {"output", &g.Outputs}} {
		ln, no, ok := next(false)
		if !ok {
			return nil, perr(cursor, ErrMissingSection, "%s ids line missing", sec.what)
		}
		ids, err := refParseIDs(no, ln)
		if err != nil {
			return nil, err
		}
		if *sec.dst, err = canonIDs(no, sec.what, ids, channels); err != nil {
			return nil, err
		}
	}

	for {
		ln, no, ok := next(true)
		if !ok {
			return g, nil
		}
		ids, err := refParseIDs(no, ln)
		if err != nil {
			return nil, err
		}
		if len(ids) < 2 {
			return nil, perr(no, ErrSyntax, "edge line needs a sender and at least one receiver")
		}
		for _, to := range ids[1:] {
			if err := refAddEdge(g.Edges, no, ids[0], to); err != nil {
				return nil, err
			}
		}
	}
}

// refParseIDs splits one line into integer fields.
func refParseIDs(line int, s string) ([]int, error) {
	fields := strings.Fields(s)
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, perr(line, ErrSyntax, "%q is not a channel id", f)
		}
		out[i] = v
	}
	return out, nil
}

// refExportCDG and refExportJSON are the fmt and json.Marshal exporters
// the append-based ones replaced.
func refExportCDG(g *Graph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d\n", g.Edges.NumNodes())
	for _, ids := range [][]int{g.Inputs, g.Outputs} {
		for i, v := range ids {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	for v := 0; v < g.Edges.NumNodes(); v++ {
		succs := g.Edges.Succs(v)
		if len(succs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%d", v)
		for _, s := range succs {
			fmt.Fprintf(&b, " %d", s)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func refExportJSON(g *Graph) []byte {
	jg := struct {
		Channels int      `json:"channels"`
		Inputs   []int    `json:"inputs"`
		Outputs  []int    `json:"outputs"`
		Edges    [][2]int `json:"edges"`
	}{
		Channels: g.Edges.NumNodes(),
		Inputs:   append([]int{}, g.Inputs...),
		Outputs:  append([]int{}, g.Outputs...),
		Edges:    make([][2]int, 0, g.Edges.NumEdges()),
	}
	for v := 0; v < g.Edges.NumNodes(); v++ {
		for _, s := range g.Edges.Succs(v) {
			jg.Edges = append(jg.Edges, [2]int{v, int(s)})
		}
	}
	out, err := json.Marshal(jg)
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

var sentinels = []error{ErrChannelCount, ErrMissingSection, ErrIDRange, ErrDuplicateEdge, ErrDuplicateID, ErrSyntax}

// checkSame fails t unless a parse and its reference agree: both reject
// with the same sentinel (and, for text, the same line), or both accept
// graphs that export the same bytes, which both exporters render as
// their references do.
func checkSame(t *testing.T, data []byte, g *Graph, err error, rg *Graph, rerr error, lines bool) {
	t.Helper()
	if (err == nil) != (rerr == nil) {
		t.Fatalf("input %q: got err=%v, reference err=%v", data, err, rerr)
	}
	if err != nil {
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("input %q: untyped parse error %T: %v", data, err, err)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) != errors.Is(rerr, s) {
				t.Fatalf("input %q: got %v, reference %v", data, err, rerr)
			}
		}
		var rpe *ParseError
		if lines && errors.As(rerr, &rpe) && pe.Line != rpe.Line {
			t.Fatalf("input %q: error on line %d, reference line %d: %v", data, pe.Line, rpe.Line, err)
		}
		return
	}
	got, want := g.ExportCDG(), rg.ExportCDG()
	if !bytes.Equal(got, want) {
		t.Fatalf("input %q: graphs differ:\n%s\n---reference---\n%s", data, got, want)
	}
	if ref := refExportCDG(g); !bytes.Equal(got, ref) {
		t.Fatalf("ExportCDG drifted from its reference:\n%s\n---\n%s", got, ref)
	}
	if js, ref := g.ExportJSON(), refExportJSON(g); !bytes.Equal(js, ref) {
		t.Fatalf("ExportJSON drifted from its reference:\n%s\n---\n%s", js, ref)
	}
}

// addGoldens seeds f with every committed golden.
func addGoldens(f *testing.F) {
	f.Add([]byte(snippetsExample))
	for _, name := range []string{"xy3x3-out4.txt", "cycle4.txt", "escape-ok.txt", "deadend.txt", "escape-ok.json"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzParseCDG: the text parser must agree with its reference on every
// input — accept/reject, sentinel, error line and graph — never panic,
// and every accepted graph must round-trip to canonical bytes stably.
func FuzzParseCDG(f *testing.F) {
	addGoldens(f)
	f.Add([]byte("2\n\n\n0 1\n"))
	f.Add([]byte("# comment\n3\n0 1\n2\n0 2\n1 2\n"))
	f.Add([]byte("\u00a0# nbsp comment\r\n+3\r\n00 \u20281\r\n2\n\n0\t+2 \u3000\n\v1 2\f\n"))
	f.Add([]byte("3\n-0\n2\n0 1 x\n"))
	f.Add([]byte("3\n0\n2\n9223372036854775808 1\n"))
	f.Add([]byte("1\n00\n0")) // ends inside the output line
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseCDG(data)
		rg, rerr := refParseCDG(data)
		checkSame(t, data, g, err, rg, rerr, true)
		if err != nil {
			return
		}
		canon := g.ExportCDG()
		g2, err := ParseCDG(canon)
		if err != nil {
			t.Fatalf("canonical export does not reparse: %v\n%s", err, canon)
		}
		if again := g2.ExportCDG(); !bytes.Equal(canon, again) {
			t.Fatalf("export not stable:\n%s\n---\n%s", canon, again)
		}
	})
}

// FuzzParseJSON: the JSON scanner must agree with the encoding/json
// reference on every input — accept/reject, sentinel and graph — and
// DecodeJSON must accept exactly what the scanner does and rebuild the
// same graph through New.
func FuzzParseJSON(f *testing.F) {
	addGoldens(f)
	for _, q := range jsonQuirks {
		f.Add([]byte(q))
	}
	cg, err := topology.Dragonfly{Groups: 3, Routers: 2, Terminals: 1}.ChannelGraph(2)
	if err != nil {
		f.Fatal(err)
	}
	g, err := New(cg.Channels, cg.Inputs, cg.Outputs, cg.Edges)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(g.ExportJSON())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseJSON(data)
		rg, rerr := refParseJSON(data)
		checkSame(t, data, g, err, rg, rerr, false)
		sp, derr := DecodeJSON(data)
		if (derr != nil) != errors.Is(err, ErrSyntax) {
			t.Fatalf("input %q: DecodeJSON err=%v, ParseJSON err=%v", data, derr, err)
		}
		if derr != nil {
			return
		}
		g2, err2 := New(sp.Channels, sp.Inputs, sp.Outputs, sp.Edges)
		checkSame(t, data, g2, err2, rg, rerr, false)
	})
}

// dragonflyBytes exports the 33x16x8 two-VC dragonfly, the largest
// graph of the repository benchmark, in both encodings.
func dragonflyBytes(b *testing.B) (text, js []byte) {
	b.Helper()
	cg, err := topology.Dragonfly{Groups: 33, Routers: 16, Terminals: 8}.ChannelGraph(2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(cg.Channels, cg.Inputs, cg.Outputs, cg.Edges)
	if err != nil {
		b.Fatal(err)
	}
	return g.ExportCDG(), g.ExportJSON()
}

var benchGraph *Graph

func benchmarkParse(b *testing.B, data []byte, parse func([]byte) (*Graph, error)) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := parse(data)
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	}
}

func BenchmarkParseJSON(b *testing.B) {
	_, js := dragonflyBytes(b)
	benchmarkParse(b, js, ParseJSON)
}

func BenchmarkParseCDG(b *testing.B) {
	text, _ := dragonflyBytes(b)
	benchmarkParse(b, text, ParseCDG)
}
