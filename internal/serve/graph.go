package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
)

// POST /v1/verify/graph: multi-mode verification of an arbitrary
// channel dependence graph supplied inline — the serving face of
// internal/graphio. Requests carry either the structured JSON graph or
// the constellation text form verbatim, plus a mode; verdicts flow
// through the same admission queue, per-request deadline, singleflight
// group, and provenance discipline as /v1/verify — the one verdict
// pipeline — memoized in the server's mode cache under cdg.ModeKey. The
// endpoint is local to each replica: mode keys are not part of the
// cluster ring's keyspace.

// Graph request limits.
const (
	// maxGraphChannels bounds a submitted graph's channel count,
	// mirroring the maxNodes bound on concrete networks.
	maxGraphChannels = 4096
	// maxGraphEdges bounds a submitted graph's edge count.
	maxGraphEdges = 1 << 17
)

// GraphSpec is the inline structured encoding of an annotated CDG,
// field-for-field the graphio JSON variant. It is a wire type for
// clients: the server scans request bodies itself (decodeGraphRequest)
// and never decodes into it.
type GraphSpec struct {
	Channels int      `json:"channels"`
	Inputs   []int    `json:"inputs"`
	Outputs  []int    `json:"outputs"`
	Edges    [][2]int `json:"edges"`
}

// UnmarshalJSON decodes the graph through graphio's JSON scanner, so a
// GraphSpec accepts exactly the documents graphio.ParseJSON does — every
// edge an exact [sender, receiver] pair included.
func (s *GraphSpec) UnmarshalJSON(data []byte) error {
	sp, err := graphio.DecodeJSON(data)
	if err != nil {
		return err
	}
	*s = GraphSpec(sp)
	return nil
}

// GraphVerifyRequest asks for one mode verdict over an inline graph.
// Exactly one of Graph (structured) and CDG (constellation text,
// verbatim) must be set.
type GraphVerifyRequest struct {
	Graph  *GraphSpec `json:"graph,omitempty"`
	CDG    string     `json:"cdg,omitempty"`
	Mode   string     `json:"mode"`
	Escape []int      `json:"escape,omitempty"`
}

// GraphVerifyResponse is the mode verdict. Path and Cycle render the
// witness chains in the engine's "n1 => n17" form; Key is the
// mode-aware cache identity (hex).
type GraphVerifyResponse struct {
	Mode             string `json:"mode"`
	Channels         int    `json:"channels"`
	Edges            int    `json:"edges"`
	OK               bool   `json:"ok"`
	Reason           string `json:"reason,omitempty"`
	Path             string `json:"path,omitempty"`
	Cycle            string `json:"cycle,omitempty"`
	SubrelationEdges int    `json:"subrelation_edges,omitempty"`
	Provenance       string `json:"provenance"`
	Key              string `json:"key"`
}

// builtGraph is a decoded, validated graph request ready for the
// verdict pipeline.
type builtGraph struct {
	g      *graphio.Graph
	mode   cdg.GraphMode
	escape []int
}

// GraphVerifyRequest's JSON field names, in the order of the req*
// constants.
var graphRequestKeys = [][]byte{[]byte("graph"), []byte("cdg"), []byte("mode"), []byte("escape")}

const (
	reqGraph = iota
	reqCDG
	reqMode
	reqEscape
)

// graphLimits bounds every submitted graph while it is parsed, so an
// over-limit graph is refused before rows are built for it.
var graphLimits = graphio.Limits{Channels: maxGraphChannels, Edges: maxGraphEdges}

// decodeGraphRequest scans a /v1/verify/graph body in one pass: the
// envelope with graphio's scanner, the structured graph straight into
// its pair buffer, the text form unescaped once and handed to the text
// parser. It reads the body as decodeStrict reads a GraphVerifyRequest
// — unknown fields rejected, field names matched case-insensitively,
// the last of repeated keys winning, "graph": null meaning no graph,
// nothing but whitespace after the object — and validates it as the
// request's build step did. Every error is the client's (a 400).
//
//ebda:hotpath
func decodeGraphRequest(body []byte) (*builtGraph, error) {
	sc := graphio.NewScanner(body)
	var (
		doc        *graphio.JSONDoc
		text, mode []byte
		escape     []int
	)
	err := sc.Object(graphRequestKeys, func(k int) (err error) {
		switch k {
		case reqGraph:
			doc = nil
			if !sc.Null() {
				doc, err = sc.Graph()
			}
		case reqCDG:
			if !sc.Null() {
				text, err = sc.String()
			}
		case reqMode:
			if !sc.Null() {
				mode, err = sc.String()
			}
		case reqEscape:
			escape, err = sc.Ints(escape)
		}
		return err
	})
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return nil, badJSON(err)
	}
	m, err := cdg.ParseGraphMode(string(mode))
	if err != nil {
		return nil, err
	}
	var g *graphio.Graph
	switch {
	case doc != nil && len(text) > 0:
		return nil, errors.New("use either graph or cdg, not both")
	case doc != nil:
		g, err = doc.Build(graphLimits)
	case len(text) > 0:
		g, err = graphLimits.ParseCDG(text)
	default:
		return nil, errors.New("one of graph or cdg is required")
	}
	if err != nil {
		return nil, err
	}
	if m == cdg.ModeEscape && len(escape) == 0 {
		return nil, errors.New("mode escape requires a non-empty escape set")
	}
	for _, v := range escape {
		if v < 0 || v >= g.Edges.NumNodes() {
			return nil, escapeRangeErr(v, g.Edges.NumNodes())
		}
	}
	return &builtGraph{g: g, mode: m, escape: escape}, nil
}

func badJSON(err error) error { return fmt.Errorf("bad JSON: %w", err) }

func escapeRangeErr(v, n int) error { return fmt.Errorf("escape channel %d outside [0, %d)", v, n) }

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	obsReqGraph.Inc()
	t, sw, r := s.startTrace(w, r, "serve.graph")
	defer func() { t.Finish(sw.status) }()
	w = sw
	sp := phaseServeGraph.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	b, err := decodeGraphRequest(body)
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	// One query: the graph is hashed and its id sets canonicalised once,
	// for the cache probe and, on a miss, for the engine.
	q := cdg.NewModeQuery(b.g.Edges, b.mode, b.g.Inputs, b.g.Outputs, b.escape)
	k := verdictKind[cdg.ModeReport]{
		key: q.Key, check: q.Check, cache: &s.modes.Cache, flight: s.gflight, leader: provComputed,
		compute: func(ctx context.Context) (cdg.ModeReport, error) {
			return s.modes.VerifyQueryCtx(ctx, q, s.cfg.Jobs)
		},
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	rep, prov, err := verdict(ctx, s, &k)
	if err != nil {
		writeError(w, statusFor(err), sanitizeErr(err))
		return
	}
	t.SetProvenance(prov)
	resp := &GraphVerifyResponse{
		Mode:       rep.Mode.String(),
		Channels:   rep.Nodes,
		Edges:      rep.Edges,
		OK:         rep.OK,
		Reason:     rep.Reason,
		Provenance: prov,
		Key:        strconv.FormatUint(q.Key, 16),
	}
	if len(rep.Path) > 0 {
		resp.Path = cdg.FormatNodeChain(rep.Path)
	}
	if len(rep.Cycle) > 0 {
		resp.Cycle = cdg.FormatNodeChain(rep.Cycle)
	}
	if rep.OK && rep.Mode == cdg.ModeSubrel {
		resp.SubrelationEdges = len(rep.Subrelation)
	}
	writeJSON(w, http.StatusOK, resp)
}
