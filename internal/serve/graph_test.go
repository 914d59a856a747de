package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ebda/internal/cdg"
)

// escapeOKSpec is the canonical Duato exerciser from the graphio
// goldens: a cyclic adaptive core 2<->3 with escape channel 4 draining
// to output 5.
const escapeOKSpec = `{"channels":6,"inputs":[0,1],"outputs":[5],"edges":[[0,2],[1,3],[2,3],[2,4],[3,2],[3,4],[4,5]]}`

const escapeOKText = "6\n0 1\n5\n0 2\n1 3\n2 3 4\n3 2 4\n4 5\n"

func graphBody(mode, extra string) string {
	return `{"graph":` + escapeOKSpec + `,"mode":"` + mode + `"` + extra + `}`
}

func TestGraphEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := graphBody("liveness", "")

	status, raw := post(t, ts, "/v1/verify/graph", body)
	if status != 200 {
		t.Fatalf("POST /v1/verify/graph = %d: %s", status, raw)
	}
	var first GraphVerifyResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.OK || first.Reason != cdg.ReasonCycle {
		t.Fatalf("cyclic region accepted: %+v", first)
	}
	if first.Provenance != provComputed {
		t.Fatalf("first verdict provenance = %q, want %q", first.Provenance, provComputed)
	}
	if first.Channels != 6 || first.Edges != 7 || first.Key == "" || first.Cycle == "" || first.Path == "" {
		t.Fatalf("response missing fields: %+v", first)
	}

	// The identical request again: answered from the mode cache, with
	// verdict fields byte-identical once provenance is canonicalized.
	status, raw2 := post(t, ts, "/v1/verify/graph", body)
	if status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw2)
	}
	var second GraphVerifyResponse
	if err := json.Unmarshal(raw2, &second); err != nil {
		t.Fatal(err)
	}
	if second.Provenance != provCache {
		t.Fatalf("repeat verdict provenance = %q, want %q", second.Provenance, provCache)
	}
	first.Provenance, second.Provenance = "", ""
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeat verdict differs:\nfirst  %s\nsecond %s", a, b)
	}
}

// TestGraphReplicaLocal pins /v1/verify/graph as replica-local: replicas
// built by NewReplica (testServer) keep private mode caches, so a graph
// one replica computed is computed again, not served from cache, by
// another in the same process.
func TestGraphReplicaLocal(t *testing.T) {
	_, a := testServer(t, Config{})
	_, b := testServer(t, Config{})
	body := graphBody("subrel", "")
	for i, ts := range []*httptest.Server{a, b} {
		status, raw := post(t, ts, "/v1/verify/graph", body)
		if status != 200 {
			t.Fatalf("replica %d: POST = %d: %s", i, status, raw)
		}
		var resp GraphVerifyResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Provenance != provComputed {
			t.Fatalf("replica %d answered %q, want %q", i, resp.Provenance, provComputed)
		}
	}
}

// TestGraphTextAndJSONAgree pins that the constellation text form and
// the structured form of the same graph share the verdict, the cache
// key, and therefore the cache entry.
func TestGraphTextAndJSONAgree(t *testing.T) {
	_, ts := testServer(t, Config{})
	textBody, _ := json.Marshal(GraphVerifyRequest{CDG: escapeOKText, Mode: "escape", Escape: []int{4}})
	status, raw := post(t, ts, "/v1/verify/graph", string(textBody))
	if status != 200 {
		t.Fatalf("text form = %d: %s", status, raw)
	}
	var tr GraphVerifyResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.OK || tr.Provenance != provComputed {
		t.Fatalf("escape verdict: %+v", tr)
	}

	status, raw = post(t, ts, "/v1/verify/graph", graphBody("escape", `,"escape":[4]`))
	if status != 200 {
		t.Fatalf("structured form = %d: %s", status, raw)
	}
	var jr GraphVerifyResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Provenance != provCache {
		t.Fatalf("structured form missed the cache: %+v", jr)
	}
	if jr.Key != tr.Key || jr.OK != tr.OK {
		t.Fatalf("encodings disagree:\ntext %+v\njson %+v", tr, jr)
	}
}

func TestGraphAllModes(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		body   string
		ok     bool
		reason string
	}{
		{graphBody("loop", ""), false, cdg.ReasonCycle},
		{graphBody("liveness", ""), false, cdg.ReasonCycle},
		{graphBody("escape", `,"escape":[4]`), true, ""},
		{graphBody("subrel", ""), true, ""},
	}
	keys := make(map[string]string)
	for _, tc := range cases {
		status, raw := post(t, ts, "/v1/verify/graph", tc.body)
		if status != 200 {
			t.Fatalf("%s = %d: %s", tc.body, status, raw)
		}
		var resp GraphVerifyResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK != tc.ok || resp.Reason != tc.reason {
			t.Fatalf("%s: %+v", tc.body, resp)
		}
		if prev, dup := keys[resp.Key]; dup {
			t.Fatalf("mode %s shares cache key %s with mode %s", resp.Mode, resp.Key, prev)
		}
		keys[resp.Key] = resp.Mode
		if resp.Mode == "subrel" && resp.SubrelationEdges == 0 {
			t.Fatalf("subrel verdict without subrelation: %+v", resp)
		}
	}
}

func TestGraphBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	huge := `{"graph":{"channels":5000,"inputs":[],"outputs":[],"edges":[]},"mode":"loop"}`
	cases := []struct {
		name string
		body string
	}{
		{"unknown field", `{"graph":` + escapeOKSpec + `,"mode":"loop","frob":1}`},
		{"both encodings", `{"graph":` + escapeOKSpec + `,"cdg":"1\n\n\n","mode":"loop"}`},
		{"no graph", `{"mode":"loop"}`},
		{"bad mode", `{"graph":` + escapeOKSpec + `,"mode":"bogus"}`},
		{"escape without set", graphBody("escape", "")},
		{"escape out of range", graphBody("escape", `,"escape":[99]`)},
		{"channels over limit", huge},
		{"channels far over limit", `{"graph":{"channels":1048576},"mode":"loop"}`},
		{"text channels far over limit", `{"cdg":"1048576\n0\n0\n","mode":"loop"}`},
		{"trailing brace", `{"cdg":"2\n0\n1\n0 1\n","mode":"loop"}}`},
		{"cdg parse error", `{"cdg":"2\n9\n\n","mode":"loop"}`},
		{"edge out of range", `{"graph":{"channels":2,"inputs":[],"outputs":[],"edges":[[0,7]]},"mode":"loop"}`},
		{"trailing garbage", graphBody("loop", "") + `{}`},
		{"edge not a pair", `{"graph":{"channels":3,"inputs":[],"outputs":[],"edges":[[0,1,2]]},"mode":"loop"}`},
		{"unknown graph field", `{"graph":{"channels":2,"frob":1},"mode":"loop"}`},
	}
	for _, tc := range cases {
		status, raw := post(t, ts, "/v1/verify/graph", tc.body)
		if status != 400 {
			t.Fatalf("%s: status %d: %s", tc.name, status, raw)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/verify/graph")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET = %d, want 405", resp.StatusCode)
	}
}

// TestGraphDraining pins that the graph pipeline shares the admission
// machinery: a draining server sheds graph requests with 503.
func TestGraphDraining(t *testing.T) {
	s, ts := testServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, raw := post(t, ts, "/v1/verify/graph", graphBody("loop", ""))
	if status != 503 {
		t.Fatalf("draining server answered %d: %s", status, raw)
	}
	if !strings.Contains(string(raw), "draining") {
		t.Fatalf("error body: %s", raw)
	}
}
