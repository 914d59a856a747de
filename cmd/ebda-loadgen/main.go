// Command ebda-loadgen drives ebda-serve with a deterministic seeded
// workload and prints its latency, throughput, coalesce rate and error
// counts. With -cluster it drives an in-process replica ring instead and
// can write the cluster rows (BENCH_cluster.json, a ledger snapshot)
// that ebda-benchdiff gates across commits; see cluster.go.
//
// The workload mixes hot requests (a small set of repeated designs that
// exercise the verify cache), cold requests (fresh shapes that compute),
// batches, design-family requests, deliberately invalid bodies and —
// after one base verification pins its cache key — seeded single-link
// delta requests against /v1/verify/delta. A final burst phase fires
// identical concurrent requests at a fresh shape until at least one
// response reports coalesced provenance.
//
// With -addr empty the generator starts an in-process server (same code
// path as ebda-serve) on a loopback port, which also lets it probe the
// /readyz drain contract. With -smoke it asserts the serving invariants
// and exits 1 on any violation:
//
//   - zero 5xx responses (top-level and batch items)
//   - at least one coalesced verdict
//   - repeated identical requests return byte-identical verdicts
//     (provenance aside)
//   - every invalid request is rejected with a 4xx
//   - at least one incrementally computed delta verdict, and delta
//     verdicts byte-identical to from-scratch re-verifications of the
//     derived faulty networks
//
// Usage examples:
//
//	ebda-loadgen -smoke
//	ebda-loadgen -addr 127.0.0.1:8423 -requests 2000 -conc 16
//	ebda-loadgen -cluster -replicas 4 -smoke -out BENCH_cluster.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/obs/trace"
	"ebda/internal/serve"
	"ebda/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// genReq is one pre-generated request of the deterministic workload.
type genReq struct {
	path    string
	body    string
	invalid bool // expected to be rejected with a 4xx
}

// result is one completed request.
type result struct {
	status    int
	latencyMS float64
	// provenance tallies across the verdicts the response carried (a
	// batch or design response carries several).
	cache, computed, coalesced, delta int
	// peer and forwarded only appear in cluster mode (a non-owner
	// answered from the owner's cache, or proxied to it).
	peer, forwarded int
	item5xx         int
	invalid         bool
}

func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ebda-loadgen", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", "", "target server (host:port); empty starts an in-process server")
	seed := fs.Uint64("seed", 1, "workload seed")
	requests := fs.Int("requests", 200, "requests in the main phase")
	conc := fs.Int("conc", 8, "concurrent client workers")
	outPath := fs.String("out", "", "cluster mode: write the cluster rows to this path")
	smoke := fs.Bool("smoke", false, "assert serving invariants; exit 1 on violation")
	burst := fs.Int("burst", 8, "width of the coalesce burst phase")
	workers := fs.Int("workers", 0, "in-process server: worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "in-process server: queue depth (0 = default)")
	timeout := fs.Duration("timeout", 0, "in-process server: per-request deadline (0 = default)")
	clusterMode := fs.Bool("cluster", false, "drive an in-process replica cluster through the shard ring (writes a cluster snapshot)")
	replicas := fs.Int("replicas", 4, "cluster mode: ring member count")
	designs := fs.Int("designs", 64, "cluster mode: distinct designs in the workload (balanced across replicas)")
	misroute := fs.Float64("misroute", 0.10, "cluster mode: fraction of requests sent to a non-owner")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *requests < 1 || *conc < 1 || *burst < 1 {
		fmt.Fprintln(errw, "ebda-loadgen: -requests, -conc and -burst must be positive")
		return 2
	}
	if *outPath != "" && !*clusterMode {
		fmt.Fprintln(errw, "ebda-loadgen: -out writes cluster rows; it needs -cluster")
		return 2
	}

	cfg := serve.Config{Workers: *workers, QueueDepth: *queue, Timeout: *timeout}
	if *clusterMode {
		if *addr != "" {
			fmt.Fprintln(errw, "ebda-loadgen: -cluster drives in-process replicas; -addr is incompatible")
			return 2
		}
		// The single-server default of 200 requests is too small a
		// sample for the scaling gate: a handful of forwards landing on
		// one phase dominates its wall. Cluster runs default higher;
		// an explicit -requests still wins.
		reqs := *requests
		explicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "requests" {
				explicit = true
			}
		})
		if !explicit {
			reqs = 800
		}
		return runCluster(clusterParams{
			seed:     *seed,
			requests: reqs,
			conc:     *conc,
			replicas: *replicas,
			designs:  *designs,
			misroute: *misroute,
			outPath:  *outPath,
			smoke:    *smoke,
			cfg:      cfg,
		}, out, errw)
	}
	base := *addr
	var local *serve.Server
	if base == "" {
		srv, bound, err := startLocal(cfg)
		if err != nil {
			fmt.Fprintln(errw, "ebda-loadgen:", err)
			return 2
		}
		local = srv
		base = bound
		fmt.Fprintf(errw, "ebda-loadgen: in-process server on %s\n", base)
	}
	baseURL := "http://" + base
	client := &http.Client{Timeout: 60 * time.Second}

	// Phase 0: one base verification pins the delta base's cache key, so
	// the mix's delta requests can assert it. An empty key (e.g. an old
	// server without the delta endpoint) degrades the mix to no deltas.
	baseKey, bkErr := fetchBaseKey(client, baseURL)
	if bkErr != nil {
		fmt.Fprintln(errw, "ebda-loadgen: base verify for delta key failed:", bkErr)
	}

	// Phase 1: the seeded mix, spread over conc workers.
	reqs := generate(*seed, *requests, baseKey)
	start := time.Now() //ebda:allow detlint the load generator measures wall latency by design
	results := make([]result, len(reqs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = doReq(client, baseURL, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()

	// Phase 2: coalesce burst — identical concurrent requests at fresh
	// shapes until one response reports coalesced provenance. Fresh
	// sizes start above the cold range so every attempt misses the
	// cache.
	coalesceSeen := 0
	for sz := 63; sz >= 33 && coalesceSeen == 0; sz-- {
		// Largest admissible shapes first: their verifications run
		// longest, so the window in which a second request can join the
		// flight is widest.
		body := fmt.Sprintf(`{"network":{"kind":"mesh","sizes":[%d,%d]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"}`, sz, sz)
		burstRes := make([]result, *burst)
		var bw sync.WaitGroup
		barrier := make(chan struct{})
		for b := 0; b < *burst; b++ {
			bw.Add(1)
			go func(b int) {
				defer bw.Done()
				<-barrier
				burstRes[b] = doReq(client, baseURL, genReq{path: "/v1/verify", body: body})
			}(b)
		}
		close(barrier)
		bw.Wait()
		for _, r := range burstRes {
			coalesceSeen += r.coalesced
			results = append(results, r)
		}
	}
	wall := time.Since(start).Seconds() //ebda:allow detlint the load generator measures wall latency by design

	// Phase 3: determinism — the identical request twice, sequentially;
	// the verdicts must be byte-identical once provenance (legitimately
	// cache vs computed) is cleared.
	deterministic, detErr := identicalVerdicts(client, baseURL)

	// Phase 3b: delta equivalence — single-link delta verdicts must be
	// byte-identical to from-scratch verifications of the derived faulty
	// networks, computed locally through the cached engine.
	deltaOK, deltaMsg := deltaEquivalence(client, baseURL, baseKey)

	// Phase 3c: trace evidence — the flight recorder at /debug/traces
	// captured the run, and the slowest captured trace's span tree
	// accounts for the latency it reports.
	traced, traceOK, traceMsg := traceEvidence(client, baseURL)

	// Phase 4 (in-process only): the drain contract. /readyz answers 200
	// while serving and 503 once shutdown begins.
	drainOK := true
	var drainMsg string
	if local != nil {
		drainOK, drainMsg = probeDrain(client, baseURL, local)
	}

	// Aggregate.
	var t tally
	latencies := make([]float64, 0, len(results))
	invalidBad := 0
	for _, r := range results {
		latencies = append(latencies, r.latencyMS)
		t.add(r)
		if r.invalid && (r.status < 400 || r.status >= 500) {
			invalidBad++
		}
	}
	coalesceRate := 0.0
	if total := t.cache + t.computed + t.coalesced + t.delta; total > 0 {
		coalesceRate = float64(t.coalesced) / float64(total)
	}
	throughput := 0.0
	if wall > 0 {
		throughput = float64(t.requests) / wall
	}

	fmt.Fprintf(out, "requests %d  2xx %d  4xx %d  5xx %d\n", t.requests, t.s2xx, t.s4xx, t.s5xx)
	fmt.Fprintf(out, "verdicts: cache %d  computed %d  coalesced %d  delta %d (coalesce rate %.3f)\n",
		t.cache, t.computed, t.coalesced, t.delta, coalesceRate)
	fmt.Fprintf(out, "latency: p50 %.2fms  p99 %.2fms  throughput %.1f req/s  traced %d\n",
		quantile(latencies, 0.50), quantile(latencies, 0.99), throughput, traced)

	if *smoke {
		violations := 0
		fail := func(format string, args ...any) {
			violations++
			fmt.Fprintf(errw, "SMOKE FAIL: "+format+"\n", args...)
		}
		if t.s5xx != 0 {
			fail("%d responses were 5xx, want 0", t.s5xx)
		}
		if t.coalesced < 1 {
			fail("no request coalesced onto an in-flight computation")
		}
		if !deterministic {
			fail("repeated identical requests returned different verdicts: %s", detErr)
		}
		if invalidBad != 0 {
			fail("%d invalid requests were not rejected with a 4xx", invalidBad)
		}
		if t.delta < 1 {
			fail("no delta verdict was computed incrementally")
		}
		if !deltaOK {
			fail("delta equivalence: %s", deltaMsg)
		}
		if local != nil && traced < 1 {
			fail("the flight recorder captured no traces")
		}
		if !traceOK {
			fail("trace evidence: %s", traceMsg)
		}
		if !drainOK {
			fail("drain contract: %s", drainMsg)
		}
		if violations > 0 {
			return 1
		}
		fmt.Fprintln(out, "smoke: all serving invariants hold")
	}
	return 0
}

// startLocal runs the ebda-serve pipeline in-process on a loopback port.
func startLocal(cfg serve.Config) (*serve.Server, string, error) {
	srv := serve.New(cfg)
	mux := obshttp.Mux(obs.Default, srv.Ready)
	srv.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go http.Serve(ln, mux)
	return srv, ln.Addr().String(), nil
}

// hotBodies is the repeated-design set: small shapes the verify cache
// memoizes after first contact.
var hotBodies = []string{
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`,
	`{"network":{"kind":"mesh","sizes":[6,6]},"chain":"PA[X-] -> PB[X+ Y+ Y-]"}`,
	`{"network":{"kind":"mesh","sizes":[5,5]},"chain":"PA[X- Y-] -> PB[X+ Y+]"}`,
	`{"network":{"kind":"torus","sizes":[6,6]},"chain":"PA[X+ Y+] -> PB[X- Y-]"}`,
	`{"network":{"kind":"mesh","sizes":[4,4]},"turns":"X+>Y+,X->Y+,X+>Y-,X->Y-"}`,
}

// invalidBodies are rejected by decode or validation; the server must
// answer each with a 4xx.
var invalidBodies = []string{
	`{"network":{"kind":"ring","sizes":[8,8]},"chain":"PA[X+]"}`,
	`{"network":{"kind":"mesh","sizes":[1,8]},"chain":"PA[X+]"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+]","turns":"X+>Y+"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[Q*]"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]}}`,
	`not json at all`,
}

// coldChains parameterize the fresh-shape requests.
var coldChains = []string{
	"PA[X+ X- Y-] -> PB[Y+]",
	"PA[X-] -> PB[X+ Y+ Y-]",
	"PA[X- Y-] -> PB[X+ Y+]",
	"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",
}

// deltaBase is the design the delta requests perturb: hotBodies[0], the
// 8x8-mesh north-last chain.
const deltaBaseBody = `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`

// generate builds the deterministic request mix for a seed: roughly 45%
// hot, a quarter cold, the rest split between batches, design families,
// single-link deltas (when a base key is pinned) and invalid bodies.
func generate(seed uint64, n int, baseKey string) []genReq {
	rng := rand.New(rand.NewSource(int64(seed)))
	reqs := make([]genReq, 0, n)
	for i := 0; i < n; i++ {
		switch p := rng.Intn(100); {
		case p < 45:
			reqs = append(reqs, genReq{path: "/v1/verify", body: hotBodies[rng.Intn(len(hotBodies))]})
		case p < 70:
			reqs = append(reqs, genReq{path: "/v1/verify", body: coldBody(rng)})
		case p < 80:
			body := deltaBody(rng, baseKey)
			if baseKey == "" {
				// No pinned base key (old server): fall back to a hot hit.
				reqs = append(reqs, genReq{path: "/v1/verify", body: hotBodies[rng.Intn(len(hotBodies))]})
				continue
			}
			reqs = append(reqs, genReq{path: "/v1/verify/delta", body: body})
		case p < 85:
			items := make([]string, 2+rng.Intn(3))
			for j := range items {
				if rng.Intn(2) == 0 {
					items[j] = hotBodies[rng.Intn(len(hotBodies))]
				} else {
					items[j] = coldBody(rng)
				}
			}
			reqs = append(reqs, genReq{path: "/v1/batch", body: `{"requests":[` + strings.Join(items, ",") + `]}`})
		case p < 90:
			vcs := []string{`[1,1]`, `[1,2]`, `[2,1]`}[rng.Intn(3)]
			reqs = append(reqs, genReq{path: "/v1/design", body: `{"vcs":` + vcs + `,"max":4}`})
		default:
			reqs = append(reqs, genReq{path: "/v1/verify", body: invalidBodies[rng.Intn(len(invalidBodies))], invalid: true})
		}
	}
	return reqs
}

// deltaBody draws one single-link removal against the pinned base: the
// source node stays off the mesh boundary so every direction names a
// real link. The rng draws happen even when baseKey is empty, keeping
// the request stream deterministic per seed across server versions.
func deltaBody(rng *rand.Rand, baseKey string) string {
	x, y := 1+rng.Intn(6), 1+rng.Intn(6)
	dir := []string{"X+", "X-", "Y+", "Y-"}[rng.Intn(4)]
	return fmt.Sprintf(`{"base":%s,"base_key":"%s","remove_links":[{"at":[%d,%d],"dir":"%s"}]}`,
		deltaBaseBody, baseKey, x, y, dir)
}

// coldBody draws a fresh-ish shape: sizes in [2,32] so the burst phase's
// [33,63] range never collides with it.
func coldBody(rng *rand.Rand) string {
	a, b := 2+rng.Intn(31), 2+rng.Intn(31)
	kind := "mesh"
	if rng.Intn(4) == 0 {
		kind = "torus"
	}
	chain := coldChains[rng.Intn(len(coldChains))]
	return fmt.Sprintf(`{"network":{"kind":"%s","sizes":[%d,%d]},"chain":"%s"}`, kind, a, b, chain)
}

// doReq posts one request and tallies its response.
func doReq(client *http.Client, baseURL string, r genReq) result {
	t0 := time.Now() //ebda:allow detlint the load generator measures wall latency by design
	resp, err := client.Post(baseURL+r.path, "application/json", strings.NewReader(r.body))
	if err != nil {
		// Transport failure counts as a 5xx: the server broke the
		// connection contract.
		return result{status: 599, invalid: r.invalid}
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := result{
		status:    resp.StatusCode,
		latencyMS: time.Since(t0).Seconds() * 1000, //ebda:allow detlint the load generator measures wall latency by design
		invalid:   r.invalid,
	}
	if resp.StatusCode != http.StatusOK {
		return res
	}
	switch r.path {
	case "/v1/verify":
		var v serve.VerifyResponse
		if json.Unmarshal(body, &v) == nil {
			res.tally(v.Provenance)
		}
	case "/v1/verify/delta":
		var d serve.DeltaResponse
		if json.Unmarshal(body, &d) == nil {
			res.tally(d.Provenance)
		}
	case "/v1/batch":
		var b serve.BatchResponse
		if json.Unmarshal(body, &b) == nil {
			for _, item := range b.Results {
				if item.OK != nil {
					res.tally(item.OK.Provenance)
				} else if item.Status >= 500 {
					res.item5xx++
				}
			}
		}
	case "/v1/design":
		var d serve.DesignResponse
		if json.Unmarshal(body, &d) == nil {
			for _, opt := range d.Options {
				res.tally(opt.Provenance)
			}
		}
	}
	return res
}

// tally sums results: request and status counts (a batch item's 5xx
// counts as a 5xx) and the provenance of every verdict.
type tally struct {
	requests, s2xx, s4xx, s5xx                   int
	cache, computed, coalesced, delta, peer, fwd int
}

func (t *tally) add(r result) {
	t.requests++
	switch {
	case r.status >= 500:
		t.s5xx++
	case r.status >= 400:
		t.s4xx++
	case r.status >= 200 && r.status < 300:
		t.s2xx++
	}
	t.s5xx += r.item5xx
	t.cache += r.cache
	t.computed += r.computed
	t.coalesced += r.coalesced
	t.delta += r.delta
	t.peer += r.peer
	t.fwd += r.forwarded
}

// quantile returns the q-quantile (0..1) of latencies in milliseconds
// using the nearest-rank method, 0 for an empty sample. The input is
// sorted in place.
func quantile(latenciesMS []float64, q float64) float64 {
	if len(latenciesMS) == 0 {
		return 0
	}
	sort.Float64s(latenciesMS)
	rank := int(q*float64(len(latenciesMS))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(latenciesMS) {
		rank = len(latenciesMS) - 1
	}
	return latenciesMS[rank]
}

func (r *result) tally(provenance string) {
	switch provenance {
	case "cache":
		r.cache++
	case "computed":
		r.computed++
	case "coalesced":
		r.coalesced++
	case "delta":
		r.delta++
	case "peer":
		r.peer++
	case "forwarded":
		r.forwarded++
	}
}

// fetchBaseKey verifies the delta base design once and returns its cache
// key, pinning the identity the delta requests assert via base_key.
func fetchBaseKey(client *http.Client, baseURL string) (string, error) {
	resp, err := client.Post(baseURL+"/v1/verify", "application/json", strings.NewReader(deltaBaseBody))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var v serve.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", err
	}
	if v.Key == "" {
		return "", fmt.Errorf("base verify returned no cache key")
	}
	return v.Key, nil
}

// deltaEquivalence posts a handful of fixed single-link deltas and
// compares each verdict byte-for-byte against a from-scratch cached
// verification of the derived faulty network, computed locally with the
// same engine the server embeds.
func deltaEquivalence(client *http.Client, baseURL, baseKey string) (bool, string) {
	if baseKey == "" {
		return false, "no base key pinned (base verify failed?)"
	}
	net := topology.NewMesh(8, 8)
	chain, err := core.ParseChain("PA[X+ X- Y-] -> PB[Y+]")
	if err != nil {
		return false, err.Error()
	}
	ts := chain.Turns(core.DefaultTurnOptions)
	vcs := cdg.VCConfigFor(net.Dims(), chain.Channels())
	checks := []struct {
		x, y int
		dir  string
		d    channel.Dim
		sign channel.Sign
	}{
		{2, 3, "X+", 0, channel.Plus},
		{5, 1, "Y-", 1, channel.Minus},
		{0, 0, "X+", 0, channel.Plus},
		{6, 6, "Y+", 1, channel.Plus},
	}
	for _, c := range checks {
		body := fmt.Sprintf(`{"base":%s,"base_key":"%s","remove_links":[{"at":[%d,%d],"dir":"%s"}]}`,
			deltaBaseBody, baseKey, c.x, c.y, c.dir)
		resp, err := client.Post(baseURL+"/v1/verify/delta", "application/json", strings.NewReader(body))
		if err != nil {
			return false, err.Error()
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Sprintf("link (%d,%d)%s: status %d: %s", c.x, c.y, c.dir, resp.StatusCode, raw)
		}
		var got serve.DeltaResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			return false, err.Error()
		}

		link, ok := net.FindLink(net.ID(topology.Coord{c.x, c.y}), c.d, c.sign)
		if !ok {
			return false, fmt.Sprintf("link (%d,%d)%s missing from the local mesh", c.x, c.y, c.dir)
		}
		want := cdg.VerifyTurnSetCached(net.WithoutLinks([]topology.Link{link}), vcs, ts)
		exp := serve.DeltaResponse{
			Network: want.Network, Channels: want.Channels, Edges: want.Edges, Acyclic: want.Acyclic,
		}
		if !want.Acyclic {
			exp.Cycle = cdg.FormatCycle(want.Cycle)
		}
		// Byte-for-byte over the verdict fields: provenance and keys are
		// transport metadata, not verdict.
		got.Provenance, got.Key, got.BaseKey = "", "", ""
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(exp)
		if !bytes.Equal(a, b) {
			return false, fmt.Sprintf("link (%d,%d)%s: delta %s != full %s", c.x, c.y, c.dir, a, b)
		}
	}
	return true, ""
}

// traceEvidence pulls the flight recorder at /debug/traces, counts the
// captured traces and checks the slowest one against its own report:
// the summed duration of its top-level spans must sit within
// max(10ms, 50%) of the trace's duration_ms. A trace that reported
// latency its spans cannot account for means the recorder dropped or
// mislinked part of the request's tree.
func traceEvidence(client *http.Client, baseURL string) (int, bool, string) {
	resp, err := client.Get(baseURL + "/debug/traces")
	if err != nil {
		return 0, false, err.Error()
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Sprintf("/debug/traces: status %d", resp.StatusCode)
	}
	var page struct {
		Traces []trace.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return 0, false, "/debug/traces: " + err.Error()
	}
	if len(page.Traces) == 0 {
		return 0, true, ""
	}
	slowest := page.Traces[0]
	for _, tj := range page.Traces[1:] {
		if tj.DurationMs > slowest.DurationMs {
			slowest = tj
		}
	}
	// Top-level spans: the origin root, plus any span whose parent
	// fragment was overwritten out of the ring. Children nest inside
	// them, so summing only the top level never double-counts.
	present := make(map[string]bool, len(slowest.Spans))
	for _, sp := range slowest.Spans {
		present[sp.ID] = true
	}
	var sumMS float64
	for _, sp := range slowest.Spans {
		if sp.Parent == "" || !present[sp.Parent] {
			sumMS += float64(sp.DurMicros) / 1e3
		}
	}
	tol := 10.0
	if half := slowest.DurationMs / 2; half > tol {
		tol = half
	}
	if diff := sumMS - slowest.DurationMs; diff > tol || diff < -tol {
		return len(page.Traces), false, fmt.Sprintf("slowest trace %s: span sum %.2fms vs reported %.2fms (tolerance %.2fms)",
			slowest.ID, sumMS, slowest.DurationMs, tol)
	}
	return len(page.Traces), true, ""
}

// identicalVerdicts posts the same request twice sequentially and
// compares the canonicalized responses byte for byte.
func identicalVerdicts(client *http.Client, baseURL string) (bool, string) {
	const body = `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`
	canon := func() ([]byte, error) {
		resp, err := client.Post(baseURL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var v serve.VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return nil, err
		}
		v.Provenance = ""
		return json.Marshal(v)
	}
	a, err := canon()
	if err != nil {
		return false, err.Error()
	}
	b, err := canon()
	if err != nil {
		return false, err.Error()
	}
	if !bytes.Equal(a, b) {
		return false, fmt.Sprintf("first %s, second %s", a, b)
	}
	return true, ""
}

// probeDrain checks the readiness contract on the in-process server:
// ready while serving, 503 once shutdown begins.
func probeDrain(client *http.Client, baseURL string, srv *serve.Server) (bool, string) {
	readyz := func() (int, error) {
		resp, err := client.Get(baseURL + "/readyz")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	code, err := readyz()
	if err != nil {
		return false, err.Error()
	}
	if code != http.StatusOK {
		return false, fmt.Sprintf("/readyz before drain = %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return false, "shutdown: " + err.Error()
	}
	code, err = readyz()
	if err != nil {
		return false, err.Error()
	}
	if code != http.StatusServiceUnavailable {
		return false, fmt.Sprintf("/readyz during drain = %d, want 503", code)
	}
	return true, ""
}
