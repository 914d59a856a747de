package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/obs/trace"
	"ebda/internal/serve"
)

// serve-mix: an in-process serve.New server with the default Config on
// loopback. An open-loop client on a fixed schedule over at most nproc
// connections climbs a rate ladder; after each of its passes a closed
// loop over nproc connections measures the server's saturated throughput
// on the same mix. The ladder, the latency limit, the pass lengths and
// the class mix are constants, never calibrated at run time; the work is
// the same whatever -seconds says.

// rung is one step of the rate ladder: a rate run as passes of passLen
// requests. A rung's figures are medians over its passes (nearest rank),
// so one stall of the shared host moves one pass, not the rung.
type rung struct {
	rate   float64 // requests per second
	passes int
}

var serveLadder = []rung{{300, 3}, {600, 1}, {1200, 1}, {2400, 1}}

const (
	// passLen is the request count of a ladder pass: enough for ten
	// samples beyond p99.
	passLen = 1010
	// closedLen is the request count of a closed-loop pass: at about
	// 2000 req/s on two CPUs, long enough that a collection or a stall of
	// the shared host is a small part of it.
	closedLen = 2 * passLen
	// nominalRung is the rung verdict_p50_ms and verdict_p99_ms are taken
	// at, as medians of its passes' p50 and p99.
	nominalRung = 0
	// serveLimitMs is the p99 limit a rung must meet, timed from each
	// request's due time.
	serveLimitMs = 100.0
	// lateGrowMs is how much the generator's median lateness may rise
	// from a pass's first half to its second before the pass counts as
	// backlogged. The median, not the tail: a stall of the shared host
	// moves the tail of either half without any backlog growing.
	lateGrowMs = 5.0
	// calibPairs is how many hot requests the traced run sends to each
	// of the traced and an untraced server to estimate tracing overhead.
	calibPairs = 300
)

// serveSetup is one running server with its stream.
type serveSetup struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	twin    *serve.Server // untraced server for the overhead estimate
	twinHS  *http.Server
	twinURL string
	rec     *trace.Recorder
	client  *http.Client
	stream  []sreq
	warm    []sreq
}

func (st *serveSetup) close() {
	for _, hs := range []*http.Server{st.hs, st.twinHS} {
		if hs != nil {
			hs.Close()
		}
	}
	for _, s := range []*serve.Server{st.srv, st.twin} {
		if s != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = s.Shutdown(ctx) // a drain that times out only delays exit
			cancel()
		}
	}
	st.client.CloseIdleConnections()
}

// listen serves s on a loopback port.
func listen(s *serve.Server) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	s.Register(mux)
	hs := &http.Server{Handler: mux}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed once closed
	return hs, "http://" + ln.Addr().String(), nil
}

// ladderPasses is how many passes the ladder runs.
func ladderPasses() int {
	n := 0
	for _, r := range serveLadder {
		n += r.passes
	}
	return n
}

func buildServeSetup(cfg config) (*serveSetup, error) {
	cdg.DefaultCache.Reset()
	cdg.DefaultModeCache.Reset()
	gen, err := newStreamGen(cfg.seed)
	if err != nil {
		return nil, err
	}
	n := ladderPasses() * (passLen + closedLen) // each ladder pass, then a closed-loop pass
	st := &serveSetup{stream: gen.stream(n)}
	// Warm-up: every hot design and repeated graph, untimed.
	for _, vc := range hotCases {
		st.warm = append(st.warm, gen.verify("hot", vc))
	}
	for i := 0; i < 4*len(gen.graphPool); i++ {
		st.warm = append(st.warm, gen.graph())
	}
	conns := runtime.NumCPU()
	st.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		TLSNextProto: map[string]func(string, *tls.Conn) http.RoundTripper{},
	}}
	scfg := serve.Config{}
	if cfg.trace {
		// Every request is retained: the ring holds the whole run.
		st.rec = trace.NewRecorder(n+len(st.warm)+4*calibPairs+256, 64)
		scfg.Tracer = trace.New(trace.Config{Fragment: "bench", SampleEvery: 1, SlowThreshold: -1, Recorder: st.rec})
		st.twin = serve.New(serve.Config{})
		if st.twinHS, st.twinURL, err = listen(st.twin); err != nil {
			return nil, err
		}
	}
	st.srv = serve.New(scfg)
	if st.hs, st.url, err = listen(st.srv); err != nil {
		return nil, err
	}
	for _, r := range append(st.warm, st.warm...) {
		out := st.send(r, "", st.url)
		if out.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s: %w", r.path, out.err)
		}
		if err := r.check(out.status, out.body); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s: %w", r.path, err)
		}
	}
	return st, nil
}

// outcome is one request's timing and response.
type outcome struct {
	due, sent, conn, done time.Time
	late                  time.Duration
	status                int
	body                  []byte
	err                   error
}

// send posts one request, recording when a connection was acquired.
// A non-empty traceID asks the server to record under that ID.
func (st *serveSetup) send(r sreq, traceID, url string) outcome {
	var out outcome
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { out.conn = now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+r.path, bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(trace.Header, traceID+"/client/0")
	}
	out.sent = now()
	resp, err := st.client.Do(req)
	if err != nil {
		out.err = err
		out.done = now()
		return out
	}
	out.body, out.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.done = now()
	out.status = resp.StatusCode
	if out.conn.IsZero() {
		out.conn = out.sent
	}
	return out
}

// pass is one pass of a rung or of the closed loop: stream indices
// [first, last) and what the client saw.
type pass struct {
	first, last           int
	latency               samples // from due time
	lateFirst, lateSecond samples // generator lateness per half
	achieved              float64 // correct responses per second
}

// rungResult summarises one rung of the ladder, or the closed loop.
type rungResult struct {
	rung     rung
	passes   []pass
	rejected map[int]int
	refused  int // refused, failed or wrong responses
	pass     bool
	why      string
}

// medianOf returns the median over passes of f.
func (rr *rungResult) medianOf(f func(p *pass) float64) float64 {
	var v []float64
	for i := range rr.passes {
		v = append(v, f(&rr.passes[i]))
	}
	return median(v)
}

func (rr *rungResult) p50() float64 {
	return rr.medianOf(func(p *pass) float64 { return p.latency.quantile(0.5) })
}

func (rr *rungResult) p99() float64 {
	return rr.medianOf(func(p *pass) float64 { return p.latency.quantile(0.99) })
}

func (rr *rungResult) achieved() float64 {
	return rr.medianOf(func(p *pass) float64 { return p.achieved })
}

func (rr *rungResult) requests() int {
	n := 0
	for _, p := range rr.passes {
		n += p.last - p.first
	}
	return n
}

// runLadder drives every pass of every rung on its fixed schedule, each
// followed by one closed-loop pass, so the closed loop samples the whole
// run rather than one stretch of it. Every pass waits for its last
// response. The closed loop is returned last, with rate 0.
func (st *serveSetup) runLadder(cfg config) ([]outcome, []rungResult) {
	outs := make([]outcome, len(st.stream))
	send := func(i int) outcome {
		id := ""
		if cfg.trace {
			id = "r" + strconv.Itoa(i)
		}
		return st.send(st.stream[i], id, st.url)
	}
	var results []rungResult
	closed := rungResult{rejected: map[int]int{}}
	idx := 0
	for _, rg := range serveLadder {
		rr := rungResult{rung: rg, rejected: map[int]int{}}
		interval := time.Duration(float64(time.Second) / rg.rate)
		for k := 0; k < rg.passes; k++ {
			rr.passes = append(rr.passes, pass{first: idx, last: idx + passLen})
			var wg sync.WaitGroup
			start := now()
			for j := 0; j < passLen; j++ {
				i := idx + j
				due := start.Add(time.Duration(j) * interval)
				time.Sleep(time.Until(due))
				late := since(due)
				wg.Add(1)
				go func() {
					defer wg.Done()
					o := send(i)
					o.due, o.late = due, late
					outs[i] = o
				}()
			}
			wg.Wait()
			idx += passLen

			// The closed-loop pass: nproc callers, each sending its next
			// request when the last is answered. A request is due when sent.
			closed.passes = append(closed.passes, pass{first: idx, last: idx + closedLen})
			var mu sync.Mutex
			next, end := idx, idx+closedLen
			for c := 0; c < runtime.NumCPU(); c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						mu.Lock()
						i := next
						next++
						mu.Unlock()
						if i >= end {
							return
						}
						o := send(i)
						o.due = o.sent
						outs[i] = o
					}
				}()
			}
			wg.Wait()
			idx = end
		}
		results = append(results, rr)
	}
	return outs, append(results, closed)
}

// classify applies the checks and the rung rules.
func classify(st *serveSetup, outs []outcome, rungs []rungResult, rep *report) {
	for ri := range rungs {
		rr := &rungs[ri]
		for pi := range rr.passes {
			p := &rr.passes[pi]
			correct := 0
			firstDue, lastDone := outs[p.first].due, outs[p.first].done
			for i := p.first; i < p.last; i++ {
				o := &outs[i]
				r := st.stream[i]
				rep.attempted++
				lat := ms(o.done.Sub(o.due).Nanoseconds())
				if i-p.first < (p.last-p.first)/2 {
					p.lateFirst = append(p.lateFirst, ms(o.late.Nanoseconds()))
				} else {
					p.lateSecond = append(p.lateSecond, ms(o.late.Nanoseconds()))
				}
				if o.done.After(lastDone) {
					lastDone = o.done
				}
				if o.due.Before(firstDue) {
					firstDue = o.due
				}
				switch {
				case o.err != nil:
					rep.fail("serve-mix %s %s: transport: %v", r.class, r.path, o.err)
				case o.status == http.StatusTooManyRequests:
					// Load shedding: refused, so it misses the limit, but it is
					// the server's documented answer to overload, not a defect.
					rr.rejected[o.status]++
				default:
					if o.status == http.StatusServiceUnavailable || o.status == http.StatusGatewayTimeout {
						rr.rejected[o.status]++
					}
					if err := r.check(o.status, o.body); err != nil {
						rep.fail("serve-mix %s %s: %v", r.class, r.path, err)
					} else {
						correct++
						p.latency = append(p.latency, lat)
						continue
					}
				}
				// A refused or wrong answer misses any latency limit.
				p.latency = append(p.latency, math.Inf(1))
			}
			rr.refused += p.last - p.first - correct
			p.achieved = ratio(float64(correct), lastDone.Sub(firstDue).Seconds())
		}
		if rr.rung.rate == 0 {
			continue // the closed loop has no schedule or limit to meet
		}
		lateGrow := rr.medianOf(func(p *pass) float64 {
			return p.lateSecond.quantile(0.5) - p.lateFirst.quantile(0.5)
		})
		switch {
		case rr.refused > 0:
			rr.why = fmt.Sprintf("%d of %d requests refused or wrong", rr.refused, rr.requests())
		case rr.p99() > serveLimitMs:
			rr.why = fmt.Sprintf("p99 %.2f ms over the %.0f ms limit", rr.p99(), serveLimitMs)
		case lateGrow > lateGrowMs:
			rr.why = fmt.Sprintf("generator lateness grew %.2f ms", lateGrow)
		default:
			rr.pass = true
		}
	}
}

func runServeMix(cfg config) (*report, error) {
	st, setupS, err := setupMedian(func() (*serveSetup, error) { return buildServeSetup(cfg) },
		func(st *serveSetup) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := newReport()
	rep.metrics["setup_s"] = setupS
	outs, rungs := st.runLadder(cfg)
	classify(st, outs, rungs, rep)
	closed := &rungs[len(rungs)-1]
	rungs = rungs[:len(rungs)-1]

	maxRate := 0.0
	for _, rr := range rungs {
		verdict := "pass"
		if !rr.pass {
			verdict = "FAIL: " + rr.why
		}
		rep.linef("serve-mix rung %4.0f req/s: %d passes, %5d requests, achieved %7.2f req/s, p50 %7.3f ms, p99 %7.3f ms (medians over passes), late p99 %.3f ms, rejected 429/503/504 %d/%d/%d: %s",
			rr.rung.rate, len(rr.passes), rr.requests(), rr.achieved(), rr.p50(), rr.p99(),
			rr.medianOf(func(p *pass) float64 { return append(p.lateFirst, p.lateSecond...).quantile(0.99) }),
			rr.rejected[429], rr.rejected[503], rr.rejected[504], verdict)
		if rr.pass {
			maxRate = rr.achieved()
		}
	}
	rep.linef("serve-mix closed loop, %d callers: %d passes, %5d requests, throughput %7.2f req/s (median over passes), rejected 429/503/504 %d/%d/%d",
		runtime.NumCPU(), len(closed.passes), closed.requests(), closed.achieved(),
		closed.rejected[429], closed.rejected[503], closed.rejected[504])
	for _, rr := range append(rungs, *closed) {
		for _, p := range rr.passes {
			rep.linef("serve-mix   %4.0f req/s pass of %4d requests: p50 %7.3f ms, p99 %7.3f ms, achieved %7.2f req/s",
				rr.rung.rate, p.last-p.first, p.latency.quantile(0.5), p.latency.quantile(0.99), p.achieved)
		}
	}
	var mix []string
	for _, c := range mixBlock {
		mix = append(mix, fmt.Sprintf("%d%% %s", c.n*5, c.class))
	}
	rep.linef("serve-mix: limit p99 <= %.0f ms from due time; nominal rung %.0f req/s; passes of %d requests; mix %s (seeded, not observed traffic)",
		serveLimitMs, serveLadder[nominalRung].rate, passLen, strings.Join(mix, ", "))
	rep.linef("serve-mix: max_rate_rps %.2f req/s", maxRate)
	nom := &rungs[nominalRung]
	for _, p := range nom.passes {
		if _, err := p.latency.tail("nominal rung verdict", 0.99); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		rep.metrics["verdict_p50_ms"] = nom.p50()
		rep.metrics["verdicts_per_s"] = closed.achieved()
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.linef("serve-mix: nominal rung verdict p50 %.3f ms, p99 %.3f ms: medians over %d passes of %d samples",
			nom.p50(), nom.p99(), len(nom.passes), passLen)
		return rep, nil
	}
	return rep, st.traced(outs, rungs, rep)
}

// serveLayers names the server spans that belong to a layer; anything
// else a trace holds is unattributed.
var serveLayers = map[string]bool{
	"serve.verify": true, "serve.delta": true, "serve.graph": true, "serve.batch": true, "serve.design": true,
	"cache.lookup": true, "flight": true, "queue.wait": true,
	"cdg.verify": true, "cdg.edges": true, "cdg.kahn": true, "cdg.delta": true, "cdg.patch": true, "cdg.repeel": true,
}

// traced folds the server's traces and the client's timings into the
// per-layer metrics.
// The figures come from the nominal rung's requests, where the gated
// latencies are taken; every other request is only checked for a kept
// trace. Rejections are counted over the whole ladder.
func (st *serveSetup) traced(outs []outcome, rungs []rungResult, rep *report) error {
	nominal := make([]bool, len(outs))
	nNominal := 0
	for _, p := range rungs[nominalRung].passes {
		for i := p.first; i < p.last; i++ {
			nominal[i] = true
			nNominal++
		}
	}
	byID := map[string][]spanRec{}
	for _, tj := range trace.Collect(st.rec.Snapshot()) {
		byID[tj.ID] = spansOf(tj)
	}
	f := fold{}
	var transport, late samples
	classLat := map[string]samples{}
	var verdictSum, lateSum, connSum, transportSum float64
	prov := map[string]int{}
	for i, o := range outs {
		spans, ok := byID["r"+strconv.Itoa(i)]
		if !ok || len(spans) == 0 {
			return fmt.Errorf("recorder kept no trace for request %d of %d", i, len(outs))
		}
		if !nominal[i] {
			continue
		}
		f.add(spans)
		root := float64(spans[0].dur) / 1e3
		t := ms(o.done.Sub(o.conn).Nanoseconds()) - root
		transport = append(transport, t)
		late = append(late, ms(o.late.Nanoseconds()))
		v := ms(o.done.Sub(o.due).Nanoseconds())
		classLat[st.stream[i].class] = append(classLat[st.stream[i].class], v)
		verdictSum += v
		lateSum += ms(o.sent.Sub(o.due).Nanoseconds())
		connSum += ms(o.conn.Sub(o.sent).Nanoseconds())
		transportSum += t
		if p := provenance(o.body); p != "" {
			prov[p]++
		}
	}
	m := rep.metrics
	m["verdict_p99_ms"] = rungs[nominalRung].p99()
	root := samples{}
	for _, name := range []string{"serve.verify", "serve.delta", "serve.graph", "serve.batch", "serve.design"} {
		root = append(root, f.get(name).self...)
	}
	m["serve.root_self_p50_ms"] = root.quantile(0.5)
	m["serve.root_self_p99_ms"] = tailOrZero(rep, "serve.root_self", root, 0.99)
	qw := f.get("queue.wait").dur
	m["serve.queue_wait_p50_ms"] = qw.quantile(0.5)
	m["serve.queue_wait_p99_ms"] = tailOrZero(rep, "serve.queue_wait", qw, 0.99)
	m["serve.flight_p99_ms"] = tailOrZero(rep, "serve.flight", f.get("flight").self, 0.99)
	for _, rr := range rungs {
		for code, n := range rr.rejected {
			m["serve.rejected_"+strconv.Itoa(code)] += float64(n)
		}
	}
	for _, code := range []string{"429", "503", "504"} {
		m["serve.rejected_"+code] += 0
	}
	engine := prov["computed"] + prov["coalesced"] + prov["delta"]
	m["serve.coalesced_ratio"] = ratio(float64(prov["coalesced"]), float64(engine))
	lk := f.get("cache.lookup")
	m["cdg.cache_lookup_p50_us"] = lk.self.quantile(0.5) * 1e3
	m["cdg.cache_lookup_count"] = float64(len(lk.self))
	m["cdg.cache_hit_ratio"] = ratio(lk.attrs["hit"], float64(len(lk.self)))
	for _, name := range []string{"cdg.edges", "cdg.kahn", "cdg.delta", "cdg.patch", "cdg.repeel"} {
		m[name+"_ms"] = f.get(name).self.mean()
	}
	for _, class := range []string{"hot", "cold", "delta", "graph", "batch", "design"} {
		lat := classLat[class]
		m["class."+class+".p50_ms"] = lat.quantile(0.5)
		m["class."+class+".p90_ms"] = tailOrZero(rep, "class."+class, lat, 0.9)
		rep.linef("serve-mix class %-7s %5d requests  p50 %8.3f ms  p90 %8.3f ms", class, len(lat), lat.quantile(0.5), lat.quantile(0.9))
	}
	m["client.transport_p50_ms"] = transport.quantile(0.5)
	m["loadgen.late_p99_ms"] = tailOrZero(rep, "loadgen.late", late, 0.99)
	m["loadgen.late_max_ms"] = late.quantile(1)
	m["unattributed_frac"] = ratio(f.unattributed(serveLayers), verdictSum)
	m["traced_verdicts"] = float64(nNominal)
	over, err := st.calibrate()
	if err != nil {
		return err
	}
	m["trace.overhead_frac"] = over
	rep.linef("serve-mix traced: the recorder kept a trace for every request; over the %d nominal-rung requests, verdict time %.1f ms = generator+connection wait %.1f ms (connection wait %.1f ms) + transport %.1f ms + server root spans %.1f ms",
		nNominal, verdictSum, lateSum+connSum, connSum, transportSum, verdictSum-lateSum-connSum-transportSum)
	rep.linef("serve-mix traced: provenance %v (coalesced ratio base: %d engine verdicts); cache lookups %d with %.0f hits",
		prov, engine, len(lk.self), lk.attrs["hit"])
	rep.linef("serve-mix traced: trace.overhead_frac from %d hot requests each to the traced and an untraced server", calibPairs)
	printFold(rep, f)
	return nil
}

// tailOrZero returns the tail quantile, or 0 with a report line when too
// few samples lie beyond it.
func tailOrZero(rep *report, what string, s samples, q float64) float64 {
	v, err := s.tail(what, q)
	if err != nil {
		rep.linef("serve-mix traced: %v; reported as 0", err)
		return 0
	}
	return v
}

// provenance extracts a response's provenance field without decoding
// the whole body.
func provenance(body []byte) string {
	_, after, ok := strings.Cut(string(body), `"provenance":"`)
	if !ok {
		return ""
	}
	p, _, _ := strings.Cut(after, `"`)
	return p
}

// calibrate sends hot requests alternately to the traced server and an
// untraced twin, in a closed loop, and returns the relative difference
// of their median latencies (a mean of 300 sub-millisecond requests
// moves with one collection pause).
func (st *serveSetup) calibrate() (float64, error) {
	var traced, plain samples
	for i := 0; i < calibPairs; i++ {
		r := st.warm[i%len(hotCases)]
		order := []bool{true, false}
		if i%2 == 1 {
			order = []bool{false, true}
		}
		for _, toTraced := range order {
			url, id := st.twinURL, ""
			if toTraced {
				url, id = st.url, "calib"+strconv.Itoa(i)
			}
			o := st.send(r, id, url)
			if o.err == nil {
				o.err = r.check(o.status, o.body)
			}
			if o.err != nil {
				return 0, fmt.Errorf("overhead calibration: %w", o.err)
			}
			if toTraced {
				traced = append(traced, ms(o.done.Sub(o.sent).Nanoseconds()))
			} else {
				plain = append(plain, ms(o.done.Sub(o.sent).Nanoseconds()))
			}
		}
	}
	if len(plain) == 0 {
		return 0, errors.New("overhead calibration: no untraced samples")
	}
	return ratio(traced.quantile(0.5), plain.quantile(0.5)) - 1, nil
}
