// Package sim is a flit-level wormhole network simulator with
// credit-based virtual-channel flow control — the switching substrate the
// paper assumes (Assumption 1). Routers implement the classic RC/VA/SA/ST
// stages: route computation for head flits, virtual-channel allocation
// against downstream buffer state, per-output switch arbitration
// (round-robin), and single-flit-per-link traversal.
//
// The simulator deliberately honours the paper's relaxed wormhole
// assumptions: buffers may hold flits of multiple packets (a new packet's
// head may sit behind the previous packet's tail in the same VC FIFO), and
// packets have arbitrary length. A deadlock watchdog reports global lack
// of progress, which lets the test suite demonstrate that EbDa-derived
// designs never deadlock while cyclic turn sets do.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/routing"
	"ebda/internal/stats"
	"ebda/internal/topology"
	"ebda/internal/traffic"
)

// Switching selects the packet switching technique (the paper's
// Assumption 1 covers all three: the deadlock-freedom proof for wormhole
// carries over to VCT and SAF).
type Switching int

// Switching techniques.
const (
	// Wormhole forwards flits as soon as the next buffer has any space
	// (the default).
	Wormhole Switching = iota
	// VirtualCutThrough forwards the head only when the downstream
	// buffer can hold the entire packet.
	VirtualCutThrough
	// StoreAndForward additionally waits until the whole packet has
	// arrived at the current router before requesting the next hop.
	StoreAndForward
)

// String names the technique.
func (s Switching) String() string {
	switch s {
	case VirtualCutThrough:
		return "vct"
	case StoreAndForward:
		return "saf"
	default:
		return "wormhole"
	}
}

// Selection chooses among the routing algorithm's candidate output
// channels during VC allocation.
type Selection int

// Selection policies.
const (
	// SelectRandom picks uniformly among allocatable candidates (the
	// default).
	SelectRandom Selection = iota
	// SelectFirst takes the first allocatable candidate in the order the
	// routing algorithm returned them.
	SelectFirst
	// SelectCredits picks the allocatable candidate with the most
	// downstream credits (congestion-aware, as in DyXY).
	SelectCredits
)

// Config parameterises one simulation run.
type Config struct {
	// Net is the topology; Alg the routing algorithm under test.
	Net *topology.Network
	Alg routing.Algorithm
	// VCs is the per-dimension virtual channel count (default all 1).
	VCs []int
	// BufferDepth is the per-VC input buffer capacity in flits
	// (default 4).
	BufferDepth int
	// PacketLen is the packet length in flits (default 5).
	PacketLen int
	// InjectionRate is the offered load in flits per node per cycle.
	InjectionRate float64
	// Pattern picks packet destinations (default uniform random).
	Pattern traffic.Pattern
	// Seed makes runs reproducible.
	Seed int64
	// Warmup, Measure and Drain are the phase lengths in cycles
	// (defaults 1000, 4000, 2000).
	Warmup, Measure, Drain int
	// DeadlockThreshold aborts the run after this many cycles without
	// any flit movement while flits remain in flight (default 1000).
	DeadlockThreshold int
	// Selection is the VC selection policy (default SelectRandom).
	Selection Selection
	// LinkLatency is the cycles a flit spends on a link (default 1).
	LinkLatency int
	// Switching selects wormhole (default), virtual cut-through or
	// store-and-forward. VCT and SAF raise BufferDepth to the longest
	// packet if needed.
	Switching Switching
	// LongPacketLen and LongFraction mix in long packets (Assumption 2:
	// arbitrary lengths): each generated packet is LongPacketLen flits
	// with probability LongFraction, PacketLen otherwise.
	LongPacketLen int
	LongFraction  float64
	// RouterLatency is the router pipeline depth in cycles: a flit
	// becomes eligible for switch traversal this many cycles after it
	// arrives (default 1 = single-cycle routers).
	RouterLatency int
	// Trace, when non-empty, replaces the stochastic traffic generator:
	// each entry injects one packet at its cycle. Entries must be sorted
	// by cycle. InjectionRate and Pattern are ignored.
	Trace []traffic.TraceEntry
}

func (c *Config) setDefaults() {
	if c.BufferDepth == 0 {
		c.BufferDepth = 4
	}
	if c.PacketLen == 0 {
		c.PacketLen = 5
	}
	if c.Pattern == nil {
		c.Pattern = traffic.Uniform{}
	}
	if c.Warmup == 0 {
		c.Warmup = 1000
	}
	if c.Measure == 0 {
		c.Measure = 4000
	}
	if c.Drain == 0 {
		c.Drain = 2000
	}
	if c.DeadlockThreshold == 0 {
		c.DeadlockThreshold = 1000
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 1
	}
	if c.RouterLatency == 0 {
		c.RouterLatency = 1
	}
	if c.Switching != Wormhole {
		longest := c.PacketLen
		if c.LongPacketLen > longest {
			longest = c.LongPacketLen
		}
		if c.BufferDepth < longest {
			c.BufferDepth = longest
		}
	}
	if c.VCs == nil {
		c.VCs = make([]int, c.Net.Dims())
		for i := range c.VCs {
			c.VCs[i] = 1
		}
	}
}

// Result summarises a run.
type Result struct {
	// Cycles actually simulated.
	Cycles int
	// InjectedPackets / DeliveredPackets over the whole run.
	InjectedPackets, DeliveredPackets int
	// MeasuredPackets is the number of packets generated during the
	// measurement window and delivered by the end of the run.
	MeasuredPackets int
	// AvgLatency is the mean packet latency (generation to tail
	// ejection) over measured packets, in cycles.
	AvgLatency float64
	// P50Latency, P95Latency and P99Latency are latency percentiles over
	// measured packets; MaxLatency is the worst observed.
	P50Latency, P95Latency, P99Latency, MaxLatency int
	// Throughput is the delivered traffic of the packets generated
	// during the measurement window, in flits per node per measured
	// cycle: their flits count whenever they are ejected, drain
	// included.
	Throughput float64
	// LatencyStd is the standard deviation of measured packet latencies.
	LatencyStd float64
	// Fairness is Jain's fairness index over per-source delivered
	// packets in the measurement window: 1 = perfectly fair, 1/N = one
	// source monopolises the network. Zero when nothing was measured.
	Fairness float64
	// LinkLoad summarises how evenly measured traffic spread over the
	// physical links (max/mean ratio and Gini coefficient).
	LinkLoad stats.LoadImbalance
	// Deadlocked reports that the watchdog fired; StuckFlits counts the
	// flits in flight at that moment, and DeadlockTrace holds a
	// human-readable wait cycle extracted from the wedged network.
	Deadlocked    bool
	StuckFlits    int
	DeadlockTrace string
}

// String renders the result on one line.
func (r Result) String() string {
	if r.Deadlocked {
		return fmt.Sprintf("DEADLOCK after %d cycles (%d flits stuck)", r.Cycles, r.StuckFlits)
	}
	return fmt.Sprintf("latency %.1f cycles (p99 %d), throughput %.4f flits/node/cycle, %d/%d packets delivered",
		r.AvgLatency, r.P99Latency, r.Throughput, r.DeliveredPackets, r.InjectedPackets)
}

type packetInfo struct {
	id       int
	src, dst topology.NodeID
	gen      int
	length   int
	measured bool
}

type flit struct {
	pkt        *packetInfo
	head, tail bool
	// ready is the first cycle the flit may traverse the switch (models
	// the router pipeline depth).
	ready int
}

// inVC is one input virtual-channel FIFO plus its route assignment for the
// packet currently at its front. port and vc locate it on its router, and
// cls is its channel class, the input class the routing function sees.
// cands memoises the routing function's answer for candFor, the head it
// was computed for: a head blocked for many cycles is routed once.
type inVC struct {
	buf      []flit
	assigned bool
	outPort  int16
	outVC    int16
	port, vc int16
	cls      channel.Class
	candFor  *packetInfo
	cands    []channel.Class
}

// outVC tracks one downstream virtual channel: whether a packet currently
// holds it and how many buffer slots remain. The holder's input location
// (on the same router) is recorded for deadlock diagnosis.
type outVC struct {
	held    bool
	credits int
	// holderPort/holderVC locate the input VC whose packet holds this
	// output; holderSrc marks the source queue instead.
	holderPort int16
	holderVC   int16
	holderSrc  bool
}

// router is one node's switching state.
type router struct {
	id topology.NodeID
	// vcs holds every input VC in (port, VC) order; in[p] is port p's
	// slice of it.
	vcs      []inVC
	in       [][]inVC // [port][vc]
	out      [][]outVC
	hasOut   []bool
	neighbor []topology.NodeID
	// upstream[p] is the router feeding input port p, when hasUp[p].
	// Recorded explicitly (rather than looked up via the reverse link)
	// because credit return is control signaling tied to the forward
	// link: with unidirectional link faults the reverse data link may
	// not exist even though the forward one does.
	upstream []topology.NodeID
	hasUp    []bool
	// srcQ[srcHead:] is the source queue; popping advances srcHead so
	// the backing array is reused.
	srcQ    []flit
	srcHead int
	src     inVC // assignment state for the source queue front
	saPtr   []int
	// buffered counts the flits in the input VC FIFOs; a router with
	// none and an empty source queue has nothing to do this cycle.
	buffered int
}

// idle reports whether the router holds no flit at all.
func (r *router) idle() bool { return r.buffered == 0 && r.srcHead == len(r.srcQ) }

// srcLen is the number of flits in the source queue.
func (r *router) srcLen() int { return len(r.srcQ) - r.srcHead }

// Simulator runs one configuration.
type Simulator struct {
	cfg     Config
	net     *topology.Network
	rng     *rand.Rand
	routers []*router
	ports   int // directional ports per router (2 * dims)

	cycle        int
	nextPacketID int
	inFlight     int
	lastProgress int

	injected, delivered int
	injectedFlits       int
	deliveredFlits      int
	latencies           []int
	measuredFlits       int
	traceIdx            int
	deliveredBySrc      []int
	// Per-stage work counts, folded into the process counters by
	// recordObs: routing-function calls (one per head, however long it
	// waits), switch requests bucketed and flits moved through a switch.
	headsRouted, requestsBucketed, flitsMoved int
	// linkLoad counts measured-window flit traversals per (router,
	// output port); pending holds in-flight link traversals when
	// LinkLatency > 1.
	linkLoad []int
	pending  []arrival
	// reqs buckets one router's switch requests by output port (the
	// ejection port last); opts holds one allocation's allocatable
	// candidates. Both are scratch reused across routers and cycles.
	reqs [][]requester
	opts []option
}

// Replicated aggregates independent runs of the same configuration under
// different seeds.
type Replicated struct {
	Runs int
	// Latency and Throughput are streams over per-run means; use Mean()
	// and Std() for confidence reporting.
	Latency, Throughput stats.Stream
	// Deadlocks counts runs the watchdog aborted.
	Deadlocks int
}

// String renders mean +/- std for both metrics.
func (r Replicated) String() string {
	if r.Deadlocks > 0 {
		return fmt.Sprintf("%d/%d runs deadlocked", r.Deadlocks, r.Runs)
	}
	return fmt.Sprintf("latency %.1f±%.1f cycles, throughput %.4f±%.4f flits/node/cycle (%d runs)",
		r.Latency.Mean(), r.Latency.Std(), r.Throughput.Mean(), r.Throughput.Std(), r.Runs)
}

// RunSeeds executes the configuration under seeds cfg.Seed .. cfg.Seed+n-1
// and aggregates the results, running the seeds concurrently on every
// available core.
func RunSeeds(cfg Config, n int) Replicated { return RunSeedsJobs(cfg, n, 0) }

// RunSeedsJobs is RunSeeds over a bounded worker pool (jobs <= 0 means all
// cores). Each seed is an independent simulation with its own RNG; results
// are collected by seed index and folded into the streams in seed order, so
// the aggregate is bit-identical for every jobs value (Welford streams are
// order-sensitive). The routing algorithm in cfg is shared across workers
// and must be safe for concurrent Candidates calls — every algorithm in
// this repository is.
func RunSeedsJobs(cfg Config, n, jobs int) Replicated {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	results := make([]Result, n)
	if jobs <= 1 {
		sp := phaseSeeds.Start()
		for i := 0; i < n; i++ {
			c := cfg
			c.Seed = cfg.Seed + int64(i)
			results[i] = New(c).Run()
		}
		sp.End()
	} else {
		var wg sync.WaitGroup
		wg.Add(jobs)
		for w := 0; w < jobs; w++ {
			go func(w int) {
				defer wg.Done()
				sp := phaseSeeds.StartWorker(w)
				for i := w; i < n; i += jobs {
					c := cfg
					c.Seed = cfg.Seed + int64(i)
					results[i] = New(c).Run()
				}
				sp.End()
			}(w)
		}
		wg.Wait()
	}
	rep := Replicated{Runs: n}
	for _, res := range results {
		if res.Deadlocked {
			rep.Deadlocks++
			continue
		}
		rep.Latency.Add(res.AvgLatency)
		rep.Throughput.Add(res.Throughput)
	}
	return rep
}

// New builds a simulator for the configuration.
func New(cfg Config) *Simulator {
	cfg.setDefaults()
	s := &Simulator{
		cfg:   cfg,
		net:   cfg.Net,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		ports: 2 * cfg.Net.Dims(),
	}
	s.routers = make([]*router, cfg.Net.Nodes())
	// Every input VC FIFO gets BufferDepth slots of one shared array:
	// credits keep a FIFO from holding more, so appends never reallocate.
	vcsPerRouter := 0
	for p := 0; p < s.ports; p++ {
		d, _ := portDir(p)
		vcsPerRouter += cfg.VCs[d]
	}
	depth := cfg.BufferDepth
	slots := make([]flit, len(s.routers)*vcsPerRouter*depth)
	inVCs := make([]inVC, len(s.routers)*vcsPerRouter)
	for id := range s.routers {
		r := &router{id: topology.NodeID(id), vcs: inVCs[:vcsPerRouter:vcsPerRouter]}
		inVCs = inVCs[vcsPerRouter:]
		r.in = make([][]inVC, s.ports)
		r.out = make([][]outVC, s.ports)
		r.hasOut = make([]bool, s.ports)
		r.neighbor = make([]topology.NodeID, s.ports)
		r.upstream = make([]topology.NodeID, s.ports)
		r.hasUp = make([]bool, s.ports)
		r.saPtr = make([]int, s.ports+1) // +1 for the ejection port
		off := 0
		for p := 0; p < s.ports; p++ {
			d, sign := portDir(p)
			vcs := cfg.VCs[d]
			r.in[p] = r.vcs[off : off+vcs : off+vcs]
			off += vcs
			for v := range r.in[p] {
				ivc := &r.in[p][v]
				ivc.port, ivc.vc = int16(p), int16(v)
				ivc.cls = channel.NewVC(d, sign, v+1)
				ivc.buf = slots[:0:depth]
				slots = slots[depth:]
			}
			r.out[p] = make([]outVC, vcs)
			for v := range r.out[p] {
				r.out[p][v].credits = cfg.BufferDepth
			}
			if to, _, ok := cfg.Net.Neighbor(topology.NodeID(id), d, sign); ok {
				r.hasOut[p] = true
				r.neighbor[p] = to
			}
		}
		s.routers[id] = r
	}
	s.reqs = make([][]requester, s.ports+1)
	s.linkLoad = make([]int, len(s.routers)*s.ports)
	s.deliveredBySrc = make([]int, len(s.routers))
	// Wire upstream feeders from forward links: the input port p of the
	// downstream router is fed by exactly the router whose output port p
	// points at it.
	for _, r := range s.routers {
		for p := 0; p < s.ports; p++ {
			if !r.hasOut[p] {
				continue
			}
			down := s.routers[r.neighbor[p]]
			down.upstream[p] = r.id
			down.hasUp[p] = true
		}
	}
	return s
}

// portDir maps a directional port index to (dimension, sign): even ports
// are positive, odd negative.
func portDir(p int) (channel.Dim, channel.Sign) {
	d := channel.Dim(p / 2)
	if p%2 == 0 {
		return d, channel.Plus
	}
	return d, channel.Minus
}

// dirPort is the inverse of portDir.
func dirPort(d channel.Dim, s channel.Sign) int {
	p := 2 * int(d)
	if s == channel.Minus {
		p++
	}
	return p
}

// ejectPort is the pseudo output port index for local delivery.
func (s *Simulator) ejectPort() int { return s.ports }

// LinkLoads returns, after Run, the measured-window flit counts of every
// physical link in Links() order (for heatmaps and load analysis).
func (s *Simulator) LinkLoads() []int {
	var out []int
	for id, r := range s.routers {
		for op := 0; op < s.ports; op++ {
			if r.hasOut[op] {
				out = append(out, s.linkLoad[id*s.ports+op])
			}
		}
	}
	return out
}

// NodeLoad returns, after Run, the total measured flit traversals leaving
// each node (summed over its output links) — a per-node congestion view.
func (s *Simulator) NodeLoad() []int {
	out := make([]int, len(s.routers))
	for id := range s.routers {
		for op := 0; op < s.ports; op++ {
			out[id] += s.linkLoad[id*s.ports+op]
		}
	}
	return out
}

// Run executes the configured warmup/measure/drain phases and returns the
// result. The watchdog may end the run early on deadlock.
func (s *Simulator) Run() Result {
	sp := phaseRun.Start()
	res := s.run()
	s.recordObs(res)
	sp.End()
	return res
}

// run is the cycle loop behind Run, free of observability bookkeeping.
func (s *Simulator) run() Result {
	total := s.cfg.Warmup + s.cfg.Measure + s.cfg.Drain
	for s.cycle = 0; s.cycle < total; s.cycle++ {
		if s.cycle < s.cfg.Warmup+s.cfg.Measure {
			s.inject()
		}
		s.allocate()
		moved := s.traverse()
		if moved {
			s.lastProgress = s.cycle
		}
		if s.inFlight > 0 && s.cycle-s.lastProgress > s.cfg.DeadlockThreshold {
			res := s.result(true)
			res.DeadlockTrace = s.diagnose()
			return res
		}
	}
	return s.result(false)
}

func (s *Simulator) result(deadlocked bool) Result {
	res := Result{
		Cycles:           s.cycle,
		InjectedPackets:  s.injected,
		DeliveredPackets: s.delivered,
		MeasuredPackets:  len(s.latencies),
		Deadlocked:       deadlocked,
		StuckFlits:       s.inFlight,
		Throughput:       float64(s.measuredFlits) / float64(s.net.Nodes()) / float64(s.cfg.Measure),
	}
	if len(s.latencies) > 0 {
		var stream stats.Stream
		for _, l := range s.latencies {
			stream.Add(float64(l))
		}
		res.AvgLatency = stream.Mean()
		res.LatencyStd = stream.Std()
		sorted := append([]int(nil), s.latencies...)
		sort.Ints(sorted)
		res.P50Latency = sorted[len(sorted)*50/100]
		res.P95Latency = sorted[len(sorted)*95/100]
		res.P99Latency = sorted[len(sorted)*99/100]
		res.MaxLatency = sorted[len(sorted)-1]
	}
	// Only count ports with physical links in the imbalance metric.
	var loads []int
	for id, r := range s.routers {
		for op := 0; op < s.ports; op++ {
			if r.hasOut[op] {
				loads = append(loads, s.linkLoad[id*s.ports+op])
			}
		}
	}
	res.LinkLoad = stats.Imbalance(loads)
	// Jain's fairness index over per-source measured deliveries.
	var sum, sumSq float64
	for _, d := range s.deliveredBySrc {
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	if sumSq > 0 {
		res.Fairness = sum * sum / (float64(len(s.deliveredBySrc)) * sumSq)
	}
	return res
}

// meanPacketLen returns the expected packet length of the configured mix.
func (s *Simulator) meanPacketLen() float64 {
	if s.cfg.LongPacketLen <= 0 || s.cfg.LongFraction <= 0 {
		return float64(s.cfg.PacketLen)
	}
	return float64(s.cfg.PacketLen)*(1-s.cfg.LongFraction) +
		float64(s.cfg.LongPacketLen)*s.cfg.LongFraction
}

// pickLen draws a packet length from the configured mix.
func (s *Simulator) pickLen() int {
	if s.cfg.LongPacketLen > 0 && s.rng.Float64() < s.cfg.LongFraction {
		return s.cfg.LongPacketLen
	}
	return s.cfg.PacketLen
}

// inject generates new packets — from the trace when one is configured,
// otherwise per the Bernoulli process — and appends their flits to source
// queues.
func (s *Simulator) inject() {
	if len(s.cfg.Trace) > 0 {
		for s.traceIdx < len(s.cfg.Trace) && s.cfg.Trace[s.traceIdx].Cycle <= s.cycle {
			e := s.cfg.Trace[s.traceIdx]
			s.traceIdx++
			if e.Src == e.Dst || e.Src < 0 || e.Dst < 0 || int(e.Src) >= s.net.Nodes() || int(e.Dst) >= s.net.Nodes() {
				continue
			}
			length := e.Len
			if length <= 0 {
				length = s.cfg.PacketLen
			}
			s.enqueuePacket(e.Src, e.Dst, length)
		}
		return
	}
	pktProb := s.cfg.InjectionRate / s.meanPacketLen()
	for id := range s.routers {
		if s.rng.Float64() >= pktProb {
			continue
		}
		src := topology.NodeID(id)
		dst := s.cfg.Pattern.Dest(s.net, src, s.rng)
		if dst == src {
			continue
		}
		s.enqueuePacket(src, dst, s.pickLen())
	}
}

// enqueuePacket appends one packet's flits to the source queue.
func (s *Simulator) enqueuePacket(src, dst topology.NodeID, length int) {
	s.nextPacketID++
	pkt := &packetInfo{
		id: s.nextPacketID, src: src, dst: dst, gen: s.cycle,
		length:   length,
		measured: s.cycle >= s.cfg.Warmup && s.cycle < s.cfg.Warmup+s.cfg.Measure,
	}
	r := s.routers[src]
	if r.srcHead > 0 && len(r.srcQ)+length > cap(r.srcQ) {
		// Slide the queued flits to the front rather than grow.
		r.srcQ = r.srcQ[:copy(r.srcQ, r.srcQ[r.srcHead:])]
		r.srcHead = 0
	}
	for i := 0; i < length; i++ {
		r.srcQ = append(r.srcQ, flit{
			pkt:  pkt,
			head: i == 0,
			tail: i == length-1,
		})
	}
	s.injected++
	s.injectedFlits += length
	s.inFlight += length
}

// allocate performs RC + VC allocation for every input VC (and source
// queue) whose front flit is an unassigned head. Idle routers are
// skipped; they have nothing to route and draw no random numbers.
//
//ebda:hotpath
func (s *Simulator) allocate() {
	for _, r := range s.routers {
		if r.buffered > 0 {
			for i := range r.vcs {
				ivc := &r.vcs[i]
				if ivc.assigned || len(ivc.buf) == 0 || !ivc.buf[0].head {
					continue
				}
				s.tryAllocate(r, ivc, ivc.buf[0].pkt, wholePacketBuffered(ivc.buf), false)
			}
		}
		if !r.src.assigned && r.srcLen() > 0 && r.srcQ[r.srcHead].head {
			s.tryAllocate(r, &r.src, r.srcQ[r.srcHead].pkt, true, true)
		}
	}
}

// option is one allocatable candidate output VC.
type option struct {
	port, vc, credits int
}

// tryAllocate runs the routing function and claims a free downstream VC
// for the input ivc according to the selection policy. fromSrc marks ivc
// as the source queue, which routes with a nil input class. pkt is the
// packet being routed and wholePresent reports whether all its flits are
// buffered locally (always true at injection); VCT and SAF gate
// allocation on packet length. The candidate list is computed once per
// head and reused while it waits (Candidates is a pure function of its
// arguments).
//
//ebda:hotpath
func (s *Simulator) tryAllocate(r *router, ivc *inVC, pkt *packetInfo, wholePresent, fromSrc bool) {
	dst := pkt.dst
	if dst == r.id {
		ivc.assigned = true
		ivc.outPort = int16(s.ejectPort())
		return
	}
	minCredits := 1
	switch s.cfg.Switching {
	case VirtualCutThrough:
		minCredits = pkt.length
	case StoreAndForward:
		minCredits = pkt.length
		if !wholePresent {
			return
		}
	}
	if ivc.candFor != pkt {
		in := &ivc.cls
		if fromSrc {
			in = nil
		}
		ivc.cands = s.cfg.Alg.Candidates(s.net, r.id, in, dst)
		ivc.candFor = pkt
		s.headsRouted++
	}
	opts := s.opts[:0]
	for _, c := range ivc.cands {
		p := dirPort(c.Dim, c.Sign)
		if p >= s.ports || !r.hasOut[p] || c.VC-1 >= len(r.out[p]) {
			continue
		}
		ovc := &r.out[p][c.VC-1]
		if ovc.held || ovc.credits < minCredits {
			continue
		}
		opts = append(opts, option{port: p, vc: c.VC - 1, credits: ovc.credits})
	}
	s.opts = opts
	if len(opts) == 0 {
		return
	}
	var pick option
	switch s.cfg.Selection {
	case SelectRandom:
		pick = opts[s.rng.Intn(len(opts))]
	case SelectCredits:
		pick = opts[0]
		for _, o := range opts[1:] {
			if o.credits > pick.credits {
				pick = o
			}
		}
	default:
		pick = opts[0]
	}
	ovc := &r.out[pick.port][pick.vc]
	ovc.held = true
	ovc.holderPort = ivc.port
	ovc.holderVC = ivc.vc
	ovc.holderSrc = fromSrc
	ivc.assigned = true
	ivc.outPort = int16(pick.port)
	ivc.outVC = int16(pick.vc)
}

// wholePacketBuffered reports whether the front packet's tail flit is in
// the buffer (flits of a packet are contiguous in FIFO order).
func wholePacketBuffered(buf []flit) bool {
	if len(buf) == 0 {
		return false
	}
	pkt := buf[0].pkt
	for _, f := range buf {
		if f.pkt != pkt {
			return false
		}
		if f.tail {
			return true
		}
	}
	return false
}

// arrival is a staged link traversal, applied once its delivery cycle is
// reached (LinkLatency cycles after the send).
type arrival struct {
	to   topology.NodeID
	port int
	vc   int
	at   int
	f    flit
}

// traverse performs switch allocation and link/ejection traversal; it
// returns whether any flit moved. Routers are processed in ID order and
// each one's requests are collected when it is reached, so credits
// returned by routers earlier in the same cycle are already visible.
//
//ebda:hotpath
func (s *Simulator) traverse() bool {
	moved := false
	measuring := s.cycle >= s.cfg.Warmup && s.cycle < s.cfg.Warmup+s.cfg.Measure
	for _, r := range s.routers {
		if r.idle() {
			continue
		}
		s.collectRequests(r)
		// Each output port (plus ejection) accepts one flit per cycle,
		// arbitrated round-robin over requesting input VCs.
		for op, reqs := range s.reqs {
			if len(reqs) == 0 {
				continue
			}
			idx := r.saPtr[op] % len(reqs)
			winner := reqs[idx]
			r.saPtr[op] = idx + 1
			f, fromSrc := s.popFront(r, winner)
			moved = true
			s.flitsMoved++
			if op == s.ejectPort() {
				s.deliver(f)
			} else {
				ovc := &r.out[op][winner.vc]
				ovc.credits--
				if f.tail {
					ovc.held = false
				}
				if measuring {
					s.linkLoad[int(r.id)*s.ports+op]++
				}
				s.pending = append(s.pending, arrival{
					to: r.neighbor[op], port: op, vc: winner.vc,
					at: s.cycle + s.cfg.LinkLatency - 1, f: f,
				})
			}
			// Return a credit upstream for the freed buffer slot.
			if !fromSrc {
				s.creditUpstream(r, winner.port, winner.vcIn)
			}
		}
	}
	// Deliver link traversals that complete this cycle; the flit then
	// spends RouterLatency cycles in the downstream pipeline before it
	// may traverse that switch.
	kept := s.pending[:0]
	for _, a := range s.pending {
		if a.at <= s.cycle {
			a.f.ready = s.cycle + s.cfg.RouterLatency
			s.routers[a.to].in[a.port][a.vc].buf = append(s.routers[a.to].in[a.port][a.vc].buf, a.f)
			s.routers[a.to].buffered++
		} else {
			kept = append(kept, a)
		}
	}
	s.pending = kept
	return moved
}

// requester identifies one input VC (or the source queue) ready to send
// through an output port.
type requester struct {
	src  bool
	port int // input port (when !src)
	vcIn int // input VC (when !src)
	vc   int // allocated output VC (meaningless for ejection)
}

// collectRequests walks the router's inputs once and buckets the ready
// ones into s.reqs by output port. Within a bucket requesters are in
// (input port, VC) order with the source queue last, the order the
// round-robin pointers index. Serving one output port changes no other
// port's requests (an input requests one port, and a port's credits move
// only when it sends), so the buckets stay valid for the whole router.
//
//ebda:hotpath
func (s *Simulator) collectRequests(r *router) {
	for op := range s.reqs {
		s.reqs[op] = s.reqs[op][:0]
	}
	eject := s.ejectPort()
	if r.buffered > 0 {
		for i := range r.vcs {
			ivc := &r.vcs[i]
			if !ivc.assigned || len(ivc.buf) == 0 || ivc.buf[0].ready > s.cycle {
				continue // unrouted, empty, or still in the router pipeline
			}
			op := int(ivc.outPort)
			if op != eject && r.out[op][ivc.outVC].credits <= 0 {
				continue
			}
			s.reqs[op] = append(s.reqs[op], requester{port: int(ivc.port), vcIn: int(ivc.vc), vc: int(ivc.outVC)})
			s.requestsBucketed++
		}
	}
	if r.src.assigned && r.srcLen() > 0 {
		op := int(r.src.outPort)
		if op == eject || r.out[op][r.src.outVC].credits > 0 {
			s.reqs[op] = append(s.reqs[op], requester{src: true, vc: int(r.src.outVC)})
			s.requestsBucketed++
		}
	}
}

// popFront removes the front flit of the winning input and resets its
// assignment on tail. Input FIFOs shift down in place and the source
// queue advances its head, so neither loses capacity.
//
//ebda:hotpath
func (s *Simulator) popFront(r *router, w requester) (flit, bool) {
	if w.src {
		f := r.srcQ[r.srcHead]
		r.srcHead++
		if r.srcHead == len(r.srcQ) {
			r.srcQ, r.srcHead = r.srcQ[:0], 0
		}
		if f.tail {
			r.src.assigned = false
		}
		return f, true
	}
	ivc := &r.in[w.port][w.vcIn]
	f := ivc.buf[0]
	ivc.buf = ivc.buf[:copy(ivc.buf, ivc.buf[1:])]
	r.buffered--
	if f.tail {
		ivc.assigned = false
	}
	return f, false
}

// creditUpstream returns one credit to the upstream router's output VC
// feeding the given input.
func (s *Simulator) creditUpstream(r *router, port, vc int) {
	if !r.hasUp[port] {
		return
	}
	s.routers[r.upstream[port]].out[port][vc].credits++
}

// deliver consumes an ejected flit and records statistics on tails.
func (s *Simulator) deliver(f flit) {
	s.inFlight--
	s.deliveredFlits++
	if f.pkt.measured {
		s.measuredFlits++
	}
	if !f.tail {
		return
	}
	s.delivered++
	if f.pkt.measured {
		s.latencies = append(s.latencies, s.cycle-f.pkt.gen)
		s.deliveredBySrc[f.pkt.src]++
	}
}
