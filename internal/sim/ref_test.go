package sim

import "ebda/internal/channel"

// This file keeps the cycle loop the per-cycle cost rewrite replaced, as
// the reference the differential tests in oracle_test.go hold the
// current loop to. The functions are the replaced ones verbatim, renamed
// with a ref prefix: every router scanned every cycle, switch requests
// gathered per output port, candidates recomputed on every allocation
// attempt, and FIFOs popped by reslicing. They run on the same Simulator
// state, sharing inject, deliver, creditUpstream, result and diagnose;
// srcHead stays zero on this path because refPopFront reslices srcQ
// instead of advancing it.

// refRun is the replaced cycle loop behind Run.
func (s *Simulator) refRun() Result {
	total := s.cfg.Warmup + s.cfg.Measure + s.cfg.Drain
	for s.cycle = 0; s.cycle < total; s.cycle++ {
		if s.cycle < s.cfg.Warmup+s.cfg.Measure {
			s.inject()
		}
		s.refAllocate()
		moved := s.refTraverse()
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

// refAllocate performs RC + VC allocation for every input VC (and source
// queue) whose front flit is an unassigned head.
func (s *Simulator) refAllocate() {
	for _, r := range s.routers {
		for p := 0; p < s.ports; p++ {
			d, sign := portDir(p)
			for v := range r.in[p] {
				ivc := &r.in[p][v]
				if ivc.assigned || len(ivc.buf) == 0 || !ivc.buf[0].head {
					continue
				}
				in := channel.NewVC(d, sign, v+1)
				s.refTryAllocate(r, ivc, &in, ivc.buf[0].pkt, wholePacketBuffered(ivc.buf), p, v, false)
			}
		}
		if !r.src.assigned && len(r.srcQ) > 0 && r.srcQ[0].head {
			s.refTryAllocate(r, &r.src, nil, r.srcQ[0].pkt, true, 0, 0, true)
		}
	}
}

// refTryAllocate runs the routing function and claims a free downstream VC
// according to the selection policy. inPort/inVCIdx/fromSrc identify the
// requesting input for holder tracking. pkt is the packet being routed and
// wholePresent reports whether all its flits are buffered locally (always
// true at injection); VCT and SAF gate allocation on packet length.
func (s *Simulator) refTryAllocate(r *router, ivc *inVC, in *channel.Class, pkt *packetInfo, wholePresent bool, inPort, inVCIdx int, fromSrc bool) {
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
	cands := s.cfg.Alg.Candidates(s.net, r.id, in, dst)
	type option struct {
		port, vc, credits int
	}
	var opts []option
	for _, c := range cands {
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
	ovc.holderPort = int16(inPort)
	ovc.holderVC = int16(inVCIdx)
	ovc.holderSrc = fromSrc
	ivc.assigned = true
	ivc.outPort = int16(pick.port)
	ivc.outVC = int16(pick.vc)
}

// refTraverse performs switch allocation and link/ejection traversal; it
// returns whether any flit moved.
func (s *Simulator) refTraverse() bool {
	moved := false
	measuring := s.cycle >= s.cfg.Warmup && s.cycle < s.cfg.Warmup+s.cfg.Measure
	for _, r := range s.routers {
		// Each output port (plus ejection) accepts one flit per cycle,
		// arbitrated round-robin over requesting input VCs.
		for op := 0; op <= s.ports; op++ {
			reqs := s.refRequesters(r, op)
			if len(reqs) == 0 {
				continue
			}
			idx := r.saPtr[op] % len(reqs)
			winner := reqs[idx]
			r.saPtr[op] = idx + 1
			f, fromSrc := s.refPopFront(r, winner)
			moved = true
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
		} else {
			kept = append(kept, a)
		}
	}
	s.pending = kept
	return moved
}

// refRequesters collects the ready inputs for an output port.
func (s *Simulator) refRequesters(r *router, op int) []requester {
	var out []requester
	eject := op == s.ejectPort()
	for p := 0; p < s.ports; p++ {
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			if !ivc.assigned || int(ivc.outPort) != op || len(ivc.buf) == 0 {
				continue
			}
			if ivc.buf[0].ready > s.cycle {
				continue // still in the router pipeline
			}
			if !eject && r.out[op][ivc.outVC].credits <= 0 {
				continue
			}
			out = append(out, requester{port: p, vcIn: v, vc: int(ivc.outVC)})
		}
	}
	if r.src.assigned && int(r.src.outPort) == op && len(r.srcQ) > 0 {
		if eject || r.out[op][r.src.outVC].credits > 0 {
			out = append(out, requester{src: true, vc: int(r.src.outVC)})
		}
	}
	return out
}

// refPopFront removes the front flit of the winning input and resets its
// assignment on tail.
func (s *Simulator) refPopFront(r *router, w requester) (flit, bool) {
	if w.src {
		f := r.srcQ[0]
		r.srcQ = r.srcQ[1:]
		if f.tail {
			r.src.assigned = false
		}
		return f, true
	}
	ivc := &r.in[w.port][w.vcIn]
	f := ivc.buf[0]
	ivc.buf = ivc.buf[1:]
	if f.tail {
		ivc.assigned = false
	}
	return f, false
}
