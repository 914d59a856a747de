package cdg

import (
	"context"
	"runtime"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs/trace"
	"ebda/internal/topology"
)

// Workspace owns a dependency graph plus all the scratch one verification
// needs — the per-kind class masks, the row arenas and the Kahn/DFS state
// — so repeated verifications on the same (network, VC configuration)
// shape reset buffers instead of reallocating them. The channel table,
// head/tail indices and channel kinds depend only on the shape and are
// built once; only the adjacency rows change between turn sets, and every
// turn-set build carves them afresh from the retained arenas.
//
// A Workspace is single-verification at a time: its methods must not be
// called concurrently (the verification itself still fans out over the
// worker pool internally). Use a WorkspacePool to share workspaces across
// goroutines.
type Workspace struct {
	g     *Graph
	st    acyclicState
	build turnScratch
}

// NewWorkspace builds a workspace for one network shape.
func NewWorkspace(net *topology.Network, vcs VCConfig) *Workspace {
	return &Workspace{g: NewGraph(net, vcs)}
}

// Graph returns the workspace's graph. It reflects the most recent
// verification; Reset or another verification invalidates its edges.
func (ws *Workspace) Graph() *Graph { return ws.g }

// Reset removes every dependency edge, keeping the channel table for the
// next build. Each row is truncated to its own capped slice: a row carved
// from an arena keeps capacity only inside its own region, so a routing
// merge into a reset row can never write into another row, and the next
// turn-set build reassigns every row before it reuses the arena.
func (ws *Workspace) Reset() {
	for i, row := range ws.g.adj {
		ws.g.adj[i] = row[:0]
	}
	ws.g.edges = 0
}

// report runs the acyclicity fast path on the current graph and assembles
// the Report. The Cycle channels are value copies, so the report stays
// valid after the workspace is reset or reused. Cancellation between Kahn
// rounds returns ctx's error and a zero Report — a cancelled verification
// never yields a verdict.
func (ws *Workspace) report(ctx context.Context, jobs int) (Report, error) {
	g := ws.g
	var cyc []Channel
	sp := phaseAcycl.Start()
	peeled, err := g.kahnPeel(ctx, jobs, &ws.st)
	if err != nil {
		sp.End()
		return Report{}, err
	}
	if peeled != len(g.channels) {
		obsResidualDFS.Inc()
		cyc = g.findCycleResidual(&ws.st)
	}
	sp.End()
	obsVerifies.Inc()
	if cyc != nil {
		obsVerifyCyclic.Inc()
	}
	return Report{
		Network:  g.net.String(),
		Channels: g.NumChannels(),
		Edges:    g.NumEdges(),
		Acyclic:  cyc == nil,
		Cycle:    cyc,
	}, nil
}

// VerifyTurnSetCtx resets the workspace, builds the dependency graph of
// the turn set and checks acyclicity (jobs <= 0 means all cores), honouring
// ctx: cancellation is observed before the build and between Kahn rounds,
// and returns ctx's error with a zero Report. A completed report is
// bit-identical to the unpooled path for every jobs value. The workspace
// stays reusable after a cancelled run — every buffer is re-zeroed by the
// next verification.
//
//ebda:hotpath
func (ws *Workspace) VerifyTurnSetCtx(ctx context.Context, ts *core.TurnSet, jobs int) (Report, error) {
	if err := ctx.Err(); err != nil {
		obsVerifyCancelled.Inc()
		return Report{}, err
	}
	tc := trace.FromContext(ctx)
	vsp := tc.StartSpan("cdg.verify")
	sp := phaseVerify.Start()
	ws.Reset()
	tesp := tc.StartSpan("cdg.edges")
	esp := phaseEdges.Start()
	ws.g.addTurnEdges(ts, jobs, &ws.build)
	esp.End()
	tesp.SetInt("edges", int64(ws.g.NumEdges()))
	tesp.End()
	rep, err := ws.report(ctx, jobs)
	sp.End()
	vsp.SetInt("channels", int64(rep.Channels))
	if rep.Acyclic {
		vsp.SetInt("acyclic", 1)
	} else {
		vsp.SetInt("acyclic", 0)
	}
	vsp.End()
	return rep, err
}

// VerifyTurnSetJobs is VerifyTurnSetCtx without a deadline.
//
//ebda:hotpath
func (ws *Workspace) VerifyTurnSetJobs(ts *core.TurnSet, jobs int) Report {
	rep, _ := ws.VerifyTurnSetCtx(context.Background(), ts, jobs)
	return rep
}

// VerifyRelationJobs resets the workspace, builds the dependency graph of
// a routing relation and checks acyclicity (jobs <= 0 means all cores).
// name overrides the report's Network field when non-empty (routing
// verifications label reports "network / algorithm").
func (ws *Workspace) VerifyRelationJobs(route RoutingRelation, name string, jobs int) Report {
	ws.Reset()
	ws.g.AddRoutingEdgesJobs(route, jobs)
	rep, _ := ws.report(context.Background(), jobs)
	if name != "" {
		rep.Network = name
	}
	return rep
}

// poolKey identifies a workspace shape: the network (by identity —
// geometry is immutable after build) and a digest of the effective
// per-dimension VC counts, so VCConfigs that differ only in
// representation (nil vs explicit ones, trailing defaults) share
// workspaces. The digest is not trusted alone: Get checks each candidate's
// VC counts, so a collision costs a fresh build, never a wrong workspace.
type poolKey struct {
	net *topology.Network
	vcs uint64
}

// shapeKey derives the pool key of a (network, VC configuration) shape.
func shapeKey(net *topology.Network, vcs VCConfig) poolKey {
	h := uint64(0x9e3779b97f4a7c15)
	for d := 0; d < net.Dims(); d++ {
		h = mix64(h ^ uint64(vcs.VCs(channel.Dim(d))))
	}
	return poolKey{net, h}
}

// sameVCs reports whether two VC configurations give every dimension of
// the network the same VC count.
func sameVCs(net *topology.Network, a, b VCConfig) bool {
	for d := 0; d < net.Dims(); d++ {
		if a.VCs(channel.Dim(d)) != b.VCs(channel.Dim(d)) {
			return false
		}
	}
	return true
}

// WorkspacePool is a goroutine-safe free list of workspaces keyed by
// shape. Get returns a pooled workspace or builds a fresh one; Put
// returns it for reuse. Growth is bounded: each shape keeps at most
// GOMAXPROCS idle workspaces, and when the number of distinct shapes
// exceeds maxPoolKeys the pool is cleared wholesale (an epoch flush —
// correctness never depends on pool contents).
type WorkspacePool struct {
	mu   sync.Mutex
	free map[poolKey][]*Workspace
}

// maxPoolKeys bounds the number of distinct shapes the pool retains.
const maxPoolKeys = 64

// DefaultPool is the process-wide workspace pool used by VerifyTurnSet
// and the verification cache.
var DefaultPool = &WorkspacePool{}

// Get returns a workspace for the shape, reusing a pooled one when
// available.
func (p *WorkspacePool) Get(net *topology.Network, vcs VCConfig) *Workspace {
	obsPoolGets.Inc()
	key := shapeKey(net, vcs)
	p.mu.Lock()
	list := p.free[key]
	for i := len(list) - 1; i >= 0; i-- {
		ws := list[i]
		if !sameVCs(net, ws.g.vcs, vcs) {
			continue
		}
		last := len(list) - 1
		list[i] = list[last]
		list[last] = nil
		p.free[key] = list[:last]
		p.mu.Unlock()
		obsPoolReuses.Inc()
		return ws
	}
	p.mu.Unlock()
	return NewWorkspace(net, vcs)
}

// Put returns a workspace to the pool. The caller must not use it (or any
// Graph obtained from it) afterwards.
func (p *WorkspacePool) Put(ws *Workspace) {
	obsPoolPuts.Inc()
	key := shapeKey(ws.g.net, ws.g.vcs)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[poolKey][]*Workspace)
	}
	if _, ok := p.free[key]; !ok && len(p.free) >= maxPoolKeys {
		obsPoolFlushes.Inc()
		p.free = make(map[poolKey][]*Workspace)
	}
	if list := p.free[key]; len(list) < runtime.GOMAXPROCS(0) {
		p.free[key] = append(list, ws)
	}
}
