package cdg

import (
	"testing"

	"ebda/internal/core"
	"ebda/internal/topology"
)

// buildBenchShapes are the construction-layer benchmark shapes: the
// largest 2D and 3D meshes of the verify-cold workload, each with a
// chain that uses every VC it is given.
func buildBenchShapes() []struct {
	name string
	net  *topology.Network
	vcs  VCConfig
	ts   *core.TurnSet
} {
	return []struct {
		name string
		net  *topology.Network
		vcs  VCConfig
		ts   *core.TurnSet
	}{
		{"mesh64x64-2vc", topology.NewMesh(64, 64), Uniform(2, 2),
			core.MustParseChain("PA[X1* Y1+ Y2+] -> PB[X2* Y1- Y2-]").AllTurns()},
		{"mesh16x16x16", topology.NewMesh(16, 16, 16), nil,
			core.MustParseChain("PA[X1- Y1- Z1-] -> PB[X1+ Y1+ Z1+]").AllTurns()},
	}
}

// Benchmark results land here so the measured calls cannot be elided.
var (
	benchGraph  *Graph
	benchReport Report
)

// BenchmarkNewGraph times channel enumeration alone: the channel table,
// head/tail indices, tail index and channel kinds.
func BenchmarkNewGraph(b *testing.B) {
	for _, s := range buildBenchShapes() {
		s.net.Links()
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = NewGraph(s.net, s.vcs)
			}
		})
	}
}

// BenchmarkVerifyTurnSetFirstContact times a verification in a fresh
// workspace — what a pool miss costs: NewGraph, the first arena fill and
// the first peel.
func BenchmarkVerifyTurnSetFirstContact(b *testing.B) {
	for _, s := range buildBenchShapes() {
		s.net.Links()
		s.ts.Matrix()
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchReport = NewWorkspace(s.net, s.vcs).VerifyTurnSetJobs(s.ts, 1)
			}
		})
	}
}

// BenchmarkVerifyTurnSetPooled times a verification in a retained
// workspace: kind masks, edge construction into the reused arena, and
// the peel.
func BenchmarkVerifyTurnSetPooled(b *testing.B) {
	for _, s := range buildBenchShapes() {
		s.ts.Matrix()
		ws := NewWorkspace(s.net, s.vcs)
		ws.VerifyTurnSetJobs(s.ts, 1)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchReport = ws.VerifyTurnSetJobs(s.ts, 1)
			}
		})
	}
}
