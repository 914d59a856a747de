// Command ebda-deltabench measures the incremental delta verification
// path against the from-scratch path and writes the delta rows
// (BENCH_delta.json, a ledger snapshot) that ebda-benchdiff gates across
// commits.
//
// Each case replays a family of single-element diffs — one removed link
// or one disabled turn per verification — against a retained
// cdg.DeltaWorkspace, and replays the same diffs the pre-delta way
// (derive the perturbed design, verify from scratch through the pooled
// engine). Each case's rows are the mean per-diff cost of both paths and
// their ratio, plus the incremental/fallback split so a run that
// silently fell back to full peels is visible. The rows carry the gates:
// the single-link ratio at most 0.05 (incremental re-verification at
// most 5% of a from-scratch one), every other ratio at most 1, and at
// least one incremental verification per case. Before timing, every
// distinct diff's delta verdict is checked against the from-scratch
// verdict; a divergence is a correctness bug and exits 1.
//
// Usage:
//
//	ebda-deltabench -out BENCH_delta.json
//	ebda-deltabench -rounds 512 -jobs 2 -out ""
//
// Exit status: 0 on success, 1 when a delta verdict diverges from the
// from-scratch verdict, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/ledger"
	"ebda/internal/obs"
	"ebda/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchCase is one perturbation family: a diff sequence, the
// from-scratch computation of each diff's verdict and the limit on the
// delta/full ratio.
type benchCase struct {
	name     string
	net      *topology.Network
	vcs      cdg.VCConfig
	ts       *core.TurnSet
	diffs    []cdg.Diff
	full     func(cdg.Diff) cdg.Report
	maxRatio float64
}

// caseResult is one case's measurement.
type caseResult struct {
	fullNS, deltaNS, ratio float64
	incremental, fallbacks uint64
}

func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ebda-deltabench", flag.ContinueOnError)
	fs.SetOutput(errw)
	outPath := fs.String("out", "BENCH_delta.json", "snapshot path (empty disables)")
	rounds := fs.Int("rounds", 256, "verifications measured per case and path")
	jobs := fs.Int("jobs", 1, "intra-verification parallelism")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(errw, "usage: ebda-deltabench [-rounds 256] [-jobs 1] [-out BENCH_delta.json]")
		return 2
	}
	if *rounds < 1 || *jobs < 0 {
		fmt.Fprintln(errw, "ebda-deltabench: -rounds must be positive and -jobs non-negative")
		return 2
	}

	rows := []ledger.Row{
		{Case: "workload", Metric: "rounds", Value: float64(*rounds), Unit: "count"},
		{Case: "workload", Metric: "jobs", Value: float64(*jobs), Unit: "count"},
	}
	for _, c := range cases() {
		res, err := measure(c, *rounds, *jobs)
		if err != nil {
			fmt.Fprintln(errw, "ebda-deltabench:", err)
			return 1
		}
		rows = append(rows,
			ledger.Row{Case: c.name, Metric: "full_ns", Value: res.fullNS, Unit: "ns", Better: ledger.Lower},
			ledger.Row{Case: c.name, Metric: "delta_ns", Value: res.deltaNS, Unit: "ns", Better: ledger.Lower},
			ledger.Row{Case: c.name, Metric: "ratio", Value: res.ratio, Unit: "ratio", Better: ledger.Lower}.WithLimit(c.maxRatio),
			ledger.Row{Case: c.name, Metric: "incremental", Value: float64(res.incremental), Unit: "count", Better: ledger.Higher}.WithLimit(1),
			ledger.Row{Case: c.name, Metric: "fallbacks", Value: float64(res.fallbacks), Unit: "count", Better: ledger.Lower},
		)
		fmt.Fprintf(out, "%-24s full %10.0f ns  delta %8.0f ns  ratio %6.4f  (incremental %d, fallback %d)\n",
			c.name, res.fullNS, res.deltaNS, res.ratio, res.incremental, res.fallbacks)
	}

	if *outPath != "" {
		if err := ledger.Write(*outPath, rows); err != nil {
			fmt.Fprintln(errw, "ebda-deltabench:", err)
			return 2
		}
		fmt.Fprintf(errw, "ebda-deltabench: snapshot written to %s\n", *outPath)
	}
	return 0
}

// cases builds the measured perturbation families: the tentpole claim is
// the 8x8-mesh single-link case; the turn-toggle case keeps the other
// diff family honest.
func cases() []benchCase {
	net := topology.NewMesh(8, 8)
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	ts := chain.AllTurns()
	vcs := cdg.VCConfigFor(net.Dims(), chain.Channels())

	links := net.Links()
	linkDiffs := make([]cdg.Diff, len(links))
	for i, l := range links {
		linkDiffs[i] = cdg.Diff{RemoveLinks: []topology.Link{l}}
	}
	turns := ts.Turns()
	turnDiffs := make([]cdg.Diff, len(turns))
	for i, t := range turns {
		turnDiffs[i] = cdg.Diff{DisableTurns: []core.Turn{t}}
	}

	return []benchCase{
		{
			name: "mesh8x8/single-link", net: net, vcs: vcs, ts: ts, diffs: linkDiffs, maxRatio: 0.05,
			full: func(d cdg.Diff) cdg.Report {
				return cdg.VerifyTurnSetJobs(net.WithoutLinks(d.RemoveLinks), vcs, ts, 1)
			},
		},
		{
			name: "mesh8x8/turn-toggle", net: net, vcs: vcs, ts: ts, diffs: turnDiffs, maxRatio: 1,
			full: func(d cdg.Diff) cdg.Report {
				reduced := ts.Clone()
				for _, t := range d.DisableTurns {
					reduced.Remove(t.From, t.To)
				}
				return cdg.VerifyTurnSetJobs(net, vcs, reduced, 1)
			},
		},
	}
}

// measure checks every distinct diff for delta/full agreement, then times
// both paths over the same rotating diff sequence.
func measure(c benchCase, rounds, jobs int) (caseResult, error) {
	dw, err := cdg.NewDeltaWorkspace(c.net, c.vcs, c.ts)
	if err != nil {
		return caseResult{}, fmt.Errorf("%s: %v", c.name, err)
	}
	fulls := make([]cdg.Report, len(c.diffs))
	for i, d := range c.diffs {
		fulls[i] = c.full(d)
		got, err := dw.VerifyDiffJobs(d, jobs)
		if err != nil {
			return caseResult{}, fmt.Errorf("%s diff %d: %v", c.name, i, err)
		}
		if !reportsEqual(got, fulls[i]) {
			return caseResult{}, fmt.Errorf(
				"%s diff %d: delta verdict diverges from from-scratch verdict:\n delta %v\n  full %v",
				c.name, i, got, fulls[i])
		}
	}

	before := counterVals()
	t0 := time.Now() //ebda:allow detlint benchmarks measure wall time by design
	for i := 0; i < rounds; i++ {
		if _, err := dw.VerifyDiffJobs(c.diffs[i%len(c.diffs)], jobs); err != nil {
			return caseResult{}, fmt.Errorf("%s: %v", c.name, err)
		}
	}
	deltaNS := float64(time.Since(t0).Nanoseconds()) / float64(rounds) //ebda:allow detlint benchmarks measure wall time by design
	after := counterVals()

	t0 = time.Now() //ebda:allow detlint benchmarks measure wall time by design
	for i := 0; i < rounds; i++ {
		if rep := c.full(c.diffs[i%len(c.diffs)]); rep.Channels == 0 {
			return caseResult{}, fmt.Errorf("%s: empty from-scratch report", c.name)
		}
	}
	fullNS := float64(time.Since(t0).Nanoseconds()) / float64(rounds) //ebda:allow detlint benchmarks measure wall time by design

	res := caseResult{
		fullNS:      fullNS,
		deltaNS:     deltaNS,
		incremental: after["ebda_cdg_delta_incremental_total"] - before["ebda_cdg_delta_incremental_total"],
		fallbacks:   after["ebda_cdg_delta_fallbacks_total"] - before["ebda_cdg_delta_fallbacks_total"],
	}
	if fullNS > 0 {
		res.ratio = deltaNS / fullNS
	}
	return res, nil
}

// reportsEqual compares everything a verdict exposes, including the
// rendered cycle witness.
func reportsEqual(a, b cdg.Report) bool {
	return a.Network == b.Network && a.Channels == b.Channels &&
		a.Edges == b.Edges && a.Acyclic == b.Acyclic &&
		cdg.FormatCycle(a.Cycle) == cdg.FormatCycle(b.Cycle)
}

// counterVals snapshots the default registry's counters by name.
func counterVals() map[string]uint64 {
	s := obs.Default.Snapshot()
	out := make(map[string]uint64, len(s.Counters))
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	return out
}
