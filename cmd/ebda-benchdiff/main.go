// Command ebda-benchdiff holds a fresh bench snapshot against a committed
// baseline. Both are ledger snapshots (internal/ledger): rows of {case,
// metric, value, unit, better, limit | bound}, matched by case and
// metric.
//
// Every gate is read from the baseline row, so loosening one is a diff
// to a committed file:
//
//   - limit: the fresh value must be at or below it (better "lower") or
//     at or above it (better "higher");
//   - bound: the fresh value may be worse than the baseline value by at
//     most that fraction; it is not judged when the baseline is 0 or
//     below the row's floor.
//
// A gated baseline row missing from the fresh snapshot fails. Ungated
// rows, and rows only one snapshot has, are printed and never fail.
//
// Usage:
//
//	ebda-benchdiff BENCH_delta.json BENCH_delta_new.json
//
// Exit status: 0 when every gate holds, 1 when one fails, 2 on usage or
// load errors.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"ebda/internal/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it performs the diff and returns the
// process exit status.
func run(argv []string, out, errw io.Writer) int {
	if len(argv) != 2 || strings.HasPrefix(argv[0], "-") || strings.HasPrefix(argv[1], "-") {
		fmt.Fprintln(errw, "usage: ebda-benchdiff OLD.json NEW.json")
		return 2
	}
	var snaps [2]ledger.Snapshot
	for i, path := range argv {
		data, err := os.ReadFile(path)
		if err == nil {
			snaps[i], err = ledger.Read(data)
		}
		if err != nil {
			fmt.Fprintf(errw, "ebda-benchdiff: %s: %v\n", path, err)
			return 2
		}
		s := snaps[i]
		fmt.Fprintf(out, "%s: %s (%s, %s, num_cpu %d, gomaxprocs %d)\n",
			[2]string{"old", "new"}[i], path, s.GeneratedAt, s.GoVersion, s.NumCPU, s.GoMaxProcs)
	}
	base, fresh := snaps[0], snaps[1]

	byID := make(map[[2]string]ledger.Row, len(fresh.Rows))
	for _, r := range fresh.Rows {
		byID[[2]string{r.Case, r.Metric}] = r
	}
	fails := 0
	for _, b := range base.Rows {
		id := [2]string{b.Case, b.Metric}
		f, ok := byID[id]
		delete(byID, id)
		status, failed := judge(b, f, ok)
		if failed {
			fails++
		}
		newVal := "-"
		if ok {
			newVal = fmt.Sprintf("%.4g", f.Value)
		}
		fmt.Fprintf(out, "  %-40s %12.4g -> %-12s %-6s %s\n", b.Case+" "+b.Metric, b.Value, newVal, b.Unit, status)
	}
	for _, f := range fresh.Rows {
		if _, ok := byID[[2]string{f.Case, f.Metric}]; ok {
			fmt.Fprintf(out, "  %-40s %12s -> %-12.4g %-6s only in new snapshot\n", f.Case+" "+f.Metric, "-", f.Value, f.Unit)
		}
	}
	if fails > 0 {
		fmt.Fprintf(out, "\n%d gate(s) failed\n", fails)
		return 1
	}
	fmt.Fprintln(out, "\nevery gate holds")
	return 0
}

// judge holds the fresh row f (present when ok) to the gate of its
// baseline row b and returns the status to print and whether it failed.
func judge(b, f ledger.Row, ok bool) (string, bool) {
	gated := b.Limit != nil || b.Bound != nil
	switch {
	case !ok && gated:
		return "FAIL (gated row missing from the new snapshot)", true
	case !ok:
		return "only in old snapshot", false
	case b.Limit != nil:
		if !b.Holds(f.Value) {
			return fmt.Sprintf("FAIL (limit %g, %s is better)", *b.Limit, b.Better), true
		}
		return fmt.Sprintf("ok (limit %g)", *b.Limit), false
	case b.Bound == nil:
		return "", false
	case b.Value <= 0:
		return "skip (zero baseline)", false
	case b.Value < b.Floor:
		return fmt.Sprintf("skip (baseline below %g %s)", b.Floor, b.Unit), false
	}
	worse := (f.Value - b.Value) / b.Value
	if b.Better == ledger.Higher {
		worse = -worse
	}
	if worse > *b.Bound {
		return fmt.Sprintf("FAIL (%.1f%% worse, bound %g%%)", worse*100, *b.Bound*100), true
	}
	return fmt.Sprintf("ok (bound %g%%)", *b.Bound*100), false
}
