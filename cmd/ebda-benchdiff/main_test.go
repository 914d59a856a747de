package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebda/internal/ledger"
)

// deltaRows mirrors the rows ebda-deltabench writes.
func deltaRows() []ledger.Row {
	var rows []ledger.Row
	for _, c := range []struct {
		name     string
		ratio    float64
		maxRatio float64
	}{{"mesh8x8/single-link", 0.013, 0.05}, {"mesh8x8/turn-toggle", 0.65, 1}} {
		rows = append(rows,
			ledger.Row{Case: c.name, Metric: "full_ns", Value: 100000, Unit: "ns", Better: ledger.Lower},
			ledger.Row{Case: c.name, Metric: "ratio", Value: c.ratio, Unit: "ratio", Better: ledger.Lower}.WithLimit(c.maxRatio),
			ledger.Row{Case: c.name, Metric: "incremental", Value: 256, Unit: "count", Better: ledger.Higher}.WithLimit(1),
		)
	}
	return rows
}

// clusterRows mirrors the gated rows ebda-loadgen -cluster writes for
// 4 replicas.
func clusterRows() []ledger.Row {
	return []ledger.Row{
		ledger.Row{Case: "baseline", Metric: "status_5xx", Value: 0, Unit: "count", Better: ledger.Lower}.WithLimit(0),
		{Case: "cluster-modeled", Metric: "wall_s", Value: 0.024, Unit: "s", Better: ledger.Lower},
		ledger.Row{Case: "cluster-modeled", Metric: "aggregate_rps", Value: 33000, Unit: "1/s", Better: ledger.Higher}.WithBound(0.25, 0),
		ledger.Row{Case: "cluster-modeled", Metric: "scaling_x", Value: 3.67, Unit: "x", Better: ledger.Higher}.WithLimit(3),
		{Case: "cluster-measured", Metric: "wall_s", Value: 0.09, Unit: "s", Better: ledger.Lower},
		ledger.Row{Case: "cluster", Metric: "peer_hits", Value: 62, Unit: "count", Better: ledger.Higher}.WithLimit(1),
		ledger.Row{Case: "cluster", Metric: "forwards", Value: 33, Unit: "count", Better: ledger.Higher}.WithLimit(1),
		ledger.Row{Case: "cluster", Metric: "status_5xx", Value: 0, Unit: "count", Better: ledger.Lower}.WithLimit(0),
		ledger.Row{Case: "cluster", Metric: "agg_p99_ms", Value: 2.7, Unit: "ms", Better: ledger.Lower}.WithBound(0.25, 1),
	}
}

// set returns a copy of rows with case/metric's value replaced.
func set(rows []ledger.Row, cs, metric string, v float64) []ledger.Row {
	out := append([]ledger.Row(nil), rows...)
	for i := range out {
		if out[i].Case == cs && out[i].Metric == metric {
			out[i].Value = v
			return out
		}
	}
	panic("no row " + cs + " " + metric)
}

// drop returns a copy of rows without case/metric.
func drop(rows []ledger.Row, cs, metric string) []ledger.Row {
	var out []ledger.Row
	for _, r := range rows {
		if r.Case != cs || r.Metric != metric {
			out = append(out, r)
		}
	}
	return out
}

// writeRows writes rows as a snapshot into dir and returns the path.
func writeRows(t *testing.T, dir, name string, rows []ledger.Row) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := ledger.Write(path, rows); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiff is the one table over rows: every live gate has a case that
// fails once its limit or bound is crossed, and every skip guard has a
// case that holds.
func TestDiff(t *testing.T) {
	d, c := deltaRows(), clusterRows()
	for _, tc := range []struct {
		name        string
		base, fresh []ledger.Row
		want        int
		out         string
	}{
		{"delta_equal", d, d, 0, "every gate holds"},
		{"cluster_equal", c, c, 0, "every gate holds"},

		{"delta_single-link_ratio_at_limit", d, set(d, "mesh8x8/single-link", "ratio", 0.05), 0, "ok (limit 0.05)"},
		{"delta_single-link_ratio_above_limit", d, set(d, "mesh8x8/single-link", "ratio", 0.06), 1, "FAIL (limit 0.05"},
		{"delta_ratio_jitter_under_limit", d, set(d, "mesh8x8/single-link", "ratio", 0.04), 0, "every gate holds"},
		{"delta_ratio_above_1", d, set(d, "mesh8x8/turn-toggle", "ratio", 1.2), 1, "FAIL (limit 1"},
		{"delta_no_incremental", d, set(d, "mesh8x8/turn-toggle", "incremental", 0), 1, "FAIL (limit 1, higher is better)"},
		{"delta_limit_read_from_baseline", d,
			append(drop(d, "mesh8x8/single-link", "ratio"),
				ledger.Row{Case: "mesh8x8/single-link", Metric: "ratio", Value: 0.3, Unit: "ratio", Better: ledger.Lower}.WithLimit(0.5)),
			1, "FAIL (limit 0.05"},

		{"cluster_scaling_at_limit", c, set(c, "cluster-modeled", "scaling_x", 3), 0, "every gate holds"},
		{"cluster_scaling_below_limit", c, set(c, "cluster-modeled", "scaling_x", 2.9), 1, "FAIL (limit 3, higher is better)"},
		{"cluster_no_peer_hits", c, set(c, "cluster", "peer_hits", 0), 1, "cluster peer_hits"},
		{"cluster_no_forwards", c, set(c, "cluster", "forwards", 0), 1, "FAIL (limit 1"},
		{"cluster_5xx", c, set(c, "cluster", "status_5xx", 1), 1, "FAIL (limit 0, lower is better)"},
		{"cluster_baseline_5xx", c, set(c, "baseline", "status_5xx", 2), 1, "FAIL (limit 0"},
		{"cluster_p99_within_bound", c, set(c, "cluster", "agg_p99_ms", 3.3), 0, "ok (bound 25%)"},
		{"cluster_p99_beyond_bound", c, set(c, "cluster", "agg_p99_ms", 3.5), 1, "worse, bound 25%"},
		{"cluster_p99_baseline_below_floor", set(c, "cluster", "agg_p99_ms", 0.6), set(c, "cluster", "agg_p99_ms", 9), 0, "skip (baseline below 1 ms)"},
		{"cluster_p99_zero_baseline", set(c, "cluster", "agg_p99_ms", 0), set(c, "cluster", "agg_p99_ms", 9), 0, "skip (zero baseline)"},
		{"cluster_rps_within_bound", c, set(c, "cluster-modeled", "aggregate_rps", 26000), 0, "every gate holds"},
		{"cluster_rps_beyond_bound", c, set(c, "cluster-modeled", "aggregate_rps", 24000), 1, "27.3% worse"},
		{"cluster_rps_zero_baseline", set(c, "cluster-modeled", "aggregate_rps", 0), c, 0, "skip (zero baseline)"},
		{"cluster_modeled_wall_ungated", c, set(c, "cluster-modeled", "wall_s", 10), 0, "every gate holds"},

		{"gated_row_missing", c, drop(c, "cluster-modeled", "scaling_x"), 1, "gated row missing from the new snapshot"},
		{"ungated_row_missing", c, drop(c, "cluster-measured", "wall_s"), 0, "only in old snapshot"},
		{"row_only_in_new", drop(c, "cluster-measured", "wall_s"), c, 0, "only in new snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old := writeRows(t, dir, "old.json", tc.base)
			cur := writeRows(t, dir, "new.json", tc.fresh)
			var out, errw bytes.Buffer
			if code := run([]string{old, cur}, &out, &errw); code != tc.want {
				t.Fatalf("run = %d, want %d; stderr: %s\n%s", code, tc.want, errw.String(), out.String())
			}
			if !strings.Contains(out.String(), tc.out) {
				t.Errorf("output lacks %q:\n%s", tc.out, out.String())
			}
		})
	}
}

// TestCommittedSnapshotsLoad pins the committed baselines: they load
// under the reader, diff clean against themselves, and carry every live
// gate at its value.
func TestCommittedSnapshotsLoad(t *testing.T) {
	limit := func(v float64) *float64 { return &v }
	for _, f := range []struct {
		path  string
		gates []ledger.Row
	}{
		{"../../BENCH_delta.json", []ledger.Row{
			{Case: "mesh8x8/single-link", Metric: "ratio", Better: ledger.Lower, Limit: limit(0.05)},
			{Case: "mesh8x8/single-link", Metric: "incremental", Better: ledger.Higher, Limit: limit(1)},
			{Case: "mesh8x8/turn-toggle", Metric: "ratio", Better: ledger.Lower, Limit: limit(1)},
			{Case: "mesh8x8/turn-toggle", Metric: "incremental", Better: ledger.Higher, Limit: limit(1)},
		}},
		{"../../BENCH_cluster.json", []ledger.Row{
			{Case: "baseline", Metric: "status_5xx", Better: ledger.Lower, Limit: limit(0)},
			{Case: "cluster-modeled", Metric: "scaling_x", Better: ledger.Higher, Limit: limit(3)},
			{Case: "cluster-modeled", Metric: "aggregate_rps", Better: ledger.Higher, Bound: limit(0.25)},
			{Case: "cluster", Metric: "peer_hits", Better: ledger.Higher, Limit: limit(1)},
			{Case: "cluster", Metric: "forwards", Better: ledger.Higher, Limit: limit(1)},
			{Case: "cluster", Metric: "status_5xx", Better: ledger.Lower, Limit: limit(0)},
			{Case: "cluster", Metric: "agg_p99_ms", Better: ledger.Lower, Bound: limit(0.25), Floor: 1},
		}},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ledger.Read(data)
		if err != nil {
			t.Fatalf("%s: %v", f.path, err)
		}
		got := make(map[[2]string]ledger.Row)
		for _, r := range s.Rows {
			got[[2]string{r.Case, r.Metric}] = r
		}
		for _, want := range f.gates {
			r := got[[2]string{want.Case, want.Metric}]
			r.Value, r.Unit = 0, ""
			a, _ := json.Marshal(r)
			b, _ := json.Marshal(want)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: gate %s", f.path, a)
				t.Errorf("%s: want %s", f.path, b)
			}
		}
		var out, errw bytes.Buffer
		if code := run([]string{f.path, f.path}, &out, &errw); code != 0 {
			t.Errorf("%s against itself: run = %d\n%s%s", f.path, code, errw.String(), out.String())
		}
	}
}

// TestMalformedJSON checks load failures exit 2 and name the file.
func TestMalformedJSON(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeRows(t, dir, "good.json", deltaRows())
	var out, errw bytes.Buffer
	if code := run([]string{bad, good}, &out, &errw); code != 2 {
		t.Fatalf("malformed old: run = %d, want 2", code)
	}
	errw.Reset()
	if code := run([]string{good, bad}, &out, &errw); code != 2 {
		t.Fatalf("malformed new: run = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "bad.json") {
		t.Errorf("stderr does not name the malformed file: %s", errw.String())
	}
}

// TestUsageErrors checks that anything but two snapshot paths exits 2:
// the command takes no flags.
func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("no args: run = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "usage:") {
		t.Errorf("missing usage line: %s", errw.String())
	}
	if code := run([]string{"-threshold", "1.1"}, &out, &errw); code != 2 {
		t.Fatalf("flag: run = %d, want 2", code)
	}
	if code := run([]string{"only-one.json"}, &out, &errw); code != 2 {
		t.Fatalf("one arg: run = %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errw); code != 2 {
		t.Fatalf("missing files: run = %d, want 2", code)
	}
}

// rejectsOldKind writes doc, a snapshot in one of the schemas that
// predate the ledger, and checks that diffing it against a ledger
// snapshot of the same ground exits 2 and names the old file, whichever
// side it is on: a stale committed baseline never diffs as clean.
func rejectsOldKind(t *testing.T, doc string, rows []ledger.Row) {
	t.Helper()
	dir := t.TempDir()
	old := filepath.Join(dir, "old-kind.json")
	if err := os.WriteFile(old, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := writeRows(t, dir, "ledger.json", rows)
	for _, argv := range [][]string{{old, cur}, {cur, old}} {
		var out, errw bytes.Buffer
		if code := run(argv, &out, &errw); code != 2 {
			t.Fatalf("run(%v) = %d, want 2; stdout:\n%s", argv, code, out.String())
		}
		if !strings.Contains(errw.String(), "old-kind.json") || !strings.Contains(errw.String(), "unknown field") {
			t.Errorf("stderr does not reject the old-kind file: %s", errw.String())
		}
	}
}

// TestMixedKindsRejected: an engine snapshot (the retired
// BENCH_verify.json schema) does not load beside a ledger snapshot.
func TestMixedKindsRejected(t *testing.T) {
	rejectsOldKind(t, `{"go_version":"go1.22","num_cpu":8,"experiments":[{"id":"fig7","wall_seconds":1,"match":true}],`+
		`"cdg":[{"network":"16x16 mesh","channels":480,"wall_seconds":0.5}]}`, deltaRows())
}

// TestDeltaMixedKindsRejected: a delta snapshot of kind "delta" does not
// load beside a ledger delta snapshot.
func TestDeltaMixedKindsRejected(t *testing.T) {
	rejectsOldKind(t, `{"kind":"delta","go_version":"go1.24","cases":[{"name":"mesh8x8/single-link","ratio":0.02,"incremental":256}]}`,
		deltaRows())
}

// TestClusterMixedKindsRejected: a cluster snapshot of kind "cluster"
// does not load beside a ledger cluster snapshot.
func TestClusterMixedKindsRejected(t *testing.T) {
	rejectsOldKind(t, `{"kind":"cluster","go_version":"go1.24","replicas":4,"scaling_x":3.5,"peer_hits":60,"status_5xx":0}`,
		clusterRows())
}
