package ledger

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteRead round-trips rows through the shared writer: the header
// is stamped and the gates survive.
func TestWriteRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	rows := []Row{
		Row{Case: "c", Metric: "ratio", Value: 0.01, Unit: "ratio", Better: Lower}.WithLimit(0.05),
		Row{Case: "c", Metric: "p99_ms", Value: 2, Unit: "ms", Better: Lower}.WithBound(0.25, 1),
		{Case: "c", Metric: "requests", Value: 800, Unit: "count"},
	}
	if err := Write(path, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.GeneratedAt == "" || s.GoVersion == "" || s.NumCPU < 1 || s.GoMaxProcs < 1 {
		t.Errorf("header not stamped: %+v", s)
	}
	if len(s.Rows) != 3 || *s.Rows[0].Limit != 0.05 || *s.Rows[1].Bound != 0.25 || s.Rows[1].Floor != 1 ||
		s.Rows[2].Limit != nil || s.Rows[2].Bound != nil {
		t.Errorf("rows did not round-trip: %+v", s.Rows)
	}
}

// TestHolds checks a limit in both directions; a row without one holds.
func TestHolds(t *testing.T) {
	lo := Row{Better: Lower}.WithLimit(0.05)
	hi := Row{Better: Higher}.WithLimit(3)
	if !lo.Holds(0.05) || lo.Holds(0.051) || !hi.Holds(3) || hi.Holds(2.99) || !(Row{}).Holds(1e9) {
		t.Error("limit direction wrong")
	}
}

// TestReadRejects checks that a file in another schema, or a malformed
// row, never loads; each rejected document is a subtest.
func TestReadRejects(t *testing.T) {
	row := `{"case":"c","metric":"m","value":1,"unit":"x"`
	for name, doc := range map[string]string{
		"old delta kind":      `{"kind":"delta","cases":[{"name":"x","ratio":0.01}]}`,
		"old cluster kind":    `{"kind":"cluster","replicas":4,"scaling_x":3.6}`,
		"no rows":             `{"generated_at":"t","rows":[]}`,
		"not json":            `{rows`,
		"trailing data":       `{"rows":[` + row + `}]} {}`,
		"unknown row field":   `{"rows":[` + row + `,"threshold":2}]}`,
		"missing metric":      `{"rows":[{"case":"c","value":1}]}`,
		"duplicate row":       `{"rows":[` + row + `},` + row + `}]}`,
		"bad better":          `{"rows":[` + row + `,"better":"up"}]}`,
		"gate without better": `{"rows":[` + row + `,"limit":1}]}`,
		"limit and bound":     `{"rows":[` + row + `,"better":"lower","limit":1,"bound":0.2}]}`,
		"negative bound":      `{"rows":[` + row + `,"better":"lower","bound":-0.2}]}`,
		"floor without bound": `{"rows":[` + row + `,"better":"lower","floor":1}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Read([]byte(doc)); err == nil {
				t.Errorf("Read accepted %s", doc)
			}
		})
	}
	if _, err := Read([]byte(`{"rows":[` + row + `,"better":"higher","limit":1}]}`)); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
	if err := Write(filepath.Join(t.TempDir(), "x.json"), nil); err == nil || !strings.Contains(err.Error(), "no rows") {
		t.Errorf("Write of no rows: %v", err)
	}
}
