// Package ledger is the repository's one bench snapshot schema: an
// environment header plus rows of {case, metric, value, unit, better,
// limit | bound}. ebda-deltabench and ebda-loadgen -cluster write it
// through Write; ebda-benchdiff reads two snapshots with Read and holds
// the fresh one against the committed one.
//
// A row carries its own gate. Limit is absolute: a lower-is-better row
// holds while its value is at or below the limit, a higher-is-better row
// while it is at or above. Bound is relative to a baseline: the fresh
// value may be worse than the baseline value by at most that fraction
// (0.25 allows 25%), the word BENCHMARK.json uses for its end-to-end
// metrics. A bound is not judged against a baseline of 0, or below the
// row's Floor, where the number is timer noise. Value, Unit and Better
// mean what they mean in perfbench's reports.
package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Better values: the direction in which a row improves.
const (
	Higher = "higher"
	Lower  = "lower"
)

// Snapshot is one bench run: where it ran, then what it measured.
type Snapshot struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Rows        []Row  `json:"rows"`
}

// Row is one measurement. Case and Metric together identify it across
// snapshots. A row with neither Limit nor Bound is reported, never
// judged.
type Row struct {
	Case   string   `json:"case"`
	Metric string   `json:"metric"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better,omitempty"`
	Limit  *float64 `json:"limit,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
	// Floor is the smallest baseline value a Bound is judged against.
	Floor float64 `json:"floor,omitempty"`
}

// WithLimit returns r gated by the absolute limit v.
func (r Row) WithLimit(v float64) Row {
	r.Limit = &v
	return r
}

// WithBound returns r gated by the relative bound b, not judged against
// baselines below floor.
func (r Row) WithBound(b, floor float64) Row {
	r.Bound, r.Floor = &b, floor
	return r
}

// Holds reports whether v meets r's limit; a row without one holds.
func (r Row) Holds(v float64) bool {
	switch {
	case r.Limit == nil:
		return true
	case r.Better == Higher:
		return v >= *r.Limit
	default:
		return v <= *r.Limit
	}
}

// Write stamps rows with this process's environment and writes the
// snapshot to path as indented JSON.
func Write(path string, rows []Row) error {
	s := Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339), //ebda:allow detlint bench snapshots are stamped with real wall time by design
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Rows:        rows,
	}
	if err := s.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read parses a snapshot. Unknown fields, trailing data, an empty row
// list, a duplicate (case, metric), an unknown better word and a
// malformed gate are errors, so a file in another schema never diffs as
// an empty one.
func Read(data []byte) (Snapshot, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, err
	}
	if dec.More() {
		return Snapshot{}, errors.New("trailing data after the snapshot")
	}
	if err := s.validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

func (s Snapshot) validate() error {
	if len(s.Rows) == 0 {
		return errors.New("snapshot has no rows")
	}
	seen := make(map[[2]string]bool, len(s.Rows))
	for _, r := range s.Rows {
		id := [2]string{r.Case, r.Metric}
		switch {
		case r.Case == "" || r.Metric == "":
			return fmt.Errorf("row %q/%q: case and metric are required", r.Case, r.Metric)
		case seen[id]:
			return fmt.Errorf("row %s/%s appears twice", r.Case, r.Metric)
		case r.Better != "" && r.Better != Higher && r.Better != Lower:
			return fmt.Errorf("row %s/%s: better %q is neither %q nor %q", r.Case, r.Metric, r.Better, Higher, Lower)
		case (r.Limit != nil || r.Bound != nil) && r.Better == "":
			return fmt.Errorf("row %s/%s: a gated row needs better", r.Case, r.Metric)
		case r.Limit != nil && r.Bound != nil:
			return fmt.Errorf("row %s/%s: limit and bound are exclusive", r.Case, r.Metric)
		case r.Bound != nil && *r.Bound < 0:
			return fmt.Errorf("row %s/%s: negative bound", r.Case, r.Metric)
		case r.Bound == nil && r.Floor != 0:
			return fmt.Errorf("row %s/%s: floor without a bound", r.Case, r.Metric)
		}
		seen[id] = true
	}
	return nil
}
