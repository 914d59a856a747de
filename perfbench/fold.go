package main

import (
	"sort"
	"strconv"

	"ebda/internal/obs/trace"
)

// spanRec is one recorded span: start and duration in microseconds, and
// the ID of its parent ("" or an ID outside the trace for a root).
type spanRec struct {
	id, parent, name string
	start, dur       int64
	attrs            []trace.AttrJSON
}

// spansOf converts an exported trace into span records.
func spansOf(tj trace.TraceJSON) []spanRec {
	out := make([]spanRec, len(tj.Spans))
	for i, s := range tj.Spans {
		out[i] = spanRec{id: s.ID, parent: s.Parent, name: s.Name, start: s.StartMicros, dur: s.DurMicros, attrs: s.Attrs}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Children may overlap each other (concurrent work under one parent) or
// run past their parent; neither is counted twice or outside it.
func selfTimes(spans []spanRec) []int64 {
	children := make(map[string][]int, len(spans))
	for i, s := range spans {
		children[s.parent] = append(children[s.parent], i)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		lo, hi := s.start, s.start+s.dur
		var iv [][2]int64
		for _, c := range children[s.id] {
			a, b := spans[c].start, spans[c].start+spans[c].dur
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		covered, end := int64(0), lo
		for _, v := range iv {
			if v[0] > end {
				end = v[0]
			}
			if v[1] > end {
				covered += v[1] - end
				end = v[1]
			}
		}
		self[i] = s.dur - covered
	}
	return self
}

// layerAgg accumulates one span name's self-times (milliseconds) and
// durations.
type layerAgg struct {
	self samples
	dur  samples
	// attrs totals each numeric attribute over the name's spans.
	attrs map[string]float64
}

// fold maps span names to their accumulated self-times.
type fold map[string]*layerAgg

// add folds one trace's spans in.
func (f fold) add(spans []spanRec) {
	self := selfTimes(spans)
	for i, s := range spans {
		a := f[s.name]
		if a == nil {
			a = &layerAgg{}
			f[s.name] = a
		}
		a.self = append(a.self, float64(self[i])/1e3)
		a.dur = append(a.dur, float64(s.dur)/1e3)
		for _, at := range s.attrs {
			if v, err := strconv.ParseFloat(at.Value, 64); err == nil {
				if a.attrs == nil {
					a.attrs = map[string]float64{}
				}
				a.attrs[at.Key] += v
			}
		}
	}
}

// get returns a name's aggregate, empty when the name never occurred.
func (f fold) get(name string) *layerAgg {
	if a := f[name]; a != nil {
		return a
	}
	return &layerAgg{}
}

// selfSum totals the self-time of the named spans in milliseconds.
func (f fold) selfSum(names ...string) float64 {
	t := 0.0
	for _, n := range names {
		t += f.get(n).self.sum()
	}
	return t
}

// unattributed totals the self-time of spans whose names are not
// layers: the harness's own op span and any span name no layer claims.
func (f fold) unattributed(layers map[string]bool) float64 {
	t := 0.0
	for name, a := range f {
		if !layers[name] {
			t += a.self.sum()
		}
	}
	return t
}

// tracer records the benchmark's own spans around the public calls of
// the closed-loop workloads. Traces are folded as each op finishes and
// never retained, so memory stays flat however many ops a run makes.
type tracer struct {
	tr *trace.Tracer
	f  fold
}

func newTracer() *tracer {
	return &tracer{
		tr: trace.New(trace.Config{Fragment: "bench", SlowThreshold: -1, Recorder: trace.NewRecorder(1, 1)}),
		f:  fold{},
	}
}

// start opens an op's root span; a nil tracer hands back a nil trace,
// whose spans are no-ops.
func (t *tracer) start(root string) *trace.Trace {
	if t == nil {
		return nil
	}
	return t.tr.Start(root)
}

// finish folds the op's spans into the tracer's fold.
func (t *tracer) finish(tc *trace.Trace) {
	if tc == nil {
		return
	}
	tc.Retain()
	tc.Finish(200)
	t.f.add(spansOf(tc.Export()))
	tc.Release()
}
