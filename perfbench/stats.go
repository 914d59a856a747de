package main

import (
	"fmt"
	"math"
	"sort"
)

const (
	// minTail is how many samples must lie beyond a percentile before it
	// is reported.
	minTail = 10
	// Closed loops run whole passes over their deck until they have
	// minPasses passes and minVerdicts ops ...
	minPasses   = 5
	minVerdicts = 1000
	// ... but never past this many times -seconds.
	maxStretch = 3
)

// samples is a set of measurements (milliseconds unless stated).
type samples []float64

// enough reports whether q (in (0, 1)) has at least minTail samples
// beyond it.
func (s samples) enough(q float64) bool {
	return float64(len(s))*(1-q) >= minTail
}

// quantile returns the nearest-rank q-quantile; the caller checks enough
// first where the tail rule applies.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// tail returns the q-quantile, or an error naming the shortfall when
// fewer than minTail samples lie beyond it.
func (s samples) tail(what string, q float64) (float64, error) {
	if !s.enough(q) {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", what, len(s), minTail, q*100)
	}
	return s.quantile(q), nil
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func median(v []float64) float64 { return samples(v).quantile(0.5) }

// ratio returns num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration in nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// passTimes keeps a closed loop's op times by pass, each pass one run
// over the workload's fixed deck. Throughput and the median are taken per
// pass and reported as the median over passes, so a stall of the shared
// host moves one pass, not the run; p99 pools every pass, where the tail
// rule finds its samples. Whole passes weigh every deck entry the same.
type passTimes struct {
	passes []samples
}

// closedLoop runs op, one caller, over whole passes of a deck of n
// entries until the measuring period is over with at least minPasses
// passes and minVerdicts ops, or maxStretch times the period has passed.
// op gets the op's running index (its deck entry is the index modulo n)
// and returns the milliseconds it timed.
func closedLoop(cfg config, n int, op func(i int) float64) *passTimes {
	pt := &passTimes{}
	start := now()
	for i := 0; ; {
		el := since(start)
		if (el >= cfg.measure() && len(pt.passes) >= minPasses && pt.count() >= minVerdicts) || el >= maxStretch*cfg.measure() {
			return pt
		}
		p := make(samples, n)
		for j := range p {
			p[j] = op(i)
			i++
		}
		pt.passes = append(pt.passes, p)
	}
}

func (p *passTimes) count() int { return len(p.all()) }

func (p *passTimes) all() samples {
	var all samples
	for _, s := range p.passes {
		all = append(all, s...)
	}
	return all
}

// perPass returns the median over passes of f.
func (p *passTimes) perPass(f func(s samples) float64) float64 {
	var v []float64
	for _, s := range p.passes {
		v = append(v, f(s))
	}
	return median(v)
}

// rate returns ops per second of op time: the median over passes.
func (p *passTimes) rate() float64 {
	return p.perPass(func(s samples) float64 { return ratio(float64(len(s)), s.sum()/1e3) })
}

// p50 returns the median over passes of each pass's median op time.
func (p *passTimes) p50() float64 {
	return p.perPass(func(s samples) float64 { return s.quantile(0.5) })
}

// tail returns the q-quantile over every pass under the tail rule.
func (p *passTimes) tail(what string, q float64) (float64, error) { return p.all().tail(what, q) }
