package main

import "testing"

// TestQuantile pins the nearest-rank quantile behind the printed and
// cluster-row latencies.
func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	one := []float64{7}
	if q := quantile(one, 0.99); q != 7 {
		t.Fatalf("single-sample p99 = %v", q)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("p50 of 1..5 = %v, want 3", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Fatalf("p100 of 1..5 = %v, want 5", q)
	}
}
