package main

import (
	"math"
	"testing"
)

func TestHistQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	cases := []struct {
		counts []uint64
		q      float64
		want   float64
	}{
		{[]uint64{0, 0, 0, 0}, 0.99, 0},
		{[]uint64{98, 1, 1, 0}, 0.99, 2}, // rank 99 falls in [1,2)
		{[]uint64{98, 1, 1, 0}, 0.5, 1},  // upper edge of the first bucket
		{[]uint64{0, 0, 0, 5}, 0.99, 4},  // open top bucket: its lower edge
		{[]uint64{10, 0, 0, 0}, 1, 1},
	}
	for _, c := range cases {
		if got := histQuantile(c.counts, buckets, c.q); got != c.want {
			t.Errorf("histQuantile(%v, %v) = %v, want %v", c.counts, c.q, got, c.want)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median(xs[:4]); got != 3 {
		t.Errorf("median of 5,1,4,2 = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Error("empty input should give 0")
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
}
