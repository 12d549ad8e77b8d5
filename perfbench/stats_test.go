package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v, n, err := percentile(seq(100), 0.9)
	if err != nil || v != 90 || n != 100 {
		t.Fatalf("p90 of 1..100 = %v (n=%d, err=%v), want 90 over 100 samples", v, n, err)
	}
	if _, n, err := percentile(seq(99), 0.9); err == nil || n != 99 {
		t.Fatalf("p90 of 99 samples has 9 beyond it and must be refused (n=%d, err=%v)", n, err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestMedianAlwaysReported(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{7}, 7}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		v, n, err := percentile(c.xs, 0.5)
		if err != nil || v != c.want || n != len(c.xs) {
			t.Errorf("median of %v = %v (n=%d, err=%v), want %v", c.xs, v, n, err, c.want)
		}
	}
}
