package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestQuantileTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		want  float64
		valid bool
	}{
		{n: 1, q: 0.5, want: 1, valid: true},
		{n: 4, q: 0.5, want: 2.5, valid: true},
		{n: 5, q: 0.5, want: 3, valid: true},
		{n: 100, q: 0.9, want: 90, valid: true},   // exactly 10 beyond
		{n: 99, q: 0.9, want: 90, valid: false},   // rank 90, 9 beyond
		{n: 200, q: 0.95, want: 190, valid: true}, // 10 beyond
		{n: 199, q: 0.95, want: 190, valid: false},
		{n: 1000, q: 0.99, want: 990, valid: true},
		{n: 20, q: 1, want: 20, valid: false},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.valid {
			t.Errorf("quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.valid)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported valid")
	}
}

func TestHighestTail(t *testing.T) {
	if _, _, ok := highestTail(seq(10)); ok {
		t.Error("10 samples cannot have a percentile with 10 beyond it")
	}
	pct, v, ok := highestTail(seq(11))
	if !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("highestTail(11) = %v, %v, %v; want p9.09 = 1", pct, v, ok)
	}
	pct, v, ok = highestTail(seq(200))
	if !ok || v != 190 || pct != 95 {
		t.Errorf("highestTail(200) = %v, %v, %v; want p95 = 190", pct, v, ok)
	}
	// The tail agrees with quantile at the percentile it names.
	if q, valid := quantile(seq(200), pct/100); q != v || !valid {
		t.Errorf("quantile at the highest tail = %v, %v; want %v, true", q, valid, v)
	}
}

func TestErrorRate(t *testing.T) {
	if got := errorRate(200, 0); got != 0 {
		t.Errorf("errorRate(200, 0) = %v", got)
	}
	if got := errorRate(200, 3); got != 0.015 {
		t.Errorf("errorRate(200, 3) = %v", got)
	}
	if got := errorRate(0, 0); got != 1 {
		t.Errorf("a run that attempted nothing must not read as error-free: %v", got)
	}
}

func TestMeanAndFrac(t *testing.T) {
	// A bimodal sample: the mean moves with the share in each mode.
	if got := mean([]float64{5, 5, 5, 105}); got != 30 {
		t.Errorf("mean = %v", got)
	}
	if got := frac(3, 1); got != 0.75 {
		t.Errorf("frac(3, 1) = %v", got)
	}
}

func TestAttribution(t *testing.T) {
	// 350 ns/instr of busy time, of which generation takes 100 and the
	// analyzers 220: 30 ns (about 8.6%) is unattributed.
	if got := unattributedFrac(350, 100, 220); math.Abs(got-30.0/350) > 1e-12 {
		t.Errorf("unattributedFrac = %v", got)
	}
	if got := unattributedFrac(100, 60, 50); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("children over the parent must read negative: %v", got)
	}
	// Two workers, each busy 0.9 s of a 1 s wall.
	if got := busyFrac(1.8e9, 1e9, 2); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("busyFrac = %v", got)
	}
}
