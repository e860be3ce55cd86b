package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	var zeroes int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeroes++
		}
	}
	if zeroes > 2 {
		t.Fatalf("zero-seeded RNG looks stuck: %d zero draws", zeroes)
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %.4f, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %.4f", rate)
	}
}

func TestGeometricMean(t *testing.T) {
	for _, mean := range []float64{1, 2, 5, 20} {
		r := NewRNG(13)
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			v := r.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", mean, v)
			}
			sum += float64(v)
		}
		got := sum / n
		if math.Abs(got-mean) > 0.1*mean+0.05 {
			t.Fatalf("Geometric(%v) mean = %.3f", mean, got)
		}
	}
}

func TestGeometricSmallMean(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(0.5); v != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(10, 0.2)
		if v < 8-1e-9 || v > 12+1e-9 {
			t.Fatalf("Jitter(10, 0.2) = %v out of [8,12]", v)
		}
	}
	if v := r.Jitter(5, 0); v != 5 {
		t.Fatalf("Jitter with zero amount changed the value: %v", v)
	}
	for i := 0; i < 100; i++ {
		if v := r.Jitter(1, 2); v < 0 {
			t.Fatalf("Jitter produced negative value %v", v)
		}
	}
}

func TestPickWeights(t *testing.T) {
	r := NewRNG(19)
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Pick([]float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight option picked %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.02 {
		t.Fatalf("weight-1-of-4 picked %.3f of the time", frac0)
	}
}

func TestPickDegenerate(t *testing.T) {
	r := NewRNG(23)
	if got := r.Pick([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights picked %d, want 0", got)
	}
	if got := r.Pick([]float64{-1, 2}); got != 1 {
		t.Fatalf("negative weight not skipped: picked %d", got)
	}
}

func TestHashStringStable(t *testing.T) {
	a := HashString("BioPerf/grappa")
	b := HashString("BioPerf/grappa")
	if a != b {
		t.Fatal("HashString not deterministic")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("trivially colliding HashString")
	}
}

func TestHash64Mixes(t *testing.T) {
	f := func(x uint64) bool {
		// Consecutive inputs should not map to consecutive outputs.
		return Hash64(x)^Hash64(x+1) != 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGeoTableMatchesGeometric pins the table-driven geometric draw to
// RNG.Geometric: the same value and the same RNG consumption on every
// draw, including draws past the end of the table, which resume the
// recurrence.
func TestGeoTableMatchesGeometric(t *testing.T) {
	for _, mean := range []float64{0.5, 1, 1.5, 3, 4, 12, 40} {
		tbl := newGeoTable(mean)
		ref, got := NewRNG(uint64(mean*1000)), NewRNG(uint64(mean*1000))
		past := 0
		for i := 0; i < 100_000; i++ {
			want := ref.Geometric(mean)
			v := tbl.draw(got)
			if v != want {
				t.Fatalf("mean %v draw %d: table %d, Geometric %d", mean, i, v, want)
			}
			if v > len(tbl.cum) {
				past++
			}
		}
		if ref.Uint64() != got.Uint64() {
			t.Fatalf("mean %v: table draws consumed the RNG differently", mean)
		}
		if mean > 1 && past == 0 {
			t.Fatalf("mean %v: no draw fell past the %d-entry table; test is vacuous", mean, len(tbl.cum))
		}
	}
}
