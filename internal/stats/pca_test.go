package stats

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestJacobiKnownEigenvalues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := JacobiEigen(m, 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{vals[0], vals[1]}
	if got[0] < got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if !almostEq(got[0], 3, 1e-9) || !almostEq(got[1], 1, 1e-9) {
		t.Fatalf("eigenvalues = %v, want [3 1]", got)
	}
	// Eigenvectors orthonormal.
	dot := vecs.At(0, 0)*vecs.At(0, 1) + vecs.At(1, 0)*vecs.At(1, 1)
	if !almostEq(dot, 0, 1e-9) {
		t.Fatalf("eigenvectors not orthogonal: dot = %v", dot)
	}
}

func TestJacobiVerifiesEigenEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 8
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	vals, vecs, err := JacobiEigen(m, 200, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	// Check A v_k = lambda_k v_k for every k.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			var av float64
			for j := 0; j < n; j++ {
				av += m.At(i, j) * vecs.At(j, k)
			}
			if !almostEq(av, vals[k]*vecs.At(i, k), 1e-7) {
				t.Fatalf("eigen equation violated at (%d,%d): %v vs %v", i, k, av, vals[k]*vecs.At(i, k))
			}
		}
	}
	// Eigenvalue sum equals trace.
	var trace, sum float64
	for i := 0; i < n; i++ {
		trace += m.At(i, i)
		sum += vals[i]
	}
	if !almostEq(trace, sum, 1e-9) {
		t.Fatalf("eigenvalue sum %v != trace %v", sum, trace)
	}
}

func TestJacobiRejectsNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, _, err := JacobiEigen(m, 10, 1e-9); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestJacobiRejectsAsymmetric(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := JacobiEigen(m, 10, 1e-9); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

// correlatedData builds rows where column 1 = 2*column 0 + noise and
// column 2 is independent noise.
func correlatedData(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		m.Set(i, 0, x)
		m.Set(i, 1, 2*x+0.01*rng.NormFloat64())
		m.Set(i, 2, rng.NormFloat64())
	}
	return m
}

func TestPCAOrdersVariance(t *testing.T) {
	pca, err := ComputePCA(correlatedData(500, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pca.Variances); i++ {
		if pca.Variances[i] > pca.Variances[i-1]+1e-12 {
			t.Fatalf("variances not sorted: %v", pca.Variances)
		}
	}
	// Normalized 3-column data: total variance ~= 3.
	if !almostEq(pca.TotalVariance, 3, 0.05) {
		t.Fatalf("total variance = %v, want ~3", pca.TotalVariance)
	}
	// The correlated pair collapses onto one component: PC1 explains
	// about 2/3 of the variance.
	if frac := pca.ExplainedVariance(1); frac < 0.6 {
		t.Fatalf("PC1 explains only %.2f", frac)
	}
}

func TestPCANumRetained(t *testing.T) {
	pca, err := ComputePCA(correlatedData(500, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	// Components with std > 1: the merged pair (var ~2) and the noise
	// column (var ~1, hovering at the threshold); at minimum 1 retained.
	k := pca.NumRetained(1.0)
	if k < 1 || k > 2 {
		t.Fatalf("retained %d components", k)
	}
	if pca.NumRetained(1e9) != 1 {
		t.Fatal("NumRetained must floor at 1")
	}
}

func TestPCAProjectionDecorrelates(t *testing.T) {
	data := correlatedData(800, 3)
	pca, err := ComputePCA(data, true)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := pca.Project(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Score columns must be uncorrelated.
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			colA := make([]float64, scores.Rows)
			colB := make([]float64, scores.Rows)
			for i := 0; i < scores.Rows; i++ {
				colA[i] = scores.At(i, a)
				colB[i] = scores.At(i, b)
			}
			if r := Pearson(colA, colB); math.Abs(r) > 0.02 {
				t.Fatalf("score columns %d,%d correlated: %v", a, b, r)
			}
		}
	}
	// Score column variances equal the eigenvalues.
	cs := scores.ColumnMeansStds()
	for k := 0; k < 3; k++ {
		if !almostEq(cs.Std[k]*cs.Std[k], pca.Variances[k], 0.02*pca.Variances[k]+1e-6) {
			t.Fatalf("score var %d = %v, eigenvalue %v", k, cs.Std[k]*cs.Std[k], pca.Variances[k])
		}
	}
}

func TestRescaledScoresUnitVariance(t *testing.T) {
	data := correlatedData(400, 4)
	pca, err := ComputePCA(data, true)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := pca.RescaledScores(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	cs := scores.ColumnMeansStds()
	for k := 0; k < 2; k++ {
		if !almostEq(cs.Std[k], 1, 1e-9) {
			t.Fatalf("rescaled score std %d = %v", k, cs.Std[k])
		}
	}
}

func TestProjectValidation(t *testing.T) {
	data := correlatedData(50, 5)
	pca, err := ComputePCA(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pca.Project(NewMatrix(5, 2), 1); err == nil {
		t.Fatal("column mismatch accepted")
	}
	if _, err := pca.Project(data, 0); err == nil {
		t.Fatal("zero components accepted")
	}
	if _, err := pca.Project(data, 99); err == nil {
		t.Fatal("too many components accepted")
	}
}

func TestComputePCAValidation(t *testing.T) {
	if _, err := ComputePCA(NewMatrix(1, 3), true); err == nil {
		t.Fatal("single-row PCA accepted")
	}
	if _, err := ComputePCA(NewMatrix(5, 0), true); err == nil {
		t.Fatal("zero-column PCA accepted")
	}
}

func TestPCAUnnormalized(t *testing.T) {
	// Without normalization, a high-variance column dominates PC1.
	rng := rand.New(rand.NewSource(6))
	m := NewMatrix(300, 2)
	for i := 0; i < 300; i++ {
		m.Set(i, 0, 100*rng.NormFloat64())
		m.Set(i, 1, rng.NormFloat64())
	}
	pca, err := ComputePCA(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if pca.Variances[0] < 1000 {
		t.Fatalf("unnormalized PC1 variance = %v, should be dominated by the big column", pca.Variances[0])
	}
	// PC1 loading should point almost entirely along column 0.
	if math.Abs(pca.Components.At(0, 0)) < 0.99 {
		t.Fatalf("PC1 loading on the dominant column = %v", pca.Components.At(0, 0))
	}
}

func TestExplainedVarianceClamps(t *testing.T) {
	pca, err := ComputePCA(correlatedData(100, 7), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := pca.ExplainedVariance(100); !almostEq(got, 1, 1e-9) {
		t.Fatalf("explained variance over all components = %v", got)
	}
}

// TestPCAEigenvalueTieBreak feeds ComputePCA data whose covariance is
// diagonal with one dominant eigenvalue and fifteen exactly equal ones.
// sort.Slice is unstable, so without the explicit index tie-break the
// tied components could land in any order; the contract is original
// eigenpair (dimension) order. On a diagonal covariance Jacobi performs
// no rotations, so each component must be exactly a basis vector.
func TestPCAEigenvalueTieBreak(t *testing.T) {
	const p = 16
	// Rows ±c_j·e_j give a centered dataset with covariance
	// diag(2c_j²/(2p-1)): dimension 0 dominant, the rest exactly tied.
	data := NewMatrix(2*p, p)
	for j := 0; j < p; j++ {
		c := 1.0
		if j == 0 {
			c = 3.0
		}
		data.Set(2*j, j, c)
		data.Set(2*j+1, j, -c)
	}
	run := func() *PCA {
		pca, err := ComputePCA(data, false)
		if err != nil {
			t.Fatal(err)
		}
		return pca
	}
	pca := run()
	for k := 1; k < p-1; k++ {
		if pca.Variances[k] != pca.Variances[k+1] {
			t.Fatalf("expected tied eigenvalues, got Variances[%d]=%v != Variances[%d]=%v",
				k, pca.Variances[k], k+1, pca.Variances[k+1])
		}
	}
	for k := 0; k < p; k++ {
		for j := 0; j < p; j++ {
			want := 0.0
			if j == k {
				want = 1.0
			}
			if got := math.Abs(pca.Components.At(k, j)); got != want {
				t.Fatalf("component %d is not basis vector e%d: |C[%d,%d]| = %v",
					k, k, k, j, pca.Components.At(k, j))
			}
		}
	}
	// And the whole analysis must be bit-identical across repeats.
	again := run()
	for i := range pca.Components.Data {
		if math.Float64bits(pca.Components.Data[i]) != math.Float64bits(again.Components.Data[i]) {
			t.Fatalf("repeated PCA differs at component element %d", i)
		}
	}
}

// TestNormalizedCovarianceMatchesCopy pins the row-at-a-time covariance
// PCA runs on: bit for bit the covariance of the materialized normalized
// copy, including a constant column (centered, not scaled).
func TestNormalizedCovarianceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(300, 6)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(1+j*j)
		}
		row[3] = 2.5
		row[4] = 3*row[0] + rng.Float64()
	}
	norm, cs := m.Normalize()
	want := norm.Covariance()
	got := NewMatrix(m.Cols, m.Cols)
	m.covarianceInto(got, &cs, make([]float64, m.Cols), make([]float64, m.Cols))
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("covariance element %d: %v, want %v (the normalized copy's)", i, got.Data[i], want.Data[i])
		}
	}
}

// TestComputePCAHoldsNoDataCopy: PCA allocates O(Cols^2), not a
// normalized copy of its Rows x Cols input, so it does not add a second
// copy of the pipeline's dataset to the live heap.
func TestComputePCAHoldsNoDataCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(4000, 40)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ComputePCA(m, true); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d, size := after.TotalAlloc-before.TotalAlloc, uint64(8*len(m.Data)); d >= size/4 {
		t.Fatalf("ComputePCA allocated %d bytes for a %d-byte input, want < %d", d, size, size/4)
	}
}
