// PCAWorkspace: buffer reuse for the PCA -> rescale -> pairwise-distance
// chain. The GA fitness function runs that chain once per genome
// evaluation — tens of thousands of times per sweep — and every stage
// used to allocate its result afresh. A workspace owns one reusable
// buffer per stage; repeated evaluations overwrite instead of
// reallocating. Results computed through a workspace are bit-identical
// to the plain entry points (both run the same helper code on fully
// overwritten buffers); only the allocation behavior differs.
package stats

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
)

// growFloats is kernel.GrowFloats under its historical local name; the
// shared implementation lives in internal/kernel so cluster and stats
// stop carrying duplicate copies.
func growFloats(s []float64, n int) []float64 { return kernel.GrowFloats(s, n) }

// GrowMatrix returns a rows x cols matrix backed by m's Data when it is
// large enough, allocating a fresh matrix otherwise. Contents are
// unspecified; callers fully overwrite before reading. It is the Matrix
// counterpart of kernel.GrowFloats/GrowInts and is shared with the
// cluster package's pooled scratch.
func GrowMatrix(m *Matrix, rows, cols int) *Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

func growMatrixInto(m *Matrix, rows, cols int) *Matrix { return GrowMatrix(m, rows, cols) }

// PCAWorkspace holds reusable buffers for the analysis chain. The zero
// value is ready to use. Results returned by its methods alias the
// workspace and are valid only until the next call on the same
// workspace; a workspace must not be used concurrently.
type PCAWorkspace struct {
	sel      *Matrix
	cov      *Matrix
	scores   *Matrix
	rescaled *Matrix
	inCS     ColumnStats
	covMean  []float64
	row      []float64
	scoreCS  ColumnStats
	jw       jacobiWork
	order    []int
	pca      PCA
	centered []float64
	dist     []float64
}

// SelectColumns is Matrix.SelectColumns into a reused buffer.
func (w *PCAWorkspace) SelectColumns(m *Matrix, cols []int) (*Matrix, error) {
	for _, c := range cols {
		if c < 0 || c >= m.Cols {
			return nil, fmt.Errorf("stats: column %d out of range [0,%d)", c, m.Cols)
		}
	}
	w.sel = growMatrixInto(w.sel, m.Rows, len(cols))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := w.sel.Row(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return w.sel, nil
}

// ComputePCA is the package-level ComputePCA on reused buffers. The
// returned PCA (and its Components/Variances/InputStats) aliases the
// workspace.
func (w *PCAWorkspace) ComputePCA(data *Matrix, normalize bool) (*PCA, error) {
	if data.Rows < 2 {
		return nil, fmt.Errorf("stats: PCA needs at least 2 rows, have %d", data.Rows)
	}
	if data.Cols < 1 {
		return nil, fmt.Errorf("stats: PCA needs at least 1 column")
	}
	data.columnMeansStdsInto(&w.inCS)
	if !normalize {
		// Center only (PCA is defined on centered data): a unit std
		// makes the normalization divide by exactly 1, a no-op bit for bit.
		for j := range w.inCS.Std {
			w.inCS.Std[j] = 1
		}
	}

	p := data.Cols
	w.cov = growMatrixInto(w.cov, p, p)
	w.covMean = growFloats(w.covMean, p)
	w.row = growFloats(w.row, p)
	data.covarianceInto(w.cov, &w.inCS, w.covMean, w.row)
	if err := jacobiEigenInto(w.cov, 200, 1e-12, &w.jw); err != nil {
		return nil, err
	}
	vals := w.jw.vals

	// Sort eigenpairs by decreasing eigenvalue. sort.Slice is unstable,
	// so exactly equal eigenvalues (rank-deficient or symmetric data)
	// need an explicit tie-break on the original eigenpair index to keep
	// the component order deterministic.
	if cap(w.order) < p {
		w.order = make([]int, p)
	}
	order := w.order[:p]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := vals[order[a]], vals[order[b]]
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})

	w.pca = PCA{
		Components: growMatrixInto(w.pca.Components, p, p),
		Variances:  growFloats(w.pca.Variances, p),
		InputStats: w.inCS,
	}
	w.pca.TotalVariance = 0
	for k, idx := range order {
		v := vals[idx]
		if v < 0 && v > -1e-10 {
			v = 0 // numerical noise on rank-deficient data
		}
		w.pca.Variances[k] = v
		w.pca.TotalVariance += v
		// Eigenvector idx is row idx of the transposed accumulator.
		copy(w.pca.Components.Row(k), w.jw.vT.Row(idx))
	}
	return &w.pca, nil
}

// RescaledScores is PCA.RescaledScores on reused buffers; p is typically
// the result of this workspace's ComputePCA. The returned matrix aliases
// the workspace.
func (w *PCAWorkspace) RescaledScores(p *PCA, data *Matrix, k int) (*Matrix, error) {
	if err := p.checkProject(data, k); err != nil {
		return nil, err
	}
	w.scores = growMatrixInto(w.scores, data.Rows, k)
	w.centered = growFloats(w.centered, data.Cols)
	p.projectInto(data, k, w.scores, w.centered)
	w.scores.columnMeansStdsInto(&w.scoreCS)
	w.rescaled = growMatrixInto(w.rescaled, data.Rows, k)
	w.scores.normalizeInto(w.rescaled, &w.scoreCS)
	return w.rescaled, nil
}

// PairwiseDistances is the package-level PairwiseDistances into a reused
// buffer (serial, like the plain single-worker path).
func (w *PCAWorkspace) PairwiseDistances(m *Matrix) []float64 {
	n := m.Rows
	w.dist = growFloats(w.dist, n*(n-1)/2)
	out := w.dist
	for i := 0; i < n; i++ {
		ri := m.Row(i)
		base := i*(n-1) - i*(i-1)/2 - i - 1 // + j = slot of pair (i, j)
		for j := i + 1; j < n; j++ {
			out[base+j] = EuclideanDistance(ri, m.Row(j))
		}
	}
	return out
}
