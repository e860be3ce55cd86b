// Package stats provides the dense-matrix and multivariate-statistics
// substrate of the characterization pipeline: column normalization,
// principal components analysis (via a Jacobi eigensolver), Pearson
// correlation and pairwise distances.
package stats

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/par"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("stats: negative matrix dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("stats: no rows")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SelectColumns returns a new matrix containing only the given columns, in
// the given order.
func (m *Matrix) SelectColumns(cols []int) (*Matrix, error) {
	for _, c := range cols {
		if c < 0 || c >= m.Cols {
			return nil, fmt.Errorf("stats: column %d out of range [0,%d)", c, m.Cols)
		}
	}
	out := NewMatrix(m.Rows, len(cols))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out, nil
}

// ColumnStats holds per-column mean and standard deviation.
type ColumnStats struct {
	Mean, Std []float64
}

// ColumnMeansStds computes per-column mean and (population) standard
// deviation.
func (m *Matrix) ColumnMeansStds() ColumnStats {
	var cs ColumnStats
	m.columnMeansStdsInto(&cs)
	return cs
}

// columnMeansStdsInto is ColumnMeansStds into reused ColumnStats slices.
func (m *Matrix) columnMeansStdsInto(cs *ColumnStats) {
	cs.Mean = growFloats(cs.Mean, m.Cols)
	cs.Std = growFloats(cs.Std, m.Cols)
	mean, std := cs.Mean, cs.Std
	for j := range mean {
		mean[j] = 0
		std[j] = 0
	}
	if m.Rows == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	n := float64(m.Rows)
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
	}
}

// Normalize returns a copy of m with every column shifted to zero mean and
// scaled to unit variance. Constant columns are centered but left unscaled
// (they carry no information; scaling them would divide by zero).
func (m *Matrix) Normalize() (*Matrix, ColumnStats) {
	cs := m.ColumnMeansStds()
	out := NewMatrix(m.Rows, m.Cols)
	m.normalizeInto(out, &cs)
	return out, cs
}

// NormalizeInPlace is Normalize overwriting m instead of allocating a
// copy: the same statistics and the same arithmetic, bit for bit.
func (m *Matrix) NormalizeInPlace() ColumnStats {
	cs := m.ColumnMeansStds()
	m.normalizeInto(m, &cs)
	return cs
}

// normalizeInto centers (and, where cs.Std > 0, scales) m into the
// pre-sized dst using the provided column statistics.
func (m *Matrix) normalizeInto(dst *Matrix, cs *ColumnStats) {
	for i := 0; i < m.Rows; i++ {
		normalizeRow(dst.Row(i), m.Row(i), cs)
	}
}

// normalizeRow writes src centered (and, where cs.Std > 0, scaled) into
// dst: the one definition of a normalized value, so every path that
// normalizes agrees bit for bit.
func normalizeRow(dst, src []float64, cs *ColumnStats) {
	for j, v := range src {
		d := v - cs.Mean[j]
		if cs.Std[j] > 0 {
			d /= cs.Std[j]
		}
		dst[j] = d
	}
}

// Covariance computes the Cols x Cols (population) covariance matrix of m's
// columns.
func (m *Matrix) Covariance() *Matrix {
	cov := NewMatrix(m.Cols, m.Cols)
	m.covarianceInto(cov, nil, make([]float64, m.Cols), nil)
	return cov
}

// covarianceInto is Covariance into the pre-sized cov matrix, of m's
// columns as normalizeInto(in) would leave them, or of m itself when in
// is nil. Normalized rows are produced one at a time into row (Cols
// long), so the normalized copy of m is never held: each value is the
// one normalizeInto would store, and the result is bit-identical to the
// covariance of that copy. mean (Cols long) is scratch for the column
// means.
func (m *Matrix) covarianceInto(cov *Matrix, in *ColumnStats, mean, row []float64) {
	at := func(i int) []float64 {
		if in == nil {
			return m.Row(i)
		}
		normalizeRow(row, m.Row(i), in)
		return row
	}
	p := m.Cols
	clear(cov.Data)
	clear(mean)
	if m.Rows == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range at(i) {
			mean[j] += v
		}
	}
	n := float64(m.Rows)
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < m.Rows; i++ {
		r := at(i)
		for a := 0; a < p; a++ {
			da := r[a] - mean[a]
			if da == 0 {
				continue
			}
			base := a * p
			for b := a; b < p; b++ {
				cov.Data[base+b] += da * (r[b] - mean[b])
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := a; b < p; b++ {
			v := cov.At(a, b) / n
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
}

// EuclideanDistance returns the Euclidean distance between two equal-length
// vectors. It delegates to the shared blocked kernel — the repo's single
// distance implementation.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: distance between vectors of length %d and %d", len(a), len(b)))
	}
	return kernel.Distance(a, b)
}

// PairwiseDistances returns the upper-triangle (i < j) Euclidean distances
// between the rows of m, flattened in row-major order of pairs.
func PairwiseDistances(m *Matrix) []float64 {
	return ParallelPairwiseDistances(m, 1)
}

// ParallelPairwiseDistances computes PairwiseDistances with the rows
// chunked over up to workers goroutines (values < 1 mean GOMAXPROCS).
// Every pair (i, j) writes only its own output slot at a position that is
// a pure function of (i, j, Rows), so the result is byte-identical for
// any worker count.
func ParallelPairwiseDistances(m *Matrix, workers int) []float64 {
	n := m.Rows
	out := make([]float64, n*(n-1)/2)
	par.ForChunks(workers, n, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ri := m.Row(i)
			base := i*(n-1) - i*(i-1)/2 - i - 1 // + j = slot of pair (i, j)
			for j := i + 1; j < n; j++ {
				out[base+j] = EuclideanDistance(ri, m.Row(j))
			}
		}
	})
	return out
}

// Pearson computes the Pearson correlation coefficient between two
// equal-length samples. It returns 0 if either sample has zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson over samples of length %d and %d", len(x), len(y)))
	}
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
