package corpus

// The in-memory query index: every corpus record, in global sequence
// order, normalized per-column over the whole corpus and laid out as
// transposed blocks for kernel.DotCols. The blocks are the index's only
// copy of the vectors; the few places that need one row (a ref query
// point, a uniqueness or novelty row, an IVF candidate) gather it from
// its block. The scan kernel is the same column-scan kernel
// (and the same determinism contract: serial per-column sums, ties to
// the lowest index) the k-means assignment runs on. The exact scan
// visits every row; the optional IVF layer (Probe > 0) partitions the
// rows under a deterministic coarse k-means quantizer and visits only
// the nearest partitions. Everything derived here is a pure function of
// the manifest's record set, so query answers are byte-identical across
// worker counts, before and after compaction, and via CLI or service.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// idxEntry is one indexed record with resolved provenance.
type idxEntry struct {
	bench   string
	suite   string
	kind    Kind
	index   int
	seq     uint64
	dataset uint64
	params  uint64
	seed    uint64
}

// scanBlock is a run of consecutive index rows in the transposed
// column-major layout DotCols consumes, with precomputed squared norms.
const scanBlockRows = 256

type scanBlock struct {
	start, n int
	ct       []float64 // dim x n, column-major
	norms    []float64 // squared norms of the n normalized rows
}

// index is the queryable in-memory corpus image. It is immutable once
// built, except for the IVF layer, which the first probed query builds
// under ivfOnce.
type index struct {
	dim     int
	entries []idxEntry
	cs      stats.ColumnStats
	blocks  []scanBlock
	byBench map[string][]int // interval rows per benchmark ID
	bySuite map[string][]int // interval rows per suite

	ivfOnce sync.Once
	ivf     *ivfIndex // nil when the corpus is too small to partition
}

// buildIndex assembles the segments into one index. Rows land in
// global sequence order whatever the segment layout, which is what
// makes the scan's tie-break (lowest row index = oldest record) stable
// across compaction.
func buildIndex(segs []*segment, dim int) (*index, error) {
	total := 0
	for _, s := range segs {
		total += len(s.recs)
		if len(s.recs) > 0 && s.vecs.Cols != dim {
			return nil, fmt.Errorf("corpus: segment dim %d, manifest dim %d", s.vecs.Cols, dim)
		}
	}
	ix := &index{
		dim:     dim,
		entries: make([]idxEntry, 0, total),
		byBench: make(map[string][]int),
		bySuite: make(map[string][]int),
	}
	type row struct {
		e   idxEntry
		vec []float64
	}
	rows := make([]row, 0, total)
	for _, s := range segs {
		for i := range s.recs {
			r := s.recs[i]
			b, ing := s.benches[r.benchRef], s.ingests[r.ingestRef]
			rows = append(rows, row{
				e: idxEntry{
					bench: b.id, suite: b.suite, kind: r.kind, index: int(r.index),
					seq: r.seq, dataset: ing.dataset, params: ing.params, seed: ing.seed,
				},
				vec: s.vecs.Row(i),
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].e.seq < rows[j].e.seq })

	vecs := stats.NewMatrix(total, dim)
	for i := range rows {
		ix.entries = append(ix.entries, rows[i].e)
		copy(vecs.Row(i), rows[i].vec)
		if rows[i].e.kind == KindInterval {
			ix.byBench[rows[i].e.bench] = append(ix.byBench[rows[i].e.bench], i)
			ix.bySuite[rows[i].e.suite] = append(ix.bySuite[rows[i].e.suite], i)
		}
	}
	if total == 0 {
		return ix, nil
	}

	// Normalize per column over the whole corpus (zero-variance columns
	// collapse to zero, as in the pipeline's pre-PCA normalization), so
	// distances weight each characteristic by its corpus-wide spread
	// rather than its unit of measure. The row-major matrix is scratch:
	// only the blocks outlive the build.
	ix.cs = vecs.NormalizeInPlace()

	for start := 0; start < total; start += scanBlockRows {
		n := total - start
		if n > scanBlockRows {
			n = scanBlockRows
		}
		blk := scanBlock{
			start: start, n: n,
			ct:    make([]float64, dim*n),
			norms: make([]float64, n),
		}
		kernel.Transpose(vecs.Data[start*dim:(start+n)*dim], n, dim, blk.ct)
		kernel.RowSquaredNorms(vecs.Data[start*dim:(start+n)*dim], n, dim, blk.norms)
		ix.blocks = append(ix.blocks, blk)
	}
	return ix, nil
}

// row gathers normalized index row r from its scan block into dst
// (len ix.dim) and returns it.
func (ix *index) row(r int, dst []float64) []float64 {
	blk := &ix.blocks[r/scanBlockRows]
	for j, col := 0, r-blk.start; j < ix.dim; j, col = j+1, col+blk.n {
		dst[j] = blk.ct[col]
	}
	return dst
}

// normalize maps a raw vector into the index's normalized space.
func (ix *index) normalize(raw []float64) []float64 {
	q := make([]float64, ix.dim)
	for j := 0; j < ix.dim; j++ {
		if ix.cs.Std[j] > 0 {
			q[j] = (raw[j] - ix.cs.Mean[j]) / ix.cs.Std[j]
		}
	}
	return q
}

// Neighbor is one query answer row.
type Neighbor struct {
	// Bench/Suite identify the record's benchmark ("" for centroids).
	Bench string `json:"bench,omitempty"`
	Suite string `json:"suite,omitempty"`
	// Kind is "interval" or "centroid".
	Kind string `json:"kind"`
	// Index is the interval index or cluster number.
	Index int `json:"index"`
	// Seq is the record's global ingest sequence number.
	Seq uint64 `json:"seq"`
	// Dataset is the ingest's dataset hash (provenance).
	Dataset uint64 `json:"dataset"`
	// Distance is the Euclidean distance in the corpus-normalized
	// characteristic space.
	Distance float64 `json:"distance"`
}

// candidate is a scan hit ordered by (distance², row).
type candidate struct {
	d2  float64
	row int
}

// pushCandidate inserts c into the ascending top-k list. Rows are
// offered in ascending order, so equal distances resolve to the oldest
// record deterministically.
func pushCandidate(cand []candidate, k int, c candidate) []candidate {
	if len(cand) == k && c.d2 >= cand[k-1].d2 {
		return cand
	}
	i := sort.Search(len(cand), func(i int) bool {
		return cand[i].d2 > c.d2 || (cand[i].d2 == c.d2 && cand[i].row > c.row)
	})
	if len(cand) < k {
		cand = append(cand, candidate{})
	}
	copy(cand[i+1:], cand[i:])
	cand[i] = c
	return cand
}

// nearest returns the k nearest rows to the normalized query qn,
// skipping rows for which skip returns true. It reports how many rows
// it scanned. probe > 0 routes through the IVF layer.
func (ix *index) nearest(qn []float64, k, probe int, skip func(int) bool) ([]candidate, int) {
	if probe > 0 {
		if ivf := ix.ivfLayer(); ivf != nil {
			return ix.nearestIVF(ivf, qn, k, probe, skip)
		}
	}
	qq := kernel.SquaredNorm(qn)
	var cand []candidate
	scanned := 0
	dots := make([]float64, scanBlockRows)
	for _, blk := range ix.blocks {
		kernel.DotCols(qn, blk.ct, dots, blk.n)
		scanned += blk.n
		for i := 0; i < blk.n; i++ {
			row := blk.start + i
			if skip != nil && skip(row) {
				continue
			}
			d2 := qq + blk.norms[i] - 2*dots[i]
			if d2 < 0 {
				d2 = 0
			}
			cand = pushCandidate(cand, k, candidate{d2: d2, row: row})
		}
	}
	return cand, scanned
}

// hasNeighborWithin reports whether any non-skipped row lies within
// radius of the normalized point qn, with block-level early exit. It
// reports how many rows it scanned.
func (ix *index) hasNeighborWithin(qn []float64, radius float64, skip func(int) bool) (bool, int) {
	qq := kernel.SquaredNorm(qn)
	r2 := radius * radius
	scanned := 0
	dots := make([]float64, scanBlockRows)
	for _, blk := range ix.blocks {
		kernel.DotCols(qn, blk.ct, dots, blk.n)
		scanned += blk.n
		for i := 0; i < blk.n; i++ {
			row := blk.start + i
			if skip != nil && skip(row) {
				continue
			}
			if qq+blk.norms[i]-2*dots[i] <= r2 {
				return true, scanned
			}
		}
	}
	return false, scanned
}

// UniquenessResult is one benchmark's corpus-uniqueness: the paper's
// "fraction of sampled execution in benchmark-specific clusters"
// recast against the whole corpus — the fraction of the benchmark's
// interval records with no foreign interval within the radius.
type UniquenessResult struct {
	Bench      string  `json:"bench"`
	Rows       int     `json:"rows"`
	Unique     int     `json:"unique"`
	Uniqueness float64 `json:"uniqueness"`
}

// NoveltyResult is one suite's corpus-novelty: the fraction of its
// interval records with no interval from any other suite within the
// radius, with the per-benchmark split.
type NoveltyResult struct {
	Suite   string             `json:"suite"`
	Rows    int                `json:"rows"`
	Novel   int                `json:"novel"`
	Novelty float64            `json:"novelty"`
	Benches []UniquenessResult `json:"benches,omitempty"`
}

// uniqueness computes the corpus-uniqueness of one benchmark. at is the
// corpus's crash-point hook, consulted once after the first row: the
// concurrency tests park a scan there.
func (ix *index) uniqueness(bench string, radius float64, at func(string) error) (UniquenessResult, int, error) {
	rows := ix.byBench[bench]
	if len(rows) == 0 {
		return UniquenessResult{}, 0, fmt.Errorf("corpus: benchmark %q has no intervals in the corpus", bench)
	}
	res := UniquenessResult{Bench: bench, Rows: len(rows)}
	scanned := 0
	skip := func(i int) bool {
		return ix.entries[i].kind != KindInterval || ix.entries[i].bench == bench
	}
	qn := make([]float64, ix.dim)
	for i, r := range rows {
		hit, n := ix.hasNeighborWithin(ix.row(r, qn), radius, skip)
		scanned += n
		if !hit {
			res.Unique++
		}
		if i == 0 {
			if err := at("uniqueness.scan"); err != nil {
				return UniquenessResult{}, 0, err
			}
		}
	}
	res.Uniqueness = float64(res.Unique) / float64(res.Rows)
	return res, scanned, nil
}

// novelty computes the corpus-novelty of one suite. The per-benchmark
// split uses the same other-suite exclusion, so a benchmark that only
// resembles its suite siblings still counts as novel here (and not in
// uniqueness) — exactly the suite-specific vs benchmark-specific
// distinction of the paper's cluster taxonomy.
func (ix *index) novelty(suite string, radius float64) (NoveltyResult, int, error) {
	rows := ix.bySuite[suite]
	if len(rows) == 0 {
		return NoveltyResult{}, 0, fmt.Errorf("corpus: suite %q has no intervals in the corpus", suite)
	}
	res := NoveltyResult{Suite: suite, Rows: len(rows)}
	scanned := 0
	skip := func(i int) bool {
		return ix.entries[i].kind != KindInterval || ix.entries[i].suite == suite
	}
	perBench := make(map[string]*UniquenessResult)
	var order []string
	qn := make([]float64, ix.dim)
	for _, r := range rows {
		hit, n := ix.hasNeighborWithin(ix.row(r, qn), radius, skip)
		scanned += n
		id := ix.entries[r].bench
		ur := perBench[id]
		if ur == nil {
			ur = &UniquenessResult{Bench: id}
			perBench[id] = ur
			order = append(order, id)
		}
		ur.Rows++
		if !hit {
			res.Novel++
			ur.Unique++
		}
	}
	res.Novelty = float64(res.Novel) / float64(res.Rows)
	sort.Strings(order)
	for _, id := range order {
		ur := perBench[id]
		ur.Uniqueness = float64(ur.Unique) / float64(ur.Rows)
		res.Benches = append(res.Benches, *ur)
	}
	return res, scanned, nil
}

// --- IVF partition layer (sub-linear nearest-neighbor queries) ---

// ivfNlistCap bounds the coarse-quantizer size; sqrt(N) lists keep both
// the center scan and the probed lists around sqrt(N) rows.
const ivfNlistCap = 256

type ivfIndex struct {
	nlist    int
	centersT []float64 // dim x nlist, column-major
	norms    []float64 // squared norms of the centers
	lists    [][]int32 // member rows per list, ascending
}

// ivfLayer returns the coarse partition, building it on first use. A
// corpus too small to profit (fewer than two rows per would-be list)
// stays exact-only and returns nil.
func (ix *index) ivfLayer() *ivfIndex {
	ix.ivfOnce.Do(func() { ix.ivf = ix.buildIVF() })
	return ix.ivf
}

// buildIVF partitions the rows under a coarse quantizer.
func (ix *index) buildIVF() *ivfIndex {
	n := len(ix.entries)
	nlist := int(math.Sqrt(float64(n)))
	if nlist > ivfNlistCap {
		nlist = ivfNlistCap
	}
	if nlist < 1 || n < 2*nlist {
		return nil
	}
	// The coarse quantizer is a small deterministic k-means over the
	// normalized corpus — fixed seed, fixed options, worker-independent
	// by the cluster package's contract — so the partition (and with it
	// every probed answer) is a pure function of the record set. Its
	// row-major input is gathered from the blocks for the build only.
	norm := stats.NewMatrix(n, ix.dim)
	for r := 0; r < n; r++ {
		ix.row(r, norm.Row(r))
	}
	res, err := cluster.KMeans(norm, nlist, cluster.Options{
		MaxIters: 25, Restarts: 1, Seed: 1,
	})
	if err != nil {
		return nil
	}
	ivf := &ivfIndex{
		nlist:    nlist,
		centersT: make([]float64, ix.dim*nlist),
		norms:    make([]float64, nlist),
		lists:    make([][]int32, nlist),
	}
	kernel.Transpose(res.Centers.Data, nlist, ix.dim, ivf.centersT)
	kernel.RowSquaredNorms(res.Centers.Data, nlist, ix.dim, ivf.norms)
	for row, a := range res.Assignments {
		ivf.lists[a] = append(ivf.lists[a], int32(row))
	}
	return ivf
}

// nearestIVF scans only the probe nearest partitions. Candidate rows
// are visited in ascending row order so ties resolve exactly as the
// exact scan does; with probe >= nlist the answer is identical to it.
func (ix *index) nearestIVF(ivf *ivfIndex, qn []float64, k, probe int, skip func(int) bool) ([]candidate, int) {
	if probe > ivf.nlist {
		probe = ivf.nlist
	}
	dots := make([]float64, ivf.nlist)
	kernel.DotCols(qn, ivf.centersT, dots, ivf.nlist)
	order := make([]candidate, ivf.nlist)
	for c := 0; c < ivf.nlist; c++ {
		order[c] = candidate{d2: ivf.norms[c] - 2*dots[c], row: c}
	}
	sort.Slice(order, func(i, j int) bool {
		return order[i].d2 < order[j].d2 || (order[i].d2 == order[j].d2 && order[i].row < order[j].row)
	})
	var rows []int32
	for _, o := range order[:probe] {
		rows = append(rows, ivf.lists[o.row]...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })

	// Dots a block at a time, column by column: the rows ascend, so each
	// block's candidates form one run, and sweeping its columns in order
	// walks the block's memory front to back instead of striding across
	// it once per row. Each dot still sums in strictly ascending
	// coordinate order, the exact scan's arithmetic (DotCols' per-column
	// sum order on both its paths), and with the same stored block norm
	// every distance is bit-identical to the exact scan's.
	rowDots := make([]float64, len(rows))
	for lo := 0; lo < len(rows); {
		blk := &ix.blocks[int(rows[lo])/scanBlockRows]
		hi := lo + 1
		for hi < len(rows) && int(rows[hi]) < blk.start+blk.n {
			hi++
		}
		run, out := rows[lo:hi], rowDots[lo:hi]
		for j, q := range qn {
			col := blk.ct[j*blk.n : (j+1)*blk.n]
			for c, r := range run {
				out[c] += q * col[int(r)-blk.start]
			}
		}
		lo = hi
	}

	qq := kernel.SquaredNorm(qn)
	var cand []candidate
	for c, r := range rows {
		row := int(r)
		if skip != nil && skip(row) {
			continue
		}
		blk := &ix.blocks[row/scanBlockRows]
		d2 := qq + blk.norms[row-blk.start] - 2*rowDots[c]
		if d2 < 0 {
			d2 = 0
		}
		cand = pushCandidate(cand, k, candidate{d2: d2, row: row})
	}
	return cand, len(rows)
}
