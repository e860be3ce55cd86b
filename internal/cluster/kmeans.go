// Package cluster implements the phase-clustering step of the methodology:
// k-means (with k-means++ seeding and multiple random restarts) scored by
// the Bayesian Information Criterion, plus cluster representatives, weights
// and coverage accounting.
//
// Clustering is parallel and worker-count deterministic: restarts, Lloyd
// assignment passes and the SelectK model sweep spread over par workers,
// with per-restart seeds derived by hashing (never a shared *rand.Rand)
// and floating-point reductions performed in a fixed chunk order, so the
// Result is byte-identical whether Options.Workers is 1 or 64.
//
// The assignment inner loop — the O(n·k·d) cost center of the whole
// analysis — runs on the shared internal/kernel primitives and a
// Hamerly-style bounded Lloyd iteration: each row carries an upper bound
// on the distance to its assigned center and a lower bound on the
// distance to every other center, both widened by how far the centers
// moved, and rows whose bounds prove the assignment unchanged skip the
// scan over centers entirely. Bound decisions are per-row (never shared
// across rows or workers) and the first and final passes are always
// exact full scans, so the fit stays deterministic at any worker count.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// Options configures a k-means run.
type Options struct {
	// MaxIters bounds Lloyd iterations per restart (default 100).
	MaxIters int
	// Restarts is how many random initializations to evaluate; the
	// clustering with the highest BIC is kept (default 3).
	Restarts int
	// Seed makes the run deterministic. Every seed — including 0 — is a
	// valid, distinct seed: per-restart randomness is derived from it
	// with a SplitMix64-style hash (par.DeriveSeed), so there is no
	// "unseeded" sentinel at this layer. (core.Config.Validate treats a
	// zero Options.Seed as "inherit the pipeline seed" before the value
	// reaches this package; that inheritance is documented there.)
	Seed int64
	// Workers bounds clustering parallelism; values < 1 mean GOMAXPROCS.
	// The result is identical for any worker count.
	Workers int
	// Metrics, when non-nil, receives clustering counters
	// (kmeans.restarts, kmeans.lloyd_iters, kmeans.selectk_fits).
	// Metrics never influence the fit, so determinism is unaffected.
	Metrics *obs.Metrics `json:"-"`
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxIters <= 0 {
		out.MaxIters = 100
	}
	if out.Restarts <= 0 {
		out.Restarts = 3
	}
	out.Workers = par.Workers(out.Workers)
	return out
}

// Result is a fitted clustering.
type Result struct {
	// K is the number of clusters.
	K int
	// Assignments maps each data row to its cluster.
	Assignments []int
	// Centers is the K x dims matrix of cluster centroids.
	Centers *stats.Matrix
	// Sizes is the number of points per cluster.
	Sizes []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// BIC is the Bayesian Information Criterion score of the clustering
	// under a spherical-Gaussian mixture model (higher is better).
	BIC float64
}

// lloydScratch is the pooled per-restart working set: assignment and
// bound arrays, the center matrices and the accumulator matrix. Every
// field is fully (re)initialized by lloyd before it is read, so a
// recycled scratch can never leak state between restarts — which is
// what keeps pooled runs bit-identical to fresh-allocation runs.
type lloydScratch struct {
	assign     []int
	dist2      []float64 // exact d² to the assigned center where known
	upper      []float64 // Hamerly upper bound on d(x, assigned center)
	lower      []float64 // Hamerly lower bound on d(x, any other center)
	centerNorm []float64
	delta      []float64 // per-center move distance of the last update
	centersT   []float64 // centers transposed to column-major for DotCols
	sizes      []int
	sums       *stats.Matrix
	centers    *stats.Matrix
	prev       *stats.Matrix // centers before the last update
}

var scratchPool sync.Pool

// dotsPool recycles the k-sized per-worker dot-product scratch used by
// the column scans; each ForChunks chunk takes one for its rows. The
// pool stores *dotsBuf so the Get/Put round trip never allocates.
var dotsPool sync.Pool

type dotsBuf struct{ s []float64 }

func getDots(k int) *dotsBuf {
	db, _ := dotsPool.Get().(*dotsBuf)
	if db == nil {
		db = &dotsBuf{}
	}
	db.s = growF64(db.s, k)
	return db
}

// The grow helpers live in internal/kernel (slices) and stats
// (matrices) — shared with the stats workspace instead of duplicated
// here. Thin aliases keep the call sites short.
func growF64(s []float64, n int) []float64 { return kernel.GrowFloats(s, n) }

func growInts(s []int, n int) []int { return kernel.GrowInts(s, n) }

func growMatrix(m *stats.Matrix, rows, cols int) *stats.Matrix {
	return stats.GrowMatrix(m, rows, cols)
}

// getScratch returns a pooled scratch resized for an (n rows, k
// clusters, d dims) restart. Contents are unspecified.
func getScratch(n, k, d int) *lloydScratch {
	sc, _ := scratchPool.Get().(*lloydScratch)
	if sc == nil {
		sc = &lloydScratch{}
	}
	sc.assign = growInts(sc.assign, n)
	sc.dist2 = growF64(sc.dist2, n)
	sc.upper = growF64(sc.upper, n)
	sc.lower = growF64(sc.lower, n)
	sc.centerNorm = growF64(sc.centerNorm, k)
	sc.delta = growF64(sc.delta, k)
	sc.centersT = growF64(sc.centersT, k*d)
	sc.sizes = growInts(sc.sizes, k)
	sc.sums = growMatrix(sc.sums, k, d)
	sc.centers = growMatrix(sc.centers, k, d)
	sc.prev = growMatrix(sc.prev, k, d)
	return sc
}

// KMeans clusters the rows of data into k clusters. Restarts run
// concurrently, each on a sub-seed derived from Options.Seed, and the
// best-BIC restart wins with ties broken by restart index — so the result
// does not depend on Options.Workers.
func KMeans(data *stats.Matrix, k int, opts Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k = %d < 1", k)
	}
	if data.Rows < k {
		return nil, fmt.Errorf("cluster: %d rows cannot form %d clusters", data.Rows, k)
	}
	o := opts.withDefaults()

	o.Metrics.Add("kmeans.restarts", int64(o.Restarts))
	iters := o.Metrics.Counter("kmeans.lloyd_iters")

	// |x|² per data row, identical across restarts: computed once and
	// shared read-only by every restart's assignment passes.
	dataNorm := make([]float64, data.Rows)
	kernel.RowSquaredNorms(data.Data, data.Rows, data.Cols, dataNorm)

	results := make([]*Result, o.Restarts)
	scratches := make([]*lloydScratch, o.Restarts)
	par.For(o.Workers, o.Restarts, func(r int) {
		rng := rand.New(rand.NewSource(par.DeriveSeed(o.Seed, uint64(r))))
		sc := getScratch(data.Rows, k, data.Cols)
		scratches[r] = sc
		res := lloyd(data, k, o.MaxIters, o.Workers, rng, iters, dataNorm, sc)
		res.BIC = bic(data, res)
		results[r] = res
	})

	best := results[0]
	for _, res := range results[1:] {
		if res.BIC > best.BIC {
			best = res
		}
	}
	// The winning restart's buffers belong to a pooled scratch; copy them
	// out before every scratch goes back to the pool.
	out := &Result{
		K:           best.K,
		Assignments: append([]int(nil), best.Assignments...),
		Centers:     best.Centers.Clone(),
		Sizes:       append([]int(nil), best.Sizes...),
		Inertia:     best.Inertia,
		BIC:         best.BIC,
	}
	for _, sc := range scratches {
		scratchPool.Put(sc)
	}
	return out, nil
}

// assignFull is the exact Lloyd assignment pass: every row scans every
// center (kernel.Nearest2Centers, first center wins ties), records its
// assignment, exact squared distance, and the Hamerly bounds (exact
// distance to the winner, exact distance to the runner-up). It returns
// how many assignments changed. Rows are processed in fixed-grain
// chunks, each row writing only its own slots, so the output is
// identical for any worker count.
func assignFull(data, centers *stats.Matrix, dataNorm, centerNorm []float64, sc *lloydScratch, workers int) int {
	n := data.Rows
	changedParts := make([]int, par.Chunks(n, 0))
	par.ForChunks(workers, n, 0, func(chunk, lo, hi int) {
		db := getDots(len(centerNorm))
		changed := 0
		for i := lo; i < hi; i++ {
			x := data.Row(i)
			best, bestG, secondG := kernel.Nearest2CentersCols(x, sc.centersT, centerNorm, db.s)
			// g differs from |x-c|² by the constant |x|²; the argmin is
			// the same and the subtraction is deferred. Cancellation can
			// push an exact 0 slightly negative, hence the clamps.
			d2 := dataNorm[i] + bestG
			if d2 < 0 {
				d2 = 0
			}
			s2 := dataNorm[i] + secondG
			if s2 < 0 {
				s2 = 0
			}
			if best != sc.assign[i] {
				sc.assign[i] = best
				changed++
			}
			sc.dist2[i] = d2
			sc.upper[i] = math.Sqrt(d2)
			sc.lower[i] = math.Sqrt(s2)
		}
		changedParts[chunk] = changed
		dotsPool.Put(db)
	})
	total := 0
	for _, c := range changedParts {
		total += c
	}
	return total
}

// assignBounded is the Hamerly-bounded assignment pass. Each row first
// widens its bounds by the center movement (upper by the assigned
// center's move, lower by the largest move anywhere); if the upper
// bound stays below the lower bound the assignment provably cannot
// change and the row skips the scan. Otherwise the upper bound is
// tightened to the exact current distance and re-tested, and only rows
// that still overlap pay for the full scan. Every decision is a pure
// per-row function of that row's own state, so the pass is
// deterministic for any worker count.
func assignBounded(data, centers *stats.Matrix, dataNorm, centerNorm []float64, sc *lloydScratch, deltaMax float64, workers int) int {
	n, d := data.Rows, data.Cols
	changedParts := make([]int, par.Chunks(n, 0))
	cdata := centers.Data
	par.ForChunks(workers, n, 0, func(chunk, lo, hi int) {
		db := getDots(len(centerNorm))
		changed := 0
		for i := lo; i < hi; i++ {
			c := sc.assign[i]
			u := sc.upper[i] + sc.delta[c]
			l := sc.lower[i] - deltaMax
			if u <= l {
				sc.upper[i], sc.lower[i] = u, l
				continue
			}
			x := data.Row(i)
			// Tighten the upper bound to the exact distance and re-test.
			g := centerNorm[c] - 2*kernel.Dot(x, cdata[c*d:(c+1)*d])
			d2 := dataNorm[i] + g
			if d2 < 0 {
				d2 = 0
			}
			u = math.Sqrt(d2)
			if u <= l {
				sc.upper[i], sc.lower[i] = u, l
				sc.dist2[i] = d2
				continue
			}
			best, bestG, secondG := kernel.Nearest2CentersCols(x, sc.centersT, centerNorm, db.s)
			bd2 := dataNorm[i] + bestG
			if bd2 < 0 {
				bd2 = 0
			}
			s2 := dataNorm[i] + secondG
			if s2 < 0 {
				s2 = 0
			}
			if best != c {
				sc.assign[i] = best
				changed++
			}
			sc.dist2[i] = bd2
			sc.upper[i] = math.Sqrt(bd2)
			sc.lower[i] = math.Sqrt(s2)
		}
		changedParts[chunk] = changed
		dotsPool.Put(db)
	})
	total := 0
	for _, c := range changedParts {
		total += c
	}
	return total
}

// exactAssignedDist2 refreshes dist2 with the exact squared distance of
// every row to its currently assigned center — needed before an
// empty-cluster reseed, where bounded rows may hold stale values.
func exactAssignedDist2(data, centers *stats.Matrix, dataNorm, centerNorm []float64, sc *lloydScratch, workers int) {
	n, d := data.Rows, data.Cols
	cdata := centers.Data
	par.ForChunks(workers, n, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := sc.assign[i]
			x := data.Row(i)
			d2 := dataNorm[i] + centerNorm[c] - 2*kernel.Dot(x, cdata[c*d:(c+1)*d])
			if d2 < 0 {
				d2 = 0
			}
			sc.dist2[i] = d2
		}
	})
}

// lloyd runs one k-means fit with k-means++ seeding. Seeding and center
// updates are serial (they are O(n·d), dwarfed by the O(n·k·d) assignment
// passes, and seeding is inherently sequential in rng consumption); the
// assignment and inertia passes fan out over workers. iters (possibly a
// nil no-op sink) receives the number of Lloyd iterations executed.
// dataNorm carries the shared row-norm cache; sc supplies every working
// buffer, and the returned Result aliases sc (KMeans copies the winner
// out before recycling).
func lloyd(data *stats.Matrix, k, maxIters, workers int, rng *rand.Rand, iters *obs.Counter, dataNorm []float64, sc *lloydScratch) *Result {
	seedPlusPlus(data, k, rng, sc.centers, sc.dist2)
	n, d := data.Rows, data.Cols
	centers := sc.centers
	for i := range sc.assign {
		sc.assign[i] = -1
	}
	centerNorm := sc.centerNorm
	// The column scans need the centers' norms and the transposed
	// (column-major) layout refreshed together after every move.
	updateCenterNorms := func() {
		kernel.RowSquaredNorms(centers.Data, k, d, centerNorm)
		kernel.Transpose(centers.Data, k, d, sc.centersT)
	}
	updateCenterNorms()

	var deltaMax float64
	for iter := 0; iter < maxIters; iter++ {
		var changed int
		if iter == 0 {
			changed = assignFull(data, centers, dataNorm, centerNorm, sc, workers)
		} else {
			changed = assignBounded(data, centers, dataNorm, centerNorm, sc, deltaMax, workers)
		}
		iters.Inc()
		if changed == 0 && iter > 0 {
			break
		}
		// Recompute centers.
		for i := range sc.sums.Data {
			sc.sums.Data[i] = 0
		}
		for i := range sc.sizes {
			sc.sizes[i] = 0
		}
		for i := 0; i < n; i++ {
			c := sc.assign[i]
			sc.sizes[c]++
			kernel.Add(sc.sums.Row(c), data.Row(i))
		}
		hasEmpty := false
		for _, s := range sc.sizes {
			if s == 0 {
				hasEmpty = true
				break
			}
		}
		if hasEmpty {
			// Reseeds pick the point farthest from its assigned center;
			// bounded rows may hold stale distances, so refresh them
			// against the centers the assignment pass used.
			exactAssignedDist2(data, centers, dataNorm, centerNorm, sc, workers)
		}
		copy(sc.prev.Data, centers.Data)
		for c := 0; c < k; c++ {
			if sc.sizes[c] == 0 {
				// Re-seed an empty cluster at the point farthest from
				// its assigned center. Zeroing the winner keeps a second
				// empty cluster from grabbing the same point.
				far, farDist := 0, -1.0
				for i, dd := range sc.dist2 {
					if dd > farDist {
						far, farDist = i, dd
					}
				}
				copy(centers.Row(c), data.Row(far))
				sc.dist2[far] = 0
				continue
			}
			src := sc.sums.Row(c)
			dst := centers.Row(c)
			inv := 1 / float64(sc.sizes[c])
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
		// How far every center moved, for the next pass's bound updates.
		deltaMax = 0
		for c := 0; c < k; c++ {
			dc := kernel.Distance(sc.prev.Row(c), centers.Row(c))
			sc.delta[c] = dc
			if dc > deltaMax {
				deltaMax = dc
			}
		}
		updateCenterNorms()
	}

	// Final exact assignment pass and inertia, the latter reduced from
	// per-chunk partials in chunk order (worker-count independent). The
	// full scan also guarantees the returned assignments and distances
	// are exact regardless of how the bounds steered the iteration.
	assignFull(data, centers, dataNorm, centerNorm, sc, workers)
	for i := range sc.sizes {
		sc.sizes[i] = 0
	}
	for _, c := range sc.assign {
		sc.sizes[c]++
	}
	inertiaParts := make([]float64, par.Chunks(n, 0))
	par.ForChunks(workers, n, 0, func(chunk, lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += sc.dist2[i]
		}
		inertiaParts[chunk] = s
	})
	var inertia float64
	for _, p := range inertiaParts {
		inertia += p
	}
	return &Result{K: k, Assignments: sc.assign, Centers: centers, Sizes: sc.sizes, Inertia: inertia}
}

// seedPlusPlus selects k initial centers with the k-means++ D² weighting,
// writing them into centers and using dist2 as its D² working array.
func seedPlusPlus(data *stats.Matrix, k int, rng *rand.Rand, centers *stats.Matrix, dist2 []float64) {
	n := data.Rows
	first := rng.Intn(n)
	copy(centers.Row(0), data.Row(first))

	for i := 0; i < n; i++ {
		dist2[i] = kernel.SquaredDistance(data.Row(i), centers.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range dist2[:n] {
			total += v
		}
		idx := 0
		if total > 0 {
			x := rng.Float64() * total
			for i, v := range dist2[:n] {
				if x < v {
					idx = i
					break
				}
				x -= v
			}
		} else {
			idx = rng.Intn(n)
		}
		copy(centers.Row(c), data.Row(idx))
		for i := 0; i < n; i++ {
			if d2 := kernel.SquaredDistance(data.Row(i), centers.Row(c)); d2 < dist2[i] {
				dist2[i] = d2
			}
		}
	}
}

// bic scores a clustering with the spherical-Gaussian Bayesian Information
// Criterion (Pelleg & Moore's X-means formulation): higher is better. The
// score trades goodness of fit against the number of clusters, as the
// paper's section 2.6 describes.
func bic(data *stats.Matrix, res *Result) float64 {
	r := float64(data.Rows)
	m := float64(data.Cols)
	k := float64(res.K)
	if data.Rows <= res.K {
		return math.Inf(-1)
	}
	sigma2 := res.Inertia / (m * (r - k))
	if sigma2 < 1e-12 {
		sigma2 = 1e-12
	}
	var loglik float64
	for _, size := range res.Sizes {
		if size > 0 {
			rn := float64(size)
			loglik += rn * math.Log(rn/r)
		}
	}
	loglik += -(r*m/2)*math.Log(2*math.Pi*sigma2) - m*(r-k)/2
	params := (k - 1) + m*k + 1
	return loglik - params/2*math.Log(r)
}

// Representatives returns, for each cluster, the index of the data row
// closest to the cluster center — the paper's per-cluster representative
// instruction interval. It uses the same cached-norm expansion as the
// assignment kernel (|x-c|² = |x|² - 2·x·c + |c|², squared distances
// compare monotonically) instead of a per-row euclid call.
func (r *Result) Representatives(data *stats.Matrix) []int {
	reps := make([]int, r.K)
	best := make([]float64, r.K)
	for c := range reps {
		reps[c] = -1
		best[c] = math.Inf(1)
	}
	centerNorm := make([]float64, r.K)
	kernel.RowSquaredNorms(r.Centers.Data, r.K, r.Centers.Cols, centerNorm)
	for i := 0; i < data.Rows; i++ {
		c := r.Assignments[i]
		row := data.Row(i)
		d2 := kernel.SquaredNorm(row) + centerNorm[c] - 2*kernel.Dot(row, r.Centers.Row(c))
		if d2 < 0 {
			d2 = 0
		}
		if d2 < best[c] {
			best[c] = d2
			reps[c] = i
		}
	}
	return reps
}

// Weights returns each cluster's fraction of the data set.
func (r *Result) Weights() []float64 {
	out := make([]float64, r.K)
	total := float64(len(r.Assignments))
	if total == 0 {
		return out
	}
	for c, s := range r.Sizes {
		out[c] = float64(s) / total
	}
	return out
}

// ByWeight returns cluster indices sorted by decreasing weight.
func (r *Result) ByWeight() []int {
	idx := make([]int, r.K)
	for i := range idx {
		idx[i] = i
	}
	// sort.Slice is unstable, so equal-size clusters need an explicit
	// tie-break on the cluster index to keep the prominent-phase order
	// (and everything derived from it) deterministic.
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := r.Sizes[idx[a]], r.Sizes[idx[b]]
		if sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// AvgWithinClusterDistance returns the mean distance of points to their
// cluster center — the "variability within each cluster" of the paper's
// coverage/variability trade-off. Like Representatives, it reuses cached
// center norms rather than recomputing a euclid difference per row.
func (r *Result) AvgWithinClusterDistance(data *stats.Matrix) float64 {
	if data.Rows == 0 {
		return 0
	}
	centerNorm := make([]float64, r.K)
	kernel.RowSquaredNorms(r.Centers.Data, r.K, r.Centers.Cols, centerNorm)
	var total float64
	for i := 0; i < data.Rows; i++ {
		c := r.Assignments[i]
		row := data.Row(i)
		d2 := kernel.SquaredNorm(row) + centerNorm[c] - 2*kernel.Dot(row, r.Centers.Row(c))
		if d2 < 0 {
			d2 = 0
		}
		total += math.Sqrt(d2)
	}
	return total / float64(data.Rows)
}

// SelectK runs k-means for every k in [kmin, kmax] and picks the result
// with the SimPoint heuristic (Sherwood et al.): the smallest k whose BIC
// score reaches at least frac (typically 0.9) of the way from the worst to
// the best BIC observed. Raw BIC maximization is too conservative on small
// samples; the heuristic trades a little fit for far fewer clusters.
//
// The k range is evaluated concurrently (this is the inner loop of the
// per-benchmark timeline analyses); each k's fit is independent and
// deterministic, and the winner is chosen by a serial scan in ascending k,
// so the selection does not depend on opts.Workers.
func SelectK(data *stats.Matrix, kmin, kmax int, frac float64, opts Options) (*Result, error) {
	if kmin < 1 || kmax < kmin {
		return nil, fmt.Errorf("cluster: invalid k range [%d,%d]", kmin, kmax)
	}
	if kmax >= data.Rows {
		kmax = data.Rows - 1
	}
	if kmax < kmin {
		kmax = kmin
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("cluster: BIC fraction %v out of [0,1]", frac)
	}
	results := make([]*Result, kmax-kmin+1)
	errs := make([]error, len(results))
	opts.Metrics.Add("kmeans.selectk_fits", int64(len(results)))
	par.For(par.Workers(opts.Workers), len(results), func(i int) {
		results[i], errs[i] = KMeans(data, kmin+i, opts)
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, res := range results {
		if res.BIC < lo {
			lo = res.BIC
		}
		if res.BIC > hi {
			hi = res.BIC
		}
	}
	if hi <= lo {
		return results[0], nil // all scores equal: smallest k
	}
	threshold := lo + frac*(hi-lo)
	for _, res := range results {
		if res.BIC >= threshold {
			return res, nil
		}
	}
	return results[len(results)-1], nil
}
