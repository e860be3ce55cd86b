package trace

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro-style over a splitmix64-expanded seed). Every synthetic interval
// is generated from its own RNG seeded by (benchmark, interval), which makes
// interval contents reproducible without storing traces.
type RNG struct {
	s0, s1 uint64
}

// splitmix64 is the seed expander recommended for xorshift-family
// generators; it also serves as the general-purpose hash used for
// deterministic per-entity parameters (per-branch patterns, seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 mixes an arbitrary 64-bit value into a well-distributed hash.
func Hash64(x uint64) uint64 { return splitmix64(x) }

// HashString hashes a string deterministically (FNV-1a folded through
// splitmix64), for stable per-benchmark seeds.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return splitmix64(h)
}

// NewRNG returns a generator seeded from seed. Two distinct seeds yield
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	r.s0 = splitmix64(seed)
	r.s1 = splitmix64(r.s0)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 pseudo-random bits (xoroshiro128+).
func (r *RNG) Uint64() uint64 {
	s0, s1 := r.s0, r.s1
	result := s0 + s1
	s1 ^= s0
	r.s0 = ((s0 << 55) | (s0 >> 9)) ^ s1 ^ (s1 << 14)
	r.s1 = (s1 << 36) | (s1 >> 28)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("trace: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with the given
// mean (support {1, 2, 3, ...}). A mean <= 1 always returns 1.
func (r *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// P(X = k) = p(1-p)^(k-1), mean = 1/p.
	p := 1 / mean
	// Inverse-CDF sampling; cap to keep pathological tails bounded.
	u := r.Float64()
	if u <= 0 {
		u = 1e-18
	}
	// k = ceil(ln(1-u)/ln(1-p))
	return geometricFrom(u, 1, p, p, 1-p)
}

// geometricFrom runs Geometric's inverse-CDF recurrence from k, where acc
// is P(X = k) and cum is P(X <= k), to the first k whose cum reaches u.
func geometricFrom(u float64, k int, acc, cum, q float64) int {
	for cum < u && k < 1<<20 {
		acc *= q
		cum += acc
		k++
	}
	return k
}

// geoTable is Geometric(mean) as a table search. cum holds the inverse-CDF
// recurrence's running sums P(X <= k), k = 1..len(cum), computed by the
// identical float operations, so the first entry >= u is the k Geometric's
// loop stops at. bucket narrows the search: for u in
// [j, j+1)/geoBuckets the answer's index is at least bucket[j], and is
// exactly that when geoExact is set, which at the means drawn holds for
// most buckets. A u beyond the table resumes Geometric's loop from the
// table's last term. Draws consume the RNG exactly as Geometric does.
type geoTable struct {
	cum    []float64 // nil: mean <= 1, every draw is 1 without an RNG draw
	bucket [geoBuckets]uint32
	q      float64 // 1 - p
	last   float64 // the recurrence's term at k = len(cum)
}

const (
	geoBuckets = 256
	geoExact   = 1 << 31
	// geoTableTail is the probability mass left beyond a table: building
	// stops once the running sum reaches 1-geoTableTail.
	geoTableTail = 1.0 / 1024
)

func newGeoTable(mean float64) *geoTable {
	t := &geoTable{}
	if mean <= 1 {
		return t
	}
	p := 1 / mean
	t.q, t.last, t.cum = 1-p, p, []float64{p}
	cum := p
	for cum < 1-geoTableTail && len(t.cum) < 1<<20 {
		t.last *= t.q
		cum += t.last
		t.cum = append(t.cum, cum)
	}
	// For bucket j, i and hi index the first entries >= its lower and
	// upper bounds (len(cum) if none); it is exact when they agree on an
	// in-table index.
	i := 0
	for j := range t.bucket {
		for i < len(t.cum) && !(t.cum[i] >= float64(j)/geoBuckets) {
			i++
		}
		hi := i
		for hi < len(t.cum) && !(t.cum[hi] >= float64(j+1)/geoBuckets) {
			hi++
		}
		t.bucket[j] = uint32(i)
		if hi == i && i < len(t.cum) {
			t.bucket[j] |= geoExact
		}
	}
	return t
}

// draw returns exactly what r.Geometric(mean) would.
func (t *geoTable) draw(r *RNG) int {
	if t.cum == nil {
		return 1
	}
	u := r.Float64()
	if u <= 0 {
		u = 1e-18
	}
	b := t.bucket[int(u*geoBuckets)&(geoBuckets-1)] // u < 1: the mask is an identity
	if b&geoExact != 0 {
		return int(b&^geoExact) + 1
	}
	for i := int(b); i < len(t.cum); i++ {
		if t.cum[i] >= u {
			return i + 1
		}
	}
	k := len(t.cum)
	return geometricFrom(u, k, t.last, t.cum[k-1], t.q)
}

// Jitter returns v scaled by a uniform factor in [1-amount, 1+amount],
// clamped to be non-negative.
func (r *RNG) Jitter(v, amount float64) float64 {
	if amount <= 0 {
		return v
	}
	f := 1 + amount*(2*r.Float64()-1)
	if f < 0 {
		f = 0
	}
	return v * f
}

// Pick returns an index sampled according to the non-negative weights. The
// weights need not be normalized; if they sum to zero, Pick returns 0.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
