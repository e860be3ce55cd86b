package serve

// Coordinator side of distributed characterization. Distribute assigns
// the run's shards across the configured workers (shard i starts on worker i%W,
// each worker handling one request at a time), retries transient
// failures with capped exponential backoff plus seeded jitter, and on a
// worker's final failure reassigns its pending shards to the survivors —
// or, when no workers remain, abandons them to local computation. Every
// reply is a shard's fcache entry, verified by core.PutShardArtifact
// (checksum, schema version, dataset identity and shard coordinates in
// one key check, then interval coverage) before it is stored through
// the ordinary fcache shard kind, so the subsequent merge run reads
// exactly what a single-process run would have computed. The invariant:
// for any worker count and any fault schedule, the merged result is
// byte-identical to a local run. Retry timing (the jitter Seed) can
// change how long a run takes, never its bytes.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	defaultTimeout     = 30 * time.Second
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffCap  = 2 * time.Second
)

// Coordinator distributes shard computations across HTTP workers.
type Coordinator struct {
	// Workers are the worker base URLs ("http://host:port"). Bare
	// host:port is accepted.
	Workers []string
	// Timeout is the per-request deadline (0 = 30s).
	Timeout time.Duration
	// Retries is how many extra attempts each worker gets per shard
	// before it is declared dead (negative = 0).
	Retries int
	// BackoffBase / BackoffCap shape the exponential retry backoff
	// (0 = 50ms / 2s). Each retry waits base<<(attempt-1), capped, with
	// ±50% seeded jitter.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter only; it never affects result bytes.
	Seed int64
	// Transport overrides the HTTP transport (nil =
	// http.DefaultTransport). Tests and the CLI wrap it with *Faults.
	Transport http.RoundTripper
	// Metrics receives the rpc.* counters and the rpc.distribute span.
	Metrics *obs.Metrics
	// Logf receives per-event logging. Nil disables it.
	Logf func(string, ...any)
}

// DistributeStats summarizes one Distribute call.
type DistributeStats struct {
	// Shards is the total shard count of the run.
	Shards int
	// Remote / Local split the shards into worker-computed and
	// abandoned-to-local-computation.
	Remote, Local int
	// Retries counts same-worker re-attempts; Reassigned counts shards
	// moved from a dead worker to the survivor pool.
	Retries, Reassigned int
	// Timeouts counts attempts that hit the per-request deadline.
	Timeouts int
	// DeadWorkers is how many workers were declared dead.
	DeadWorkers int
	// Bytes is the total shard entry bytes read.
	Bytes int64
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Coordinator) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

func (c *Coordinator) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 0
}

func (c *Coordinator) backoff(attempt int) time.Duration {
	base, cap := c.BackoffBase, c.BackoffCap
	if base <= 0 {
		base = defaultBackoffBase
	}
	if cap <= 0 {
		cap = defaultBackoffCap
	}
	d := base << (attempt - 1)
	if d > cap || d <= 0 {
		d = cap
	}
	return d
}

// dispatcher is the shared scheduling state: per-worker queues, the
// orphan pool fed by dead workers, and completion accounting.
type dispatcher struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queues      [][]int
	orphans     []int
	alive       []bool
	aliveCount  int
	outstanding int
	stats       DistributeStats
}

// next blocks until worker w has a shard to run, every shard is
// settled, or w is dead. ok reports whether a shard was claimed.
func (d *dispatcher) next(w int) (shard int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if !d.alive[w] || d.outstanding == 0 {
			return 0, false
		}
		if q := d.queues[w]; len(q) > 0 {
			d.queues[w] = q[1:]
			return q[0], true
		}
		if len(d.orphans) > 0 {
			shard = d.orphans[0]
			d.orphans = d.orphans[1:]
			return shard, true
		}
		d.cond.Wait()
	}
}

// done settles one shard as worker-computed.
func (d *dispatcher) done(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Remote++
	d.stats.Bytes += bytes
	d.outstanding--
	if d.outstanding == 0 {
		d.cond.Broadcast()
	}
}

// addStat mutates the in-flight stats under the dispatcher lock.
func (d *dispatcher) addStat(f func(*DistributeStats)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

// kill declares worker w dead while it holds shard. The shard and w's
// remaining queue move to the orphan pool when survivors exist;
// otherwise every unsettled shard is abandoned to local computation.
// Returns how many shards were reassigned and how many abandoned.
func (d *dispatcher) kill(w, shard int) (reassigned, abandoned int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alive[w] = false
	d.aliveCount--
	d.stats.DeadWorkers++
	pending := append([]int{shard}, d.queues[w]...)
	d.queues[w] = nil
	if d.aliveCount > 0 {
		d.orphans = append(d.orphans, pending...)
		sort.Ints(d.orphans)
		reassigned = len(pending)
		d.stats.Reassigned += reassigned
	} else {
		pending = append(pending, d.orphans...)
		d.orphans = nil
		abandoned = len(pending)
		d.stats.Local += abandoned
		d.outstanding -= abandoned
	}
	d.cond.Broadcast()
	return reassigned, abandoned
}

// Distribute computes the cfg.Shard.Count shards of (reg, cfg) on the
// workers and stores every verified artifact in cfg.CacheDir. It returns
// once all shards are settled — computed remotely or left for the merge
// run to compute locally. A fully successful run leaves Local == 0; a
// run that lost every worker leaves Local == Shards. Either way the
// caller proceeds with core.Run unchanged.
func (c *Coordinator) Distribute(reg *bench.Registry, cfg core.Config) (*DistributeStats, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("serve: no workers configured")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("serve: distributing shards needs a cache directory")
	}
	n := cfg.Shard.Count
	if n < 1 {
		n = 1
	}
	if n > reg.Len() {
		// Workers refuse such requests (400): at most one shard per
		// benchmark keeps what a caller can make a worker plan bounded.
		return nil, fmt.Errorf("serve: %d shards of a %d-benchmark registry (at most one shard per benchmark)", n, reg.Len())
	}
	hash, err := core.DatasetHash(reg, cfg)
	if err != nil {
		return nil, err
	}
	httpClient := &http.Client{Transport: c.Transport}
	workers := make([]*Client, len(c.Workers))
	for i, w := range c.Workers {
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		workers[i] = &Client{Base: w, HTTP: httpClient}
	}

	span := c.Metrics.StartSpan("rpc.distribute").SetRows(n).SetWorkers(len(workers))
	d := &dispatcher{
		queues:      make([][]int, len(workers)),
		alive:       make([]bool, len(workers)),
		aliveCount:  len(workers),
		outstanding: n,
	}
	d.cond = sync.NewCond(&d.mu)
	d.stats.Shards = n
	for s := 0; s < n; s++ {
		w := s % len(workers)
		d.queues[w] = append(d.queues[w], s)
	}
	for i := range workers {
		d.alive[i] = true
	}

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Jitter RNG is per worker so backoff sequences are independent
			// of scheduling across workers.
			rng := trace.NewRNG(uint64(c.Seed) ^ trace.Hash64(uint64(w)))
			for {
				shard, ok := d.next(w)
				if !ok {
					return
				}
				nbytes, err := c.fetchShard(workers[w], reg, cfg, shard, n, hash, rng, d)
				if err == nil {
					d.done(nbytes)
					continue
				}
				c.logf("serve: worker %d (%s) failed shard %d/%d: %v", w, workers[w].Base, shard, n, err)
				reassigned, abandoned := d.kill(w, shard)
				c.Metrics.Counter("rpc.reassigned").Add(int64(reassigned))
				if abandoned > 0 {
					c.logf("serve: no workers left, computing %d shard(s) locally", abandoned)
				}
				return
			}
		}(w)
	}
	wg.Wait()

	d.mu.Lock()
	stats := d.stats
	d.mu.Unlock()
	span.SetBytes(stats.Bytes).End()
	c.logf("serve: distributed %d/%d shard(s) across %d worker(s) (%d dead, %d reassigned, %d retries)",
		stats.Remote, stats.Shards, len(workers), stats.DeadWorkers, stats.Reassigned, stats.Retries)
	return &stats, nil
}

// fetchShard runs the full attempt loop for one shard against one
// worker: request, verify, store. A nil error means the artifact is in
// the cache (the int64 is the accepted entry's size); any error means
// the worker is spent for this run.
func (c *Coordinator) fetchShard(worker *Client, reg *bench.Registry, cfg core.Config, shard, count int, hash uint64, rng *trace.RNG, d *dispatcher) (int64, error) {
	req := newShardRequest(cfg, shard, count, hash)
	shardCfg := cfg
	shardCfg.Shard = core.ShardSpec{Index: shard, Count: count}

	attempts := c.retries() + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.Metrics.Counter("rpc.retries").Add(1)
			d.addStat(func(s *DistributeStats) { s.Retries++ })
			wait := c.backoff(attempt)
			// ±50% jitter: deterministic per (seed, worker, attempt), and
			// irrelevant to result bytes by construction.
			wait = wait/2 + time.Duration(rng.Uint64n(uint64(wait)))
			time.Sleep(wait)
		}
		nbytes, err := c.tryShard(worker, req, reg, shardCfg)
		if err == nil {
			return nbytes, nil
		}
		lastErr = err
		if errors.Is(err, context.DeadlineExceeded) {
			c.Metrics.Counter("rpc.timeouts").Add(1)
			d.addStat(func(s *DistributeStats) { s.Timeouts++ })
		}
		// Only the worker's own 409 (version or dataset divergence) is
		// permanent. An entry that fails verification is transient: the
		// bytes may have been damaged in flight, a flipped version bit
		// included, and the next attempt can succeed.
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusConflict {
			return 0, err
		}
	}
	return 0, lastErr
}

// tryShard performs one request/verify/store attempt.
func (c *Coordinator) tryShard(worker *Client, req ShardRequest, reg *bench.Registry, shardCfg core.Config) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	c.Metrics.Counter("rpc.sent").Add(1)
	entry, err := worker.Shard(ctx, req)
	if err != nil {
		return 0, err
	}
	nbytes := int64(len(entry))
	c.Metrics.Counter("rpc.bytes").Add(nbytes)
	if _, err := core.PutShardArtifact(reg, shardCfg, entry); err != nil {
		return nbytes, err
	}
	return nbytes, nil
}
