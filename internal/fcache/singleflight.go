package fcache

// Concurrent-run isolation. The cache's atomic-rename writes make
// concurrent same-key writers *safe* (readers never see a torn entry)
// but not *cheap*: two runs that need the same missing artifact both
// burn a full compute, and only the last rename's bytes survive — which
// is fine for correctness (all writers produce identical bytes) and
// terrible for a multi-tenant service where tenants routinely submit the
// same job. GetOrCompute closes that gap for every artifact the pipeline
// reads back (dataset shards, PCA models, score matrices, clusterings,
// summaries and timelines all reach it through core's one load-or-compute
// path) at two levels:
//
//   - per-key in-process singleflight: concurrent goroutines (service
//     jobs) asking for one key elect a leader; the rest wait and read
//     the leader's entry from the cache (memory-speed with the hot tier).
//   - cross-process claim files: the leader stakes a sidecar ".claim"
//     file (O_CREATE|O_EXCL) next to the entry; another process finding
//     a fresh claim polls for the entry instead of computing. Claims are
//     advisory and age-gated — a claim whose holder died goes stale and
//     is taken over, and a waiter bounded out of patience computes
//     anyway. The worst failure mode is a duplicate compute (exactly
//     today's behavior), never a deadlock and never wrong bytes.
//
// A new leader re-reads the entry once its claim is staked: a previous
// leader that finished between this caller's miss and its claim has
// already stored the entry, and computing it again would be waste.

import (
	"os"
	"path/filepath"
	"sync"
	"time"
)

// claimSuffix marks in-flight compute claims; claim files live next to
// the entry they cover and are swept with the same age gate as temps.
const claimSuffix = ".claim"

// claimTTL is how long a claim is trusted without its holder refreshing
// the file's mtime. The leader touches its claim at claimTTL/2, so only
// a dead holder's claim ever goes stale. Variable for tests.
var claimTTL = 2 * time.Minute

// claimPoll is how often a claim waiter re-checks for the entry.
// Variable for tests.
var claimPoll = 20 * time.Millisecond

// flight is one in-process leader's in-flight computation.
type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// flights tracks in-flight computations per (dir, key-hash), process
// global so independent Cache handles on one directory still collapse
// concurrent computes.
var flights struct {
	sync.Mutex
	m map[string]*flight
}

// GetOrCompute returns the payload for k, computing it at most once per
// key across this process's goroutines and — best effort — across
// processes sharing the cache directory. computed reports whether this
// call ran compute itself (false: the payload was served from the cache,
// a concurrent leader, or another process). A compute error is returned
// to the leader and to every in-process waiter.
func (c *Cache) GetOrCompute(k Key, compute func() ([]byte, error)) (payload []byte, computed bool, err error) {
	if p, ok := c.Get(k); ok {
		return p, false, nil
	}
	id := c.path(k)
	for {
		flights.Lock()
		if flights.m == nil {
			flights.m = make(map[string]*flight)
		}
		if f, ok := flights.m[id]; ok {
			flights.Unlock()
			<-f.done
			c.sfShared.Inc()
			if f.err != nil {
				return nil, false, f.err
			}
			// Re-read rather than alias the leader's buffer: the entry is
			// on disk (and in the hot tier), and a fresh payload cannot
			// leak one caller's zero-copy decode into another's.
			if p, ok := c.Get(k); ok {
				return p, false, nil
			}
			// The leader computed but its Put failed; compute ourselves.
			continue
		}
		f := &flight{done: make(chan struct{})}
		flights.m[id] = f
		flights.Unlock()

		payload, computed, err = c.computeAsLeader(k, id, compute)
		f.payload, f.err = payload, err
		flights.Lock()
		delete(flights.m, id)
		flights.Unlock()
		close(f.done)
		return payload, computed, err
	}
}

// computeAsLeader is the in-process leader's path: stake the
// cross-process claim (or wait out another process's), compute, persist,
// release.
func (c *Cache) computeAsLeader(k Key, path string, compute func() ([]byte, error)) ([]byte, bool, error) {
	claim := path + claimSuffix
	deadline := time.Now().Add(claimTTL)
	for {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			break // claims are advisory; compute without one
		}
		cf, err := os.OpenFile(claim, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			cf.Close()
			if p, ok := c.get(k, nil); ok {
				os.Remove(claim)
				c.countHit(k.Kind)
				c.sfShared.Inc()
				return p, false, nil
			}
			stop := refreshClaim(claim)
			payload, cerr := compute()
			if cerr == nil {
				if perr := c.Put(k, payload); perr == nil {
					c.sfLeader.Inc()
				}
			}
			stop()
			os.Remove(claim)
			return payload, true, cerr
		}
		if !os.IsExist(err) {
			break
		}
		// Another process holds the claim: poll for the entry, take over
		// if the claim goes stale, and give up waiting at the deadline.
		c.claimWait.Inc()
		fresh := true
		for fresh && time.Now().Before(deadline) {
			time.Sleep(claimPoll)
			if p, ok := c.Get(k); ok {
				c.sfShared.Inc()
				return p, false, nil
			}
			info, serr := os.Stat(claim)
			switch {
			case serr != nil:
				// Claim released without an entry appearing (the holder
				// failed); race the other waiters for a fresh claim.
				fresh = false
			case time.Since(info.ModTime()) > claimTTL:
				os.Remove(claim)
				c.claimTakeover.Inc()
				fresh = false
			}
		}
		if time.Now().Before(deadline) {
			continue // re-race for the claim
		}
		break // out of patience: duplicate compute beats a deadlock
	}
	payload, cerr := compute()
	if cerr == nil {
		_ = c.Put(k, payload)
	}
	return payload, true, cerr
}

// refreshClaim keeps a claim's mtime fresh while its holder computes,
// so a legitimately long compute is never mistaken for a dead holder.
// The returned stop func must be called before releasing the claim.
func refreshClaim(claim string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(claimTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				now := time.Now()
				_ = os.Chtimes(claim, now, now)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
