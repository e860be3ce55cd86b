package fcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestGetOrComputeSingleflight is the core concurrency contract: K
// goroutines asking for the same missing key run exactly one compute,
// and every caller gets identical bytes.
func TestGetOrComputeSingleflight(t *testing.T) {
	c := testCache(t)
	k := testKey()
	want := []byte("expensive artifact")
	var computes atomic.Int64

	const K = 16
	var wg sync.WaitGroup
	results := make([][]byte, K)
	errs := make([]error, K)
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, _, err := c.GetOrCompute(k, func() ([]byte, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return append([]byte(nil), want...), nil
			})
			results[i], errs[i] = p, err
		}(i)
	}
	close(start)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("caller %d payload = %q, want %q", i, results[i], want)
		}
	}
	// The claim must be released once the flight lands.
	if _, err := os.Stat(c.path(k) + claimSuffix); !os.IsNotExist(err) {
		t.Fatalf("claim file left behind (stat err = %v)", err)
	}
}

// TestGetOrComputePrivateBuffers checks waiters never alias the leader's
// payload: mutating one caller's result must not corrupt another's.
func TestGetOrComputePrivateBuffers(t *testing.T) {
	c := testCache(t)
	k := testKey()
	const K = 8
	var wg sync.WaitGroup
	results := make([][]byte, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.GetOrCompute(k, func() ([]byte, error) {
				time.Sleep(10 * time.Millisecond)
				return []byte("pristine"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}(i)
	}
	wg.Wait()
	results[0][0] = 'X'
	for i := 1; i < K; i++ {
		if string(results[i]) != "pristine" {
			t.Fatalf("caller %d saw mutation through caller 0's buffer: %q", i, results[i])
		}
	}
}

// TestGetOrComputeHit short-circuits entirely when the entry exists.
func TestGetOrComputeHit(t *testing.T) {
	c := testCache(t)
	k := testKey()
	if err := c.Put(k, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	p, computed, err := c.GetOrCompute(k, func() ([]byte, error) {
		t.Fatal("compute ran despite a cache hit")
		return nil, nil
	})
	if err != nil || computed || string(p) != "cached" {
		t.Fatalf("got (%q, computed=%v, %v), want (cached, false, nil)", p, computed, err)
	}
}

// TestGetOrComputeErrorPropagates delivers the leader's compute error to
// every in-process waiter, and a later call retries.
func TestGetOrComputeErrorPropagates(t *testing.T) {
	c := testCache(t)
	k := testKey()
	boom := errors.New("generation failed")
	var computes atomic.Int64

	const K = 6
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompute(k, func() ([]byte, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond)
				return nil, boom
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d err = %v, want %v", i, err, boom)
		}
	}
	// The failed flight must not wedge the key: a retry computes afresh.
	p, computed, err := c.GetOrCompute(k, func() ([]byte, error) {
		computes.Add(1)
		return []byte("second try"), nil
	})
	if err != nil || !computed || string(p) != "second try" {
		t.Fatalf("retry got (%q, computed=%v, %v)", p, computed, err)
	}
}

// TestGetOrComputeClaimWait exercises the cross-process path: a claim
// planted by "another process" makes this handle poll; when the entry
// appears and the claim lifts, the waiter serves it without computing.
func TestGetOrComputeClaimWait(t *testing.T) {
	c := testCache(t)
	k := testKey()
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	claim := p + claimSuffix
	if err := os.WriteFile(claim, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The "other process" finishes shortly: entry lands, claim lifts.
	go func() {
		time.Sleep(60 * time.Millisecond)
		if err := c.Put(k, []byte("from the other process")); err != nil {
			t.Error(err)
		}
		os.Remove(claim)
	}()

	payload, computed, err := c.GetOrCompute(k, func() ([]byte, error) {
		return nil, errors.New("should have waited, not computed")
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed {
		t.Fatal("waiter computed despite the other process's entry")
	}
	if string(payload) != "from the other process" {
		t.Fatalf("payload = %q", payload)
	}
}

// TestGetOrComputeStaleClaimTakeover: a claim whose holder died (old
// mtime, never refreshed) is taken over instead of waited on forever.
func TestGetOrComputeStaleClaimTakeover(t *testing.T) {
	oldTTL := claimTTL
	claimTTL = 80 * time.Millisecond
	defer func() { claimTTL = oldTTL }()

	c := testCache(t)
	m := obs.New()
	c.SetMetrics(m)
	k := testKey()
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	claim := p + claimSuffix
	if err := os.WriteFile(claim, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dead := time.Now().Add(-time.Hour)
	if err := os.Chtimes(claim, dead, dead); err != nil {
		t.Fatal(err)
	}

	payload, computed, err := c.GetOrCompute(k, func() ([]byte, error) {
		return []byte("taken over"), nil
	})
	if err != nil || !computed || string(payload) != "taken over" {
		t.Fatalf("got (%q, computed=%v, %v), want takeover compute", payload, computed, err)
	}
	rep := m.Snapshot()
	if rep.Counters["fcache.claim_takeovers"] == 0 {
		t.Fatal("stale-claim takeover not counted")
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("takeover compute did not persist the entry")
	}
}

// TestGetOrComputeDistinctKeys: different keys do not serialize behind
// TestLeaderRereadsUnderClaim: a caller that missed, then became leader
// after the previous leader stored the entry and released its claim,
// serves that entry instead of computing it again.
func TestLeaderRereadsUnderClaim(t *testing.T) {
	c := testCache(t)
	k := testKey()
	if err := c.Put(k, []byte("stored by the previous leader")); err != nil {
		t.Fatal(err)
	}
	p, computed, err := c.computeAsLeader(k, c.path(k), func() ([]byte, error) {
		t.Fatal("leader recomputed an entry already stored")
		return nil, nil
	})
	if err != nil || computed || string(p) != "stored by the previous leader" {
		t.Fatalf("computeAsLeader = (%q, %v, %v), want the stored entry", p, computed, err)
	}
	if _, err := os.Stat(c.path(k) + claimSuffix); !os.IsNotExist(err) {
		t.Fatalf("claim file left behind (stat err = %v)", err)
	}
}

// one another's flights.
func TestGetOrComputeDistinctKeys(t *testing.T) {
	c := testCache(t)
	const K = 8
	var wg sync.WaitGroup
	var computes atomic.Int64
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := testKey()
			k.Seed = uint64(i)
			p, _, err := c.GetOrCompute(k, func() ([]byte, error) {
				computes.Add(1)
				return []byte(fmt.Sprintf("artifact %d", i)), nil
			})
			if err != nil {
				t.Error(err)
			}
			if want := fmt.Sprintf("artifact %d", i); string(p) != want {
				t.Errorf("key %d payload = %q, want %q", i, p, want)
			}
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != K {
		t.Fatalf("computes = %d, want %d (one per distinct key)", n, K)
	}
}

// TestSweepAgeGating: the stale sweep is mtime-gated — a freshly created
// temp (a live Put in another process) and a fresh claim (a live compute)
// survive, while hour-old orphans of both flavors are reclaimed.
func TestSweepAgeGating(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab", "cd")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	freshTemp := filepath.Join(sub, tempPrefix+"fresh")
	freshClaim := filepath.Join(sub, "0123456789abcdef.fc"+claimSuffix)
	staleTemp := filepath.Join(sub, tempPrefix+"stale")
	staleClaim := filepath.Join(sub, "fedcba9876543210.fc"+claimSuffix)
	entry := filepath.Join(sub, "0123456789abcdef.fc")
	for _, f := range []string{freshTemp, freshClaim, staleTemp, staleClaim, entry} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	for _, f := range []string{staleTemp, staleClaim, entry} {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}

	if swept := sweepStaleTemps(dir); swept != 2 {
		t.Fatalf("swept = %d, want 2 (the stale temp and the stale claim)", swept)
	}
	for _, f := range []string{freshTemp, freshClaim, entry} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("%s should have survived the sweep: %v", filepath.Base(f), err)
		}
	}
	for _, f := range []string{staleTemp, staleClaim} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("%s should have been reclaimed (err = %v)", filepath.Base(f), err)
		}
	}
}
