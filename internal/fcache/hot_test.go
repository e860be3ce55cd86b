package fcache

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/obs"
)

// hotTestCache opens a cache with a hot tier of the given budget and
// tears the tier down with the test (the tier registry is process
// global; leaking one would bleed into other tests' t.TempDir caches).
func hotTestCache(t *testing.T, budget int64) *Cache {
	t.Helper()
	dir := t.TempDir()
	EnableHotTier(dir, budget)
	t.Cleanup(func() { EnableHotTier(dir, 0) })
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHotTierServesFromMemory: once an entry is resident, the tier
// answers even after the disk entry disappears — proof the read never
// touched disk.
func TestHotTierServesFromMemory(t *testing.T) {
	c := hotTestCache(t, 1<<20)
	m := obs.New()
	c.SetMetrics(m)
	k := testKey()
	want := []byte("resident payload")
	if err := c.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(c.path(k)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("hot tier miss after Put: got (%q, %v)", got, ok)
	}
	rep := m.Snapshot()
	if rep.Counters["fcache.hot_hits"] == 0 {
		t.Fatal("hot hit not counted")
	}
}

// TestHotTierPrivateCopies: bytes handed out by the tier must not alias
// the tier's resident buffer or each other.
func TestHotTierPrivateCopies(t *testing.T) {
	c := hotTestCache(t, 1<<20)
	k := testKey()
	if err := c.Put(k, []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	a, _ := c.Get(k)
	a[0] = 'X'
	b, ok := c.Get(k)
	if !ok || string(b) != "pristine" {
		t.Fatalf("tier payload corrupted through a caller's buffer: %q", b)
	}
}

// TestHotTierEviction: a byte budget holds — inserting past it evicts
// the least recently used entries, and a recently touched entry is
// spared over a colder one.
func TestHotTierEviction(t *testing.T) {
	payload := make([]byte, 256)
	budget := int64(3) * (int64(len(payload)) + hotOverhead)
	c := hotTestCache(t, budget)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = testKey()
		keys[i].Seed = uint64(i)
	}
	tier := c.tier()

	for i := 0; i < 3; i++ {
		tier.put(keys[i], payload)
	}
	// Touch key 0 so key 1 is now the LRU victim.
	if _, ok := tier.get(keys[0]); !ok {
		t.Fatal("key 0 should be resident")
	}
	evicted, _ := tier.put(keys[3], payload)
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if _, ok := tier.get(keys[1]); ok {
		t.Fatal("key 1 (LRU) should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := tier.get(keys[i]); !ok {
			t.Fatalf("key %d should be resident", i)
		}
	}
	if got := tier.bytes(); got > budget {
		t.Fatalf("resident bytes %d exceed budget %d", got, budget)
	}
}

// TestHotTierOversizedPayload: a payload larger than the whole budget is
// passed through without evicting everything else.
func TestHotTierOversizedPayload(t *testing.T) {
	c := hotTestCache(t, 512)
	small := testKey()
	if err := c.Put(small, []byte("small")); err != nil {
		t.Fatal(err)
	}
	big := testKey()
	big.Seed = 999
	if err := c.Put(big, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.tier().get(big); ok {
		t.Fatal("oversized payload should not be resident")
	}
	if _, ok := c.tier().get(small); !ok {
		t.Fatal("small entry should have survived the oversized Put")
	}
}

// TestHotTierDropOnCorrupt: deleting a corrupt disk entry must also
// purge the hot copy, or the tier would serve bytes the disk disowned.
func TestHotTierDropOnCorrupt(t *testing.T) {
	c := hotTestCache(t, 1<<20)
	k := testKey()
	if err := c.Put(k, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	// A wrong-size vector read deletes the entry as corrupt.
	if _, ok := c.GetVector(k, 7); ok {
		t.Fatal("wrong-size vector should miss")
	}
	if _, ok := c.tier().get(k); ok {
		t.Fatal("hot tier retained a payload whose disk entry was deleted as corrupt")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("entry should be gone for every reader")
	}
}

// TestHotTierDisabledByDefault: a plain Open has no tier, and reads and
// writes go to disk alone.
func TestHotTierDisabledByDefault(t *testing.T) {
	c := testCache(t) // plain Open, no EnableHotTier
	if c.tier() != nil {
		t.Fatal("hot tier should be off by default")
	}
	k := testKey()
	if err := c.Put(k, []byte("disk only")); err != nil {
		t.Fatal(err)
	}
	if p, ok := c.Get(k); !ok || string(p) != "disk only" {
		t.Fatalf("disk path broken without hot tier: (%q, %v)", p, ok)
	}
}

// TestHotTierResize: re-enabling with a smaller budget evicts down.
func TestHotTierResize(t *testing.T) {
	payload := make([]byte, 256)
	per := int64(len(payload)) + hotOverhead
	c := hotTestCache(t, 4*per)
	for i := 0; i < 4; i++ {
		k := testKey()
		k.Seed = uint64(i)
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.tier().bytes(); got != 4*per {
		t.Fatalf("resident bytes = %d, want %d", got, 4*per)
	}
	EnableHotTier(c.Dir(), 2*per)
	if got := c.tier().bytes(); got > 2*per {
		t.Fatalf("resize did not evict: %d bytes resident, budget %d", got, 2*per)
	}
}

// TestHotTierReachesOpenHandles: a handle opened before the first
// EnableHotTier uses the tier from then on, and stops using it once the
// tier is removed.
func TestHotTierReachesOpenHandles(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { EnableHotTier(dir, 0) })
	EnableHotTier(dir, 1<<20)
	k := testKey()
	if err := c.Put(k, []byte("after enable")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.tier().get(k); !ok {
		t.Fatal("a handle opened before EnableHotTier did not populate the tier")
	}

	EnableHotTier(dir, 0)
	if c.tier() != nil {
		t.Fatal("a handle opened before the tier was removed still holds it")
	}
	k.Seed++
	if err := c.Put(k, []byte("after disable")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(c.path(k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("a removed tier still served an entry whose disk copy is gone")
	}
}

// TestHotTierSharedAcrossPathSpellings: the tier is keyed by the cleaned
// directory, so "dir" and "dir/" name one tier.
func TestHotTierSharedAcrossPathSpellings(t *testing.T) {
	dir := t.TempDir()
	EnableHotTier(dir+"/", 1<<20)
	t.Cleanup(func() { EnableHotTier(dir, 0) })
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir + "/")
	if err != nil {
		t.Fatal(err)
	}
	if a.tier() == nil || a.tier() != b.tier() {
		t.Fatalf("tiers for %q and %q differ: %p vs %p", dir, dir+"/", a.tier(), b.tier())
	}
	EnableHotTier(dir, 0)
	if b.tier() != nil {
		t.Fatal("removing the tier under one spelling left it under the other")
	}
}
