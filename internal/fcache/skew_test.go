package fcache

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestVersionSkewIsMissAndCounted plants an entry whose stored header
// carries an older schema version at the current key's path — the shape
// an out-of-date writer (or a hand-copied cache) leaves behind. The read
// must miss, delete the entry, and count the skew distinctly from plain
// corruption.
func TestVersionSkewIsMissAndCounted(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	c.SetMetrics(m)

	k := Key{Kind: KindShard, Version: 3, Behavior: 11, Seed: 22, Length: 33}
	stale := k
	stale.Version = 2
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, EncodeEntry(stale, []byte("old payload")), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(k); ok {
		t.Fatal("entry with skewed schema version served as a hit")
	}
	if got := m.Counter("fcache.version_skew").Value(); got != 1 {
		t.Errorf("fcache.version_skew = %d, want 1", got)
	}
	if got := m.Counter("fcache.corrupt_deleted").Value(); got != 1 {
		t.Errorf("fcache.corrupt_deleted = %d, want 1", got)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("skewed entry was not deleted")
	}

	// A genuinely corrupt entry must not count as skew.
	if err := c.Put(k, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if got := m.Counter("fcache.version_skew").Value(); got != 1 {
		t.Errorf("fcache.version_skew after corruption = %d, want still 1", got)
	}
	if got := m.Counter("fcache.corrupt_deleted").Value(); got != 2 {
		t.Errorf("fcache.corrupt_deleted = %d, want 2", got)
	}
}
