package fcache

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// blob is a minimal BinaryMarshaler for exercising PutBinary.
type blob struct{ data []byte }

func (b *blob) MarshalBinary() ([]byte, error) {
	return append([]byte(nil), b.data...), nil
}

// TestBinaryRoundTrip: a structured artifact stored through PutBinary
// reads back through Get as exactly its marshalled bytes.
func TestBinaryRoundTrip(t *testing.T) {
	c := testCache(t)
	k := testKey()
	k.Kind = KindPCA
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache returned a hit")
	}
	in := &blob{data: []byte("structured artifact payload")}
	if err := c.PutBinary(k, in); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("stored artifact missed")
	}
	if !bytes.Equal(got, in.data) {
		t.Fatalf("payload = %q, want %q", got, in.data)
	}
}

func TestKindNames(t *testing.T) {
	want := map[uint16]string{
		KindVector:   "vector",
		KindTrace:    "trace",
		KindShard:    "shard",
		KindPCA:      "pca",
		KindScores:   "scores",
		KindCluster:  "cluster",
		KindSummary:  "summary",
		KindTimeline: "timeline",
	}
	if len(want) != int(maxKind) {
		t.Fatalf("test covers %d kinds, maxKind = %d — update both", len(want), maxKind)
	}
	for kind, name := range want {
		if got := KindName(kind); got != name {
			t.Fatalf("KindName(%d) = %q, want %q", kind, got, name)
		}
	}
	if got := KindName(99); got != "kind99" {
		t.Fatalf("KindName(99) = %q", got)
	}
}

// TestPerKindCounters pins that traffic splits per artifact kind: a shard
// miss and hit must show under fcache.{misses,hits}.shard and also in the
// kind-blind totals.
func TestPerKindCounters(t *testing.T) {
	c := testCache(t)
	m := obs.New()
	c.SetMetrics(m)
	k := testKey()
	k.Kind = KindShard

	if _, ok := c.Get(k); ok {
		t.Fatal("unexpected hit")
	}
	if err := c.PutBinary(k, &blob{data: []byte("shard bytes")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("stored shard missed")
	}

	val := func(name string) int64 { return m.Counter(name).Value() }
	if val("fcache.misses.shard") != 1 || val("fcache.hits.shard") != 1 {
		t.Fatalf("shard counters: hits=%d misses=%d, want 1/1",
			val("fcache.hits.shard"), val("fcache.misses.shard"))
	}
	if val("fcache.misses") != 1 || val("fcache.hits") != 1 {
		t.Fatalf("totals: hits=%d misses=%d, want 1/1", val("fcache.hits"), val("fcache.misses"))
	}
	if val("fcache.hits.vector") != 0 || val("fcache.misses.vector") != 0 {
		t.Fatal("shard traffic leaked into the vector counters")
	}
}
