package corpus

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrency tests for the snapshot model: queries run on an immutable
// snapshot without a lock, so nothing a writer or another reader does
// may wait for a scan, and nothing a writer publishes may change a scan
// already under way. Run under -race (scripts/verify.sh repeats them).

// within runs fn and fails the test if it does not return in time — the
// symptom of an operation stuck behind a parked scan.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked behind a parked uniqueness scan", what)
	}
}

// TestParkedScanDoesNotBlock parks a uniqueness scan after its first
// row and, while it is parked, runs a nearest query, an idempotent
// ingest, a new ingest, a compaction and a fresh uniqueness query. All
// of them complete; the fresh query sees the new rows; the parked scan,
// released last, answers exactly what its snapshot answered before any
// of it happened.
func TestParkedScanDoesNotBlock(t *testing.T) {
	g := lcg(5)
	base := randomBatch(0xA, 600, 9, &g)
	c := openWith(t, base)
	q := QueryRequest{Op: "uniqueness", Bench: "S/b0", Radius: 0.5}
	want := queryBytes(t, c, q)
	if resp, err := c.Query(q); err != nil || resp.Uniqueness.Unique == 0 {
		t.Fatalf("S/b0 must start out partly unique for the test to tell snapshots apart: %+v, %v", resp, err)
	}

	// Copies of S/b0's rows under another benchmark: once ingested,
	// every S/b0 row has a foreign neighbor at distance zero.
	copies := Batch{Dataset: 0xB, Seed: 1}
	for _, e := range base.Entries {
		if e.Bench == "S/b0" {
			e.Bench, e.Suite = "T/copy", "T"
			copies.Entries = append(copies.Entries, e)
		}
	}

	parked, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool // only the first scan parks; later ones pass
	c.fail = func(p string) error {
		if p == "uniqueness.scan" && first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
		return nil
	}
	var got []byte
	var gotErr error
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		resp, err := c.Query(q)
		if err != nil {
			gotErr = err
			return
		}
		var buf bytes.Buffer
		gotErr = WriteResponse(&buf, resp)
		got = buf.Bytes()
	}()
	<-parked
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	within(t, "a nearest query", func() {
		if _, err := c.Query(QueryRequest{Op: "nearest", Vector: base.Entries[3].Vector, K: 3}); err != nil {
			t.Error(err)
		}
	})
	within(t, "an idempotent ingest", func() {
		if info, err := c.IngestBatch(base); err != nil || !info.Skipped {
			t.Errorf("re-ingest: %+v, %v", info, err)
		}
	})
	within(t, "a new ingest", func() {
		if info, err := c.IngestBatch(copies); err != nil || info.Skipped {
			t.Errorf("new ingest: %+v, %v", info, err)
		}
	})
	within(t, "a compaction", func() {
		if info, err := c.Compact(); err != nil || info.After != 1 {
			t.Errorf("compact: %+v, %v", info, err)
		}
	})
	within(t, "a fresh uniqueness query", func() {
		resp, err := c.Query(q)
		if err != nil {
			t.Error(err)
			return
		}
		if u := resp.Uniqueness; u.Unique != 0 {
			t.Errorf("fresh query missed the new rows: %+v", u)
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	close(release)
	<-scanDone
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("parked scan answered from a moved snapshot:\n%s\nwant\n%s", got, want)
	}
}

// TestConcurrentProbedQueries races probed queries against the lazy
// IVF build of a fresh snapshot: every goroutine must answer exactly
// what a serial handle answers, and all must share one partition.
func TestConcurrentProbedQueries(t *testing.T) {
	g := lcg(9)
	c := openWith(t, randomBatch(0xA, 700, 8, &g))
	vecs := make([][]float64, 6)
	for i := range vecs {
		vecs[i] = make([]float64, 8)
		for j := range vecs[i] {
			vecs[i][j] = g.next() * 10
		}
	}
	serial, err := Open(c.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(vecs))
	for i, v := range vecs {
		want[i] = queryBytes(t, serial, QueryRequest{Op: "nearest", Vector: v, K: 5, Probe: 3})
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < len(vecs); n++ {
				i := (w + n) % len(vecs)
				resp, err := c.Query(QueryRequest{Op: "nearest", Vector: vecs[i], K: 5, Probe: 3})
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if err := WriteResponse(&buf, resp); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("worker %d query %d: concurrent probed answer differs from the serial one", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	ix := testIndex(t, c)
	if ix.ivf == nil || ix.ivfLayer() != ix.ivf {
		t.Fatal("the snapshot has no single IVF layer after probed queries")
	}
}

// TestHandlesShareOneDirectory: two handles on one directory, as two
// processes would hold. Each handle's next query sees the other's
// ingest and compaction without reopening, and a dataset ingested
// through one is skipped through the other.
func TestHandlesShareOneDirectory(t *testing.T) {
	a := openWith(t, makeBatch(0xA, "S", 2, 3, 4, 0))
	b, err := Open(a.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	records := func(c *Corpus) int {
		t.Helper()
		resp, err := c.Query(QueryRequest{Op: "stats"})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Stats.Records
	}
	if got := records(b); got != 7 {
		t.Fatalf("second handle sees %d records, want 7", got)
	}

	if _, err := a.IngestBatch(makeBatch(0xB, "T", 1, 2, 4, 50)); err != nil {
		t.Fatal(err)
	}
	if got := records(b); got != 10 {
		t.Fatalf("second handle sees %d records after the first ingested, want 10", got)
	}
	resp, err := b.Query(QueryRequest{Op: "nearest", Ref: "T/b0#0", K: 2})
	if err != nil || len(resp.Neighbors) != 2 {
		t.Fatalf("second handle's ref query on the new rows: %+v, %v", resp, err)
	}

	if info, err := b.IngestBatch(makeBatch(0xB, "T", 1, 2, 4, 50)); err != nil || !info.Skipped {
		t.Fatalf("re-ingest through the second handle: %+v, %v", info, err)
	}
	if _, err := b.IngestBatch(makeBatch(0xC, "U", 1, 1, 4, 90)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := records(b); got != 12 {
		t.Fatalf("second handle sees %d records after compaction, want 12", got)
	}
	if got := records(a); got != 12 {
		t.Fatalf("first handle sees %d records, want 12", got)
	}
}
