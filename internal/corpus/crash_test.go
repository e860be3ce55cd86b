package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Crash-safety tests: a scripted fault (the serve.Faults idiom —
// injected via the unexported fail hook, never present in production)
// aborts ingest or compaction at each of its crash points, exactly as a
// kill there would. Reopening must observe a complete, consistent
// corpus with nothing lost, and the sweep must clear the strays.

// crashAt arms c to fail once at the named point.
func crashAt(c *Corpus, point string) {
	c.fail = func(p string) error {
		if p == point {
			c.fail = nil
			return fmt.Errorf("injected crash at %s", point)
		}
		return nil
	}
}

// backdateStrays ages every file in dir past the sweep gate so the next
// Open treats interrupted-write leftovers as sweepable.
func backdateStrays(t *testing.T, dir string) {
	t.Helper()
	old := time.Now().Add(-2 * sweepAge)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Chtimes(filepath.Join(dir, e.Name()), old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentFiles lists the segment files present on disk.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if validSegmentName(e.Name()) {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// TestCrashDuringIngest: a kill after the segment write but before the
// manifest swap loses the ingest (the caller sees the error) but
// nothing else: the corpus reopens at its pre-ingest state, the ledger
// does not claim the batch, re-ingest succeeds, and the orphan segment
// is swept.
func TestCrashDuringIngest(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xA, "SuiteA", 2, 3, 4, 0)); err != nil {
		t.Fatal(err)
	}
	before := queryBytes(t, c, QueryRequest{Op: "stats"})

	crashAt(c, "ingest.segment-written")
	b := makeBatch(0xB, "SuiteB", 1, 2, 4, 50)
	if _, err := c.IngestBatch(b); err == nil {
		t.Fatal("ingest survived the injected crash")
	}
	if got := len(segmentFiles(t, dir)); got != 2 {
		t.Fatalf("%d segment files after crash, want 2 (1 live + 1 orphan)", got)
	}

	// Reopen: pre-ingest corpus, orphan swept once it ages out.
	backdateStrays(t, dir)
	c2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := queryBytes(t, c2, QueryRequest{Op: "stats"}); !bytes.Equal(before, got) {
		t.Fatalf("reopened corpus differs from pre-crash state:\n%s\nvs\n%s", before, got)
	}
	if got := len(segmentFiles(t, dir)); got != 1 {
		t.Fatalf("%d segment files after sweep, want 1", got)
	}

	// The interrupted batch was never ledgered: re-ingest is real.
	info, err := c2.IngestBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped || info.Records != 3 {
		t.Fatalf("post-crash re-ingest info = %+v, want a real append", info)
	}
	if st, err := c2.Stats(); err != nil || st.Records != 10 || st.Ingests != 2 {
		t.Fatalf("final stats = %+v, err = %v", st, err)
	}
}

// TestCrashDuringCompactBeforeSwap: a kill after the merged segment is
// written but before the manifest swap changes nothing: the old
// segments stay live, every query answers identically, and the merged
// orphan is swept.
func TestCrashDuringCompactBeforeSwap(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xA, "SuiteA", 2, 3, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xB, "SuiteB", 1, 2, 4, 50)); err != nil {
		t.Fatal(err)
	}
	queries := []QueryRequest{
		{Op: "stats"},
		{Op: "nearest", Ref: "SuiteA/b1#0", K: 3},
		{Op: "uniqueness", Bench: "SuiteB/b0"},
	}
	before := make([][]byte, len(queries))
	for i, q := range queries {
		before[i] = queryBytes(t, c, q)
	}

	crashAt(c, "compact.segment-written")
	if _, err := c.Compact(); err == nil {
		t.Fatal("compaction survived the injected crash")
	}
	if got := len(segmentFiles(t, dir)); got != 3 {
		t.Fatalf("%d segment files after crash, want 3 (2 live + merged orphan)", got)
	}

	backdateStrays(t, dir)
	c2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := queryBytes(t, c2, q); !bytes.Equal(before[i], got) {
			t.Fatalf("query %+v changed across the crash:\n%s\nvs\n%s", q, before[i], got)
		}
	}
	if got := len(segmentFiles(t, dir)); got != 2 {
		t.Fatalf("%d segment files after sweep, want the 2 live ones", got)
	}
	// And a retried compaction completes.
	if info, err := c2.Compact(); err != nil || info.After != 1 {
		t.Fatalf("retried compact: info = %+v, err = %v", info, err)
	}
}

// TestCrashDuringCompactAfterSwap: a kill after the manifest swap but
// before the old segments are unlinked leaves the compaction durable —
// queries answer from the merged segment, identically — and the
// replaced segments are unreferenced strays for the sweep.
func TestCrashDuringCompactAfterSwap(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xA, "SuiteA", 2, 3, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xB, "SuiteB", 1, 2, 4, 50)); err != nil {
		t.Fatal(err)
	}
	queries := []QueryRequest{
		{Op: "nearest", Ref: "SuiteA/b1#0", K: 3},
		{Op: "uniqueness", Bench: "SuiteB/b0"},
		{Op: "novelty", Suite: "SuiteA", Radius: 2},
	}
	before := make([][]byte, len(queries))
	for i, q := range queries {
		before[i] = queryBytes(t, c, q)
	}

	crashAt(c, "compact.manifest-swapped")
	if _, err := c.Compact(); err == nil {
		t.Fatal("compaction reported success across the injected crash")
	}
	if got := len(segmentFiles(t, dir)); got != 3 {
		t.Fatalf("%d segment files after crash, want 3 (merged + 2 replaced)", got)
	}

	backdateStrays(t, dir)
	c2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 || st.Records != 10 || st.Ingests != 2 {
		t.Fatalf("post-swap-crash stats = %+v, want the compacted corpus", st)
	}
	for i, q := range queries {
		if got := queryBytes(t, c2, q); !bytes.Equal(before[i], got) {
			t.Fatalf("query %+v changed across the crash:\n%s\nvs\n%s", q, before[i], got)
		}
	}
	if got := len(segmentFiles(t, dir)); got != 1 {
		t.Fatalf("%d segment files after sweep, want only the merged one", got)
	}
}

// TestCrashedWriterDoesNotBlockOthers: after any crash, a completely
// fresh handle (no fault hook) ingests and compacts normally — the
// store carries no cross-process lock state to leak.
func TestCrashedWriterDoesNotBlockOthers(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xA, "S", 1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	crashAt(c, "ingest.segment-written")
	if _, err := c.IngestBatch(makeBatch(0xB, "S", 1, 2, 3, 10)); err == nil {
		t.Fatal("ingest survived the injected crash")
	}

	c2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.IngestBatch(makeBatch(0xC, "S", 1, 2, 3, 20)); err != nil {
		t.Fatalf("fresh handle cannot ingest after a crash elsewhere: %v", err)
	}
	if st, err := c2.Stats(); err != nil || st.Ingests != 2 {
		t.Fatalf("stats = %+v, err = %v", st, err)
	}
}
