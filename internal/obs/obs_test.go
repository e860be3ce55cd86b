package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledPathNoOps exercises every exported method through a nil
// *Metrics — the disabled observability layer — and requires silent
// no-ops (except the report/serve entry points, which must error rather
// than silently drop an explicitly requested artifact).
func TestDisabledPathNoOps(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil Metrics reports Enabled")
	}
	m.SetTool("x")
	m.Add("a", 3)
	c := m.Counter("a")
	if c != nil {
		t.Fatalf("nil Metrics returned non-nil counter %v", c)
	}
	c.Add(5)
	c.Inc()
	if v := c.Value(); v != 0 {
		t.Fatalf("nil counter holds %d", v)
	}
	s := m.StartSpan("stage")
	if s != nil {
		t.Fatalf("nil Metrics returned non-nil span %v", s)
	}
	s.SetRows(10).SetWorkers(2)
	s.End()
	if r := m.Snapshot(); r != nil {
		t.Fatalf("nil Metrics snapshot = %+v", r)
	}
	if got := m.Summary(); got != "" {
		t.Fatalf("nil Metrics summary = %q", got)
	}
	if err := m.WriteReport(filepath.Join(t.TempDir(), "r.json")); err == nil {
		t.Fatal("nil Metrics WriteReport succeeded — a requested report was dropped silently")
	}
	if _, _, err := m.Serve("localhost:0"); err == nil {
		t.Fatal("nil Metrics Serve succeeded")
	}
}

// TestConcurrentCounters hammers one counter from many goroutines (run
// under -race via scripts/verify.sh) and checks the exact total.
func TestConcurrentCounters(t *testing.T) {
	m := New()
	const goroutines, perG = 32, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("shared")
			for i := 0; i < perG; i++ {
				c.Inc()
				m.Add("via-add", 2)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("shared = %d, want %d", got, goroutines*perG)
	}
	if got := m.Counter("via-add").Value(); got != 2*goroutines*perG {
		t.Fatalf("via-add = %d, want %d", got, 2*goroutines*perG)
	}
}

// TestConcurrentSpans records spans from several goroutines while a
// snapshotter reads — the mutex protecting the span list must hold up
// under -race.
func TestConcurrentSpans(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.StartSpan("stage").SetRows(i).SetWorkers(g).End()
				_ = m.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := len(m.Snapshot().Spans); got != 8*50 {
		t.Fatalf("recorded %d spans, want %d", got, 8*50)
	}
}

// TestSpanRetentionCap: at the cap every span is kept and no drop
// counter exists (reports under the cap are unchanged); past it the
// report keeps exactly the most recent maxSpans in completion order and
// counts the drops.
func TestSpanRetentionCap(t *testing.T) {
	m := New()
	for i := 0; i < maxSpans; i++ {
		m.StartSpan("stage").SetRows(i).End()
	}
	r := m.Snapshot()
	if len(r.Spans) != maxSpans || r.Spans[0].Rows != 0 || r.Spans[maxSpans-1].Rows != maxSpans-1 {
		t.Fatalf("at the cap: %d spans, first rows=%d", len(r.Spans), r.Spans[0].Rows)
	}
	if _, ok := r.Counters["obs.spans_dropped"]; ok {
		t.Fatal("obs.spans_dropped exists before any span was dropped")
	}

	const extra = maxSpans + 123 // wraps the ring more than once
	for i := maxSpans; i < maxSpans+extra; i++ {
		m.StartSpan("stage").SetRows(i).End()
	}
	r = m.Snapshot()
	if len(r.Spans) != maxSpans {
		t.Fatalf("past the cap: %d spans retained, want %d", len(r.Spans), maxSpans)
	}
	for i, s := range r.Spans {
		if want := extra + i; s.Rows != want {
			t.Fatalf("span %d has rows=%d, want %d (most recent, in completion order)", i, s.Rows, want)
		}
	}
	if got := r.Counters["obs.spans_dropped"]; got != extra {
		t.Fatalf("obs.spans_dropped = %d, want %d", got, extra)
	}
}

// TestReportRoundTrip writes a populated report and reads it back through
// encoding/json, requiring every field to survive.
func TestReportRoundTrip(t *testing.T) {
	m := New()
	m.SetTool("obs-test")
	m.Add("fcache.hits", 42)
	m.Add("par.tasks", 1000)
	sp := m.StartSpan("characterize").SetRows(900).SetWorkers(8)
	time.Sleep(time.Millisecond)
	sp.End()

	path := filepath.Join(t.TempDir(), "report.json")
	if err := m.WriteReport(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	want := m.Snapshot()
	if got.Tool != "obs-test" || got.Started != want.Started {
		t.Fatalf("header fields lost: %+v", got)
	}
	if !reflect.DeepEqual(got.Counters, map[string]int64{"fcache.hits": 42, "par.tasks": 1000}) {
		t.Fatalf("counters = %v", got.Counters)
	}
	if len(got.Spans) != 1 {
		t.Fatalf("spans = %+v", got.Spans)
	}
	s := got.Spans[0]
	if s.Stage != "characterize" || s.Rows != 900 || s.Workers != 8 || s.WallSeconds <= 0 {
		t.Fatalf("span lost fields: %+v", s)
	}
	if got.WallSeconds < s.StartSeconds+s.WallSeconds {
		t.Fatalf("report wall %.6fs shorter than its own span (%.6fs)", got.WallSeconds, s.StartSeconds+s.WallSeconds)
	}
}

// TestSummary checks the human-readable rendering carries spans and
// counters.
func TestSummary(t *testing.T) {
	m := New()
	m.Add("fcache.hits", 7)
	m.StartSpan("pca").SetRows(12).End()
	out := m.Summary()
	for _, want := range []string{"span pca", "rows=12", "counter fcache.hits", "7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestServeMetricsEndpoint starts the HTTP endpoint on an ephemeral port
// and fetches the live report.
func TestServeMetricsEndpoint(t *testing.T) {
	m := New()
	m.Add("fcache.hits", 3)
	addr, _, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("/metrics body is not a report: %v\n%s", err, body)
	}
	if r.Counters["fcache.hits"] != 3 {
		t.Fatalf("live report counters = %v", r.Counters)
	}
}
