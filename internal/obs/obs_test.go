package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
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
// no-ops (except the report entry point, which must error rather
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

// TestServeMetricsEndpoint serves the -metrics-addr handler through the
// shared listener lifecycle on an ephemeral port and scrapes the live
// report.
func TestServeMetricsEndpoint(t *testing.T) {
	m := New()
	m.Add("fcache.hits", 3)
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, "127.0.0.1:0", m.DebugHandler(), 2*time.Second, func(a net.Addr) { addrCh <- a })
	}()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", <-addrCh))
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

// TestServeGracefulShutdown pins the shared listener lifecycle: a request
// in flight when the context is cancelled runs to completion before Serve
// returns nil, and the listener refuses new connections afterwards. A
// request that outlasts the drain bound makes Serve return an error, and
// an unusable address fails fast.
func TestServeGracefulShutdown(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprint(w, "drained")
	})
	start := func(drain time.Duration) (string, context.CancelFunc, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		addrCh := make(chan net.Addr, 1)
		served := make(chan error, 1)
		go func() { served <- Serve(ctx, "127.0.0.1:0", h, drain, func(a net.Addr) { addrCh <- a }) }()
		select {
		case a := <-addrCh:
			return "http://" + a.String() + "/", cancel, served
		case err := <-served:
			t.Fatalf("Serve exited before ready: %v", err)
		}
		return "", cancel, served
	}
	type reply struct {
		body string
		err  error
	}
	get := func(url string) chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := http.Get(url)
			if err != nil {
				ch <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			ch <- reply{string(b), err}
		}()
		return ch
	}

	url, cancel, served := start(10 * time.Second)
	replyCh := get(url)
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release <- struct{}{}
	if r := <-replyCh; r.err != nil || r.body != "drained" {
		t.Fatalf("in-flight request = %q, %v; want it drained", r.body, r.err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("endpoint still serving after shutdown")
	}

	url, cancel, served = start(20 * time.Millisecond)
	replyCh = get(url)
	<-entered
	cancel()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("drain overran its bound but Serve returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain bound")
	}
	release <- struct{}{}
	<-replyCh

	if err := Serve(context.Background(), "256.0.0.1:bogus", h, time.Second, nil); err == nil {
		t.Fatal("bogus address should fail to bind")
	}
}
