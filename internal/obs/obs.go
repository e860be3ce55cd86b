// Package obs is the pipeline's observability layer: named atomic
// counters, per-stage spans, and a machine-readable run report, designed
// so that instrumented code pays (close to) nothing when observability is
// off.
//
// The disabled path is a nil *Metrics. Every method on *Metrics, *Counter
// and *Span is nil-receiver safe and collapses to a no-op, so call sites
// thread a possibly-nil *Metrics through unconditionally:
//
//	span := cfg.Metrics.StartSpan("characterize").SetRows(n)
//	...
//	span.End()
//
// costs two nil checks when cfg.Metrics is nil. Hot loops hold a *Counter
// (obtained once via Metrics.Counter) rather than calling Metrics.Add per
// event: Counter.Add is a single atomic add, and a nil *Counter is itself
// a valid no-op sink.
//
// When enabled, counters are lock-free (sync/atomic); the Metrics mutex
// guards only the name->counter registry and the completed-span list,
// which are touched per stage, not per event. The span list keeps the
// most recent maxSpans spans, so a long-lived collector (the service's)
// stays bounded; one-shot runs record far fewer. Metrics values never
// feed back into any computation, so instrumenting a stage cannot
// perturb the pipeline's worker-count-independent determinism
// guarantee.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a named monotonic (or signed) event counter. The zero value
// is ready to use; a nil *Counter is a no-op sink.
type Counter struct {
	v atomic.Int64
}

// Add adds delta to the counter. Safe for concurrent use; no-op on nil.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// SpanRecord is one completed stage span as it appears in a Report.
type SpanRecord struct {
	// Stage names the pipeline stage (e.g. "characterize", "kmeans").
	Stage string `json:"stage"`
	// StartSeconds is the span's start offset from the run's start.
	StartSeconds float64 `json:"start_seconds"`
	// WallSeconds is the span's wall-clock duration.
	WallSeconds float64 `json:"wall_seconds"`
	// Rows is how many data rows the stage processed (0 if untracked).
	Rows int `json:"rows,omitempty"`
	// Workers is the stage's resolved worker count (0 if untracked).
	Workers int `json:"workers,omitempty"`
	// Bytes is how many payload bytes the stage moved (0 if untracked) —
	// the network volume for RPC stages like serve's shard distribution.
	Bytes int64 `json:"bytes,omitempty"`
	// Resumed marks a stage that was served from a persisted artifact
	// instead of being computed (the pipeline engine's resume path).
	Resumed bool `json:"resumed,omitempty"`
}

// maxSpans bounds the completed-span list. Past it the oldest span is
// dropped for each new one, and the "obs.spans_dropped" counter (created
// on the first drop, so reports of runs under the cap are unchanged)
// counts the drops.
const maxSpans = 4096

// Metrics collects one run's counters and spans. Use New; a nil *Metrics
// is the disabled observability layer and every method on it is a no-op.
type Metrics struct {
	start time.Time

	mu         sync.Mutex
	tool       string
	counters   map[string]*Counter
	histograms map[string]*Histogram
	// spans is a ring once full: spans[oldest] is the oldest retained.
	spans  []SpanRecord
	oldest int
}

// New returns an enabled metrics collector; the run's clock starts now.
func New() *Metrics {
	return &Metrics{start: time.Now(), counters: map[string]*Counter{}}
}

// Enabled reports whether the collector is live (non-nil).
func (m *Metrics) Enabled() bool { return m != nil }

// SetTool labels the report with the producing command's name.
func (m *Metrics) SetTool(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.tool = name
	m.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. On a nil
// *Metrics it returns a nil *Counter, which is a valid no-op sink — hot
// paths fetch their counters once and Add unconditionally.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Add adds delta to the named counter (registry lookup per call — fine
// per stage, too slow per event; see Counter).
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.Counter(name).Add(delta)
}

// Span is an in-progress stage timing started by StartSpan. A nil *Span
// (from a nil *Metrics) ignores every call.
type Span struct {
	m       *Metrics
	stage   string
	t0      time.Time
	rows    int
	workers int
	bytes   int64
	resumed bool
}

// StartSpan begins timing a named stage. End records it.
func (m *Metrics) StartSpan(stage string) *Span {
	if m == nil {
		return nil
	}
	return &Span{m: m, stage: stage, t0: time.Now()}
}

// SetRows annotates the span with the stage's row count. Returns s for
// chaining.
func (s *Span) SetRows(n int) *Span {
	if s != nil {
		s.rows = n
	}
	return s
}

// SetWorkers annotates the span with the stage's resolved worker count.
func (s *Span) SetWorkers(n int) *Span {
	if s != nil {
		s.workers = n
	}
	return s
}

// SetBytes annotates the span with the payload bytes the stage moved.
func (s *Span) SetBytes(n int64) *Span {
	if s != nil {
		s.bytes = n
	}
	return s
}

// SetResumed marks the span's stage as served from a persisted artifact
// rather than computed.
func (s *Span) SetResumed(resumed bool) *Span {
	if s != nil {
		s.resumed = resumed
	}
	return s
}

// End completes the span and appends it to the run's span list. Calling
// End more than once records the span more than once; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	rec := SpanRecord{
		Stage:        s.stage,
		StartSeconds: s.t0.Sub(s.m.start).Seconds(),
		WallSeconds:  now.Sub(s.t0).Seconds(),
		Rows:         s.rows,
		Workers:      s.workers,
		Bytes:        s.bytes,
		Resumed:      s.resumed,
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.spans) < maxSpans {
		m.spans = append(m.spans, rec)
		return
	}
	m.spans[m.oldest] = rec
	m.oldest = (m.oldest + 1) % maxSpans
	dropped := m.counters["obs.spans_dropped"]
	if dropped == nil {
		dropped = &Counter{}
		m.counters["obs.spans_dropped"] = dropped
	}
	dropped.Inc()
}

// Report is the machine-readable run report: everything the collector
// observed, in one JSON-stable document (map keys marshal sorted).
type Report struct {
	// Tool is the producing command, when labelled via SetTool.
	Tool string `json:"tool,omitempty"`
	// Started is the collector's creation time (RFC 3339, with zone).
	Started string `json:"started"`
	// WallSeconds is the collector's age at snapshot time — the run's
	// total wall clock when the report is written at exit.
	WallSeconds float64 `json:"wall_seconds"`
	// Spans lists completed stage spans in completion order (the most
	// recent maxSpans of them).
	Spans []SpanRecord `json:"spans"`
	// Counters holds every registered counter's final value.
	Counters map[string]int64 `json:"counters"`
	// Histograms holds every registered latency histogram's summary
	// (present only when at least one histogram was observed).
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot captures the collector's current state as a Report. Counters
// still being written concurrently are read atomically (each value is
// internally consistent; the set is a point-in-time best effort). Nil
// receiver returns nil.
func (m *Metrics) Snapshot() *Report {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &Report{
		Tool:        m.tool,
		Started:     m.start.Format(time.RFC3339),
		WallSeconds: time.Since(m.start).Seconds(),
		Spans:       append(append([]SpanRecord(nil), m.spans[m.oldest:]...), m.spans[:m.oldest]...),
		Counters:    make(map[string]int64, len(m.counters)),
	}
	for name, c := range m.counters {
		r.Counters[name] = c.Value()
	}
	if len(m.histograms) > 0 {
		r.Histograms = make(map[string]HistogramStats, len(m.histograms))
		for name, h := range m.histograms {
			r.Histograms[name] = h.Stats()
		}
	}
	return r
}

// WriteReport snapshots the collector and writes the report as indented
// JSON to path. Nil receiver is an error: a caller that asked for a
// report file must not get silence instead.
func (m *Metrics) WriteReport(path string) error {
	if m == nil {
		return fmt.Errorf("obs: no metrics collector to report (observability disabled)")
	}
	buf, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding report: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("obs: writing report: %w", err)
	}
	return nil
}

// Summary renders the report as human-readable text (for -metrics):
// spans in completion order, then counters sorted by name.
func (m *Metrics) Summary() string {
	if m == nil {
		return ""
	}
	r := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "run: %.3fs wall\n", r.WallSeconds)
	for _, s := range r.Spans {
		fmt.Fprintf(&b, "  span %-24s %9.3fs", s.Stage, s.WallSeconds)
		if s.Rows > 0 {
			fmt.Fprintf(&b, "  rows=%d", s.Rows)
		}
		if s.Workers > 0 {
			fmt.Fprintf(&b, "  workers=%d", s.Workers)
		}
		if s.Bytes > 0 {
			fmt.Fprintf(&b, "  bytes=%d", s.Bytes)
		}
		if s.Resumed {
			b.WriteString("  (resumed)")
		}
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(r.Counters))
	for name := range r.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  counter %-21s %12d\n", name, r.Counters[name])
	}
	names = names[:0]
	for name := range r.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.Histograms[name]
		fmt.Fprintf(&b, "  latency %-21s n=%-6d p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs\n",
			name, h.Count, h.P50Seconds, h.P95Seconds, h.P99Seconds, h.MaxSeconds)
	}
	return b.String()
}
