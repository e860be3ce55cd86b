package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// testWorkers is the compute parallelism for both local and worker-side
// runs (the coordinator sends its own in every shard request);
// SHARD_TEST_WORKERS overrides it so verify.sh can pin the distributed
// invariant at multiple worker counts.
func testWorkers(t *testing.T) int {
	t.Helper()
	v := os.Getenv("SHARD_TEST_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		t.Fatalf("SHARD_TEST_WORKERS=%q", v)
	}
	return n
}

// shardRegistry builds a small registry with two clearly distinct
// suites (the same shape core's unit tests use), with as many
// benchmarks as the largest shard count the tests distribute.
func shardRegistry(t *testing.T) *bench.Registry {
	t.Helper()
	mk := func(name string, suite bench.Suite, intervals int, phases ...bench.Phase) *bench.Benchmark {
		return &bench.Benchmark{Name: name, Suite: suite, PaperIntervals: intervals, Phases: phases}
	}
	serial := func(name string) trace.PhaseBehavior {
		return trace.PhaseBehavior{
			Name: name, Mix: trace.BaseMix(), CodeSize: 800,
			Branch: trace.BranchSpec{TakenBias: 0.5, PatternPeriod: 0},
			Reg:    trace.RegDepSpec{MeanDepDist: 2, AvgSrcRegs: 1.4, WriteFraction: 0.7},
			Loads:  []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 1 << 22}},
			Stores: []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 1 << 20}},
			Jitter: 0.05,
		}
	}
	stream := func(name string) trace.PhaseBehavior {
		return trace.PhaseBehavior{
			Name: name, Mix: trace.FPBaseMix(), CodeSize: 800,
			Branch: trace.BranchSpec{TakenBias: 0.95, PatternPeriod: 32, NoiseLevel: 0.01},
			Reg:    trace.RegDepSpec{MeanDepDist: 20, AvgSrcRegs: 2, WriteFraction: 0.9},
			Loads:  []trace.AccessPattern{{Kind: trace.PatternStride, Weight: 1, Region: 1 << 22, Stride: 8}},
			Stores: []trace.AccessPattern{{Kind: trace.PatternStride, Weight: 1, Region: 1 << 20, Stride: 8}},
			Jitter: 0.05,
		}
	}
	reg, err := bench.NewRegistry([]*bench.Benchmark{
		mk("s1", "SuiteA", 100, bench.Phase{Weight: 1, Behavior: serial("s1/p")}),
		mk("s2", "SuiteA", 200, bench.Phase{Weight: 0.5, Behavior: serial("s2/a")},
			bench.Phase{Weight: 0.5, Behavior: stream("s2/b")}),
		mk("f1", "SuiteB", 100, bench.Phase{Weight: 1, Behavior: stream("f1/p")}),
		mk("f2", "SuiteB", 300, bench.Phase{Weight: 1, Behavior: stream("f2/p")}),
		mk("s3", "SuiteA", 150, bench.Phase{Weight: 1, Behavior: serial("s3/p")}),
		mk("f3", "SuiteB", 150, bench.Phase{Weight: 1, Behavior: stream("f3/p")}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func shardConfig(t *testing.T) core.Config {
	cfg := core.TestConfig()
	cfg.IntervalLength = 1500
	cfg.SamplesPerBenchmark = 10
	cfg.MaxIntervalsPerBenchmark = 12
	cfg.NumClusters = 6
	cfg.NumProminent = 6
	cfg.Workers = testWorkers(t)
	return cfg
}

// plainExport runs the single-process pipeline and returns the exported
// JSON — the reference bytes every distributed cell must reproduce.
func plainExport(t *testing.T, reg *bench.Registry, cfg core.Config) []byte {
	t.Helper()
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startWorker starts one service over reg, each with its own cache, as
// a shard worker; it is cleaned up with the test.
func startWorker(t *testing.T, reg *bench.Registry) *httptest.Server {
	t.Helper()
	s, err := New(Config{CacheDir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startWorkers starts n shard workers over reg and returns their base
// URLs and hosts (for fault scripts).
func startWorkers(t *testing.T, reg *bench.Registry, n int) (urls, hosts []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := startWorker(t, reg)
		urls = append(urls, ts.URL)
		hosts = append(hosts, strings.TrimPrefix(ts.URL, "http://"))
	}
	return urls, hosts
}

// distributedExport runs Distribute into a fresh cache, then the merge
// run over it, returning the exported JSON and the distribution stats.
func distributedExport(t *testing.T, reg *bench.Registry, cfg core.Config, shards int, coord *Coordinator) ([]byte, *DistributeStats) {
	t.Helper()
	cfg.CacheDir = t.TempDir()
	cfg.Shard = core.ShardSpec{Index: 0, Count: shards}
	stats, err := coord.Distribute(reg, cfg)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		t.Fatalf("merge run: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// TestFaultMatrixByteIdentical is the distributed layer's load-bearing
// invariant: for every fault schedule that leaves >= 0 workers alive —
// transient 5xx, dropped connections, injected latency, corrupted
// entries, hangs until deadline, and 0..W dead workers — the merged
// result is byte-identical to the single-process run, and the retry /
// reassignment counters match exactly what the schedule implies.
func TestFaultMatrixByteIdentical(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	want := plainExport(t, reg, cfg)
	const shards, nWorkers = 6, 3

	cells := []struct {
		name    string
		faults  map[int][]FaultKind // worker index -> script
		timeout time.Duration       // 0: default
		// expected accounting
		retries, reassigned, timeouts, dead, local int
	}{
		{name: "clean"},
		{name: "5xx-once", faults: map[int][]FaultKind{0: {Fault5xx}}, retries: 1},
		{name: "drop-once", faults: map[int][]FaultKind{1: {FaultDrop}}, retries: 1},
		{name: "delay", faults: map[int][]FaultKind{0: {FaultDelay}, 2: {FaultDelay}}},
		{name: "corrupt-once", faults: map[int][]FaultKind{2: {FaultCorrupt}}, retries: 1},
		{name: "hang-once", faults: map[int][]FaultKind{0: {FaultHang}},
			timeout: 750 * time.Millisecond, retries: 1, timeouts: 1},
		{name: "one-down", faults: map[int][]FaultKind{2: {FaultDown}},
			retries: 2, reassigned: 2, dead: 1},
		{name: "two-down", faults: map[int][]FaultKind{1: {FaultDown}, 2: {FaultDown}},
			retries: 4, reassigned: 4, dead: 2},
		{name: "all-down", faults: map[int][]FaultKind{0: {FaultDown}, 1: {FaultDown}, 2: {FaultDown}},
			retries: 6, reassigned: 4, dead: 3, local: 6},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			urls, hosts := startWorkers(t, reg, nWorkers)
			faults := NewFaults(nil, 7)
			for w, script := range cell.faults {
				faults.Script(hosts[w], script...)
			}
			m := obs.New()
			coord := &Coordinator{
				Workers:     urls,
				Timeout:     cell.timeout,
				Retries:     2,
				BackoffBase: time.Millisecond,
				BackoffCap:  5 * time.Millisecond,
				Seed:        42,
				Transport:   faults,
				Metrics:     m,
			}
			got, stats := distributedExport(t, reg, cfg, shards, coord)
			if !bytes.Equal(got, want) {
				t.Errorf("distributed export differs from plain run (%d vs %d bytes)", len(got), len(want))
			}
			if stats.Retries != cell.retries || stats.Reassigned != cell.reassigned ||
				stats.Timeouts != cell.timeouts || stats.DeadWorkers != cell.dead || stats.Local != cell.local {
				t.Errorf("stats = %+v, want retries=%d reassigned=%d timeouts=%d dead=%d local=%d",
					stats, cell.retries, cell.reassigned, cell.timeouts, cell.dead, cell.local)
			}
			if remote := stats.Shards - cell.local; stats.Remote != remote {
				t.Errorf("remote = %d, want %d", stats.Remote, remote)
			}
			if got := m.Counter("rpc.retries").Value(); got != int64(cell.retries) {
				t.Errorf("rpc.retries = %d, want %d", got, cell.retries)
			}
			if got := m.Counter("rpc.reassigned").Value(); got != int64(cell.reassigned) {
				t.Errorf("rpc.reassigned = %d, want %d", got, cell.reassigned)
			}
			// Every remote success is one final attempt, every dead worker
			// failed exactly one fetch's initial attempt, and every retry is
			// one more attempt.
			wantSent := int64((shards - cell.local) + cell.dead + cell.retries)
			if got := m.Counter("rpc.sent").Value(); got != wantSent {
				t.Errorf("rpc.sent = %d, want %d", got, wantSent)
			}
		})
	}
}

// killingTransport closes a target server immediately after its first
// successful /shard response, modeling a worker dying mid-run.
type killingTransport struct {
	host   string
	server *httptest.Server
	once   sync.Once
}

func (k *killingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && req.URL.Host == k.host {
		// Drain and replay the body so the caller still sees the full
		// response, then take the server down.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		k.once.Do(k.server.Close)
	}
	return resp, err
}

// TestWorkerDeathMidRun kills one worker after it served its first
// shard; its remaining shard must be reassigned and the result must
// still match the plain run byte for byte.
func TestWorkerDeathMidRun(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	want := plainExport(t, reg, cfg)

	dying := startWorker(t, reg)
	urls, _ := startWorkers(t, reg, 2)
	urls = append([]string{dying.URL}, urls...)

	m := obs.New()
	coord := &Coordinator{
		Workers:     urls,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Transport:   &killingTransport{host: strings.TrimPrefix(dying.URL, "http://"), server: dying},
		Metrics:     m,
	}
	got, stats := distributedExport(t, reg, cfg, 6, coord)
	if !bytes.Equal(got, want) {
		t.Errorf("distributed export differs from plain run")
	}
	if stats.DeadWorkers != 1 || stats.Reassigned != 1 || stats.Retries != 2 || stats.Local != 0 {
		t.Errorf("stats = %+v, want 1 dead, 1 reassigned, 2 retries, 0 local", stats)
	}
}

// TestDatasetMismatchFallsBackLocal points the coordinator at a worker
// built over a different registry: every request must be refused
// permanently (no retries), and the run must gracefully degrade to
// local computation with an unchanged result.
func TestDatasetMismatchFallsBackLocal(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	want := plainExport(t, reg, cfg)

	other, err := bench.NewRegistry((shardRegistry(t)).All()[:2])
	if err != nil {
		t.Fatal(err)
	}
	ts := startWorker(t, other)

	m := obs.New()
	coord := &Coordinator{Workers: []string{ts.URL}, Retries: 2, Metrics: m}
	got, stats := distributedExport(t, reg, cfg, 3, coord)
	if !bytes.Equal(got, want) {
		t.Errorf("fallback export differs from plain run")
	}
	if stats.Retries != 0 || stats.DeadWorkers != 1 || stats.Local != 3 || stats.Remote != 0 {
		t.Errorf("stats = %+v, want 0 retries, 1 dead, 3 local, 0 remote", stats)
	}
	if refused := m.Counter("rpc.sent").Value(); refused != 1 {
		t.Errorf("rpc.sent = %d, want 1 (permanent refusal, no retry)", refused)
	}
}

// TestDistributeRefusesMoreShardsThanBenchmarks: workers refuse a
// shard count above the roster's benchmark count, so the coordinator
// rejects such a run before sending anything.
func TestDistributeRefusesMoreShardsThanBenchmarks(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	cfg.CacheDir = t.TempDir()
	cfg.Shard = core.ShardSpec{Index: 0, Count: reg.Len() + 1}
	m := obs.New()
	coord := &Coordinator{Workers: []string{"127.0.0.1:1"}, Metrics: m}
	if _, err := coord.Distribute(reg, cfg); err == nil {
		t.Fatal("Distribute accepted more shards than benchmarks")
	}
	if sent := m.Counter("rpc.sent").Value(); sent != 0 {
		t.Fatalf("rpc.sent = %d, want 0", sent)
	}
}

// TestJitterSeedDoesNotChangeBytes pins that retry pacing — different
// jitter seeds and backoff shapes under the same fault schedule — never
// leaks into the merged output.
func TestJitterSeedDoesNotChangeBytes(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	want := plainExport(t, reg, cfg)

	var exports [][]byte
	for i, seed := range []int64{1, 999} {
		urls, hosts := startWorkers(t, reg, 3)
		faults := NewFaults(nil, 7)
		faults.Script(hosts[0], Fault5xx)
		faults.Script(hosts[1], FaultDrop)
		coord := &Coordinator{
			Workers:     urls,
			Retries:     2,
			Seed:        seed,
			BackoffBase: time.Duration(i+1) * time.Millisecond,
			BackoffCap:  time.Duration(i+1) * 4 * time.Millisecond,
			Transport:   faults,
		}
		got, _ := distributedExport(t, reg, cfg, 6, coord)
		exports = append(exports, got)
	}
	for i, got := range exports {
		if !bytes.Equal(got, want) {
			t.Errorf("export %d differs from plain run", i)
		}
	}
}

// TestFaultSpecParsing pins the CLI fault-spec grammar.
func TestFaultSpecParsing(t *testing.T) {
	hosts := []string{"a:1", "b:2", "c:3"}
	f := NewFaults(nil, 1)
	if err := f.AddSpec("0:5xx,corrupt;2:down", hosts); err != nil {
		t.Fatal(err)
	}
	if got := f.take("a:1"); got != Fault5xx {
		t.Errorf("a:1 first = %v, want 5xx", got)
	}
	if got := f.take("a:1"); got != FaultCorrupt {
		t.Errorf("a:1 second = %v, want corrupt", got)
	}
	if got := f.take("a:1"); got != FaultNone {
		t.Errorf("a:1 third = %v, want none", got)
	}
	if got := f.take("b:2"); got != FaultNone {
		t.Errorf("b:2 = %v, want none", got)
	}
	for i := 0; i < 3; i++ {
		if got := f.take("c:3"); got == FaultNone {
			t.Errorf("c:3 call %d = none, want sticky down", i)
		}
	}
	for _, bad := range []string{"9:drop", "x:drop", "0:bogus", "nope"} {
		if err := NewFaults(nil, 1).AddSpec(bad, hosts); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
