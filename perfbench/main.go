// Command perfbench is the repository's benchmark: one command that runs
// a named workload through the phase-characterization pipeline, checks
// every output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer ledger) as the last line of standard output:
//
//	bash perfbench/run.sh --workload methodology-cold --seed 1 --seconds 12 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	methodology-cold  core.Run + Table 2 GA + JSON export at default scale
//	                  over the full roster, each repetition into a fresh cache
//	methodology-warm  the same repetitions over a cache warmed in set-up
//	service-mixed     an in-process serve.Server on loopback: a tenant
//	                  client submitting recurring quick jobs and a query
//	                  client asking corpus nearest/uniqueness questions
//
// The benchmark times calls into the program's public functions from its
// own files and reads the program's own counters; it adds no
// instrumentation inside the program. A human-readable report with
// sample counts and tail percentiles goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's options and accumulates what it measures.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workers int
	// work is this process's scratch root inside the checkout; it is
	// removed on exit.
	work string

	setup     []float64 // seconds per set-up
	ops       []float64 // milliseconds per untraced operation
	attempted int
	failed    int
	// guard is the first control-guard violation: the run measured the
	// wrong code path, so none of its numbers may be reported as valid.
	guard  string
	layers map[string]metric
}

// fail counts one failed or incorrect operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		logf("FAIL: "+format, args...)
	}
}

// guardFail records a control-guard violation.
func (r *run) guardFail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if r.guard == "" {
		r.guard = msg
	}
	logf("GUARD: %s", msg)
}

// layer records one per-layer metric.
func (r *run) layer(name, unit string, v float64) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// dir makes a fresh, empty directory under the run's scratch root.
func (r *run) dir(name string) (string, error) {
	d := filepath.Join(r.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"methodology-cold": runCold,
	"methodology-warm": runWarm,
	"service-mixed":    runService,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: methodology-cold, methodology-warm or service-mixed")
		seed     = flag.Int64("seed", 1, "workload seed: fixes the pipeline seed, the job-spec pool and its order, and the queries")
		seconds  = flag.Int("seconds", 12, "how long the measured loop runs")
		trace    = flag.Int("trace", 0, "1: a traced run printing the per-layer ledger instead of the end-to-end metrics")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workers: runtime.NumCPU(),
		work:    filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid())),
		layers:  map[string]metric{},
	}
	logf("perfbench: workload %s, seed %d, %v, traced %v, %d workers, %s", *workload, r.seed, r.seconds, r.traced, r.workers, runtime.Version())
	heap := watchHeap()
	err := drive(r)
	peakHeap := heap.stop()
	if rerr := os.RemoveAll(r.work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res := result{
		Correct:   r.failed == 0 && r.guard == "",
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		os.Exit(1)
	}
	logf("operations: %d attempted, %d failed (error rate %.4g)", r.attempted, r.failed, errorRate(r.attempted, r.failed))
	if r.traced {
		res.Metrics = r.layers
	} else {
		m := mean(r.ops)
		logf("op latency: mean %.3f ms, p50 %.3f ms over %d operations", m, median(r.ops), len(r.ops))
		if pct, v, ok := highestTail(r.ops); ok {
			logf("op latency: p%.1f %.3f ms (%d samples beyond it)", pct, v, minBeyond)
		}
		logf("set-up: median %.3f s over %d set-ups", median(r.setup), len(r.setup))
		res.Metrics["setup_s"] = metric{Value: median(r.setup), Unit: "s"}
		res.Metrics["op_mean_ms"] = metric{Value: m, Unit: "ms"}
		res.Metrics["peak_heap_mb"] = metric{Value: peakHeap, Unit: "MB"}
		logf("peak resident set (VmHWM): %.1f MB", peakRSSMB())
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-40s %14.6g %-5s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		if r.traced {
			line += "  moves " + targets[n]
		}
		logf("%s", line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		if r.guard != "" {
			fmt.Fprintf(os.Stderr, "perfbench: control guard failed: %s\n", r.guard)
		}
		os.Exit(1)
	}
}

// heapWatch tracks the largest heap the Go runtime sized for the process:
// the maximum of its GC heap goal, which is the live heap at the previous
// collection plus the GOGC headroom. Unlike the resident set, it does not
// depend on where collections happen to land among the allocations, so it
// reads the same to a percent or two from run to run.
type heapWatch struct {
	peak uint64 // written by the watching goroutine, read after it exits
	done chan struct{}
	wg   sync.WaitGroup
}

func watchHeap() *heapWatch {
	w := &heapWatch{done: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			w.peak = max(w.peak, sample[0].Value.Uint64())
			select {
			case <-w.done:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watch and returns the peak heap goal in MiB.
func (w *heapWatch) stop() float64 {
	close(w.done)
	w.wg.Wait()
	return float64(w.peak) / (1 << 20)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
