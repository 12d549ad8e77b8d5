// Command perfbench is the repository benchmark: it runs one named
// workload of the ALICE redaction system (flow, attack or serve) for a
// fixed time, checks every output, and prints the metrics as one JSON
// line. With -trace 1 it instead makes one untraced and one traced pass
// and prints the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set classes: every workload splits its operations into two sets that
// stress different layers (see README.md).
const (
	set1 = 1
	set2 = 2
)

// opSample is one finished workload operation.
type opSample struct {
	name    string
	set     int
	seconds float64 // time to the operation's verdict
	err     error   // non-nil when the operation or its check failed
}

// passResult is one pass over a workload's fixed operation list.
type passResult struct {
	start time.Time
	wall  float64
	ops   []opSample
	// counters are the machine-independent work counts of the pass;
	// the same inputs must reproduce them exactly.
	counters map[string]float64
	// layer holds per-layer metrics measured outside the span tree
	// (work counts, service statistics, latency percentiles).
	layer map[string]float64
	// solutions fingerprints each operation's selected solution, so a
	// traced pass can be checked against an untraced one.
	solutions map[string]string
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares the inputs of the next pass; its time is setup_s.
	setup() error
	// pass runs the operation list once; a non-nil tracer records spans.
	pass(ctx context.Context, tr *tracer) (*passResult, error)
	// teardown releases what setup created.
	teardown()
	// setupEachPass reports whether every pass needs a fresh setup
	// (a service starting from an empty store).
	setupEachPass() bool
	// named prints the workload's metrics under their own names.
	named(passes []*passResult)
}

// A workload whose passes share one setup sets up at least setupReps
// times before measuring, and a cheap one more often, up to
// setupMaxReps times or setupMinSeconds; setup_s is the median.
const (
	setupReps       = 3
	setupMaxReps    = 50
	setupMinSeconds = 0.5
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: flow, attack or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (1 reproduces the BENCH.json configurations)")
	flag.IntVar(&o.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	exp, err := loadExpectations("BENCH.json")
	if err != nil {
		return nil, err
	}
	switch name {
	case "flow":
		return newFlowWorkload(seed, exp), nil
	case "attack":
		return newAttackWorkload(seed, exp), nil
	case "serve":
		return newServeWorkload(seed, exp)
	}
	return nil, fmt.Errorf("unknown workload %q (want flow, attack or serve)", name)
}

// run executes one benchmark run and prints its result line; ok is
// false when any output check failed.
func run(o options) (bool, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return false, err
	}
	defer w.teardown()
	if o.trace {
		return runTraced(o, w)
	}
	ctx := context.Background()
	var setups []float64
	doSetup := func() error {
		t := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		return nil
	}
	if !w.setupEachPass() {
		// A cheap setup repeats until it has run for setupMinSeconds, so
		// its median rests on enough samples to be steady.
		total := 0.0
		for len(setups) < setupReps || (total < setupMinSeconds && len(setups) < setupMaxReps) {
			if err := doSetup(); err != nil {
				return false, err
			}
			total += setups[len(setups)-1]
		}
	}
	var passes []*passResult
	var peaks []float64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(passes) == 0 || time.Now().Before(deadline) {
		if w.setupEachPass() {
			if err := doSetup(); err != nil {
				return false, err
			}
		}
		runtime.GC()
		hs := startHeapSampler()
		pr, err := w.pass(ctx, nil)
		peaks = append(peaks, hs.stop())
		if err != nil {
			return false, err
		}
		passes = append(passes, pr)
		if w.setupEachPass() {
			w.teardown()
		}
	}

	attempted, failed := 0, 0
	var walls, set1Sums, set2Sums []float64
	measured := 0.0
	for _, p := range passes {
		walls = append(walls, p.wall)
		measured += p.wall
		var s1, s2 float64
		for _, op := range p.ops {
			attempted++
			if op.err != nil {
				failed++
				fmt.Printf("FAIL %s: %v\n", op.name, op.err)
			}
			if op.set == set1 {
				s1 += op.seconds
			} else {
				s2 += op.seconds
			}
		}
		set1Sums = append(set1Sums, s1)
		set2Sums = append(set2Sums, s2)
	}
	correct := failed == 0
	if err := sameCounters(passes); err != nil {
		fmt.Println("FAIL determinism:", err)
		correct = false
	}
	printCounters(passes[0].counters)
	fmt.Print("pass walls (s):")
	for _, wall := range walls {
		fmt.Printf(" %.3f", wall)
	}
	fmt.Println()
	fmt.Printf("passes %d, ops attempted %d, failed %d, fail_ratio %.4f\n",
		len(passes), attempted, failed, float64(failed)/float64(attempted))
	w.named(passes)

	values := map[string]float64{
		"setup_s":      median(setups),
		"peak_heap_mb": median(peaks),
		"wall_s":       median(walls),
		"ops_per_s":    float64(attempted) / measured,
		"set1_s":       median(set1Sums),
		"set2_s":       median(set2Sums),
	}
	metrics := make(map[string]metric, len(values))
	for name, v := range values {
		metrics[name] = metric{v, endToEndUnits[name]}
	}
	return correct, printResult(correct, attempted, failed, metrics)
}

// runTraced makes one untraced and one traced pass over the same
// inputs, checks the traced pass selects what the untraced one did,
// and prints the per-layer metrics of the traced pass.
func runTraced(o options, w workload) (bool, error) {
	ctx := context.Background()
	runPass := func(tr *tracer) (*passResult, error) {
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if w.setupEachPass() {
			defer w.teardown()
		}
		runtime.GC()
		return w.pass(ctx, tr)
	}
	plain, err := runPass(nil)
	if err != nil {
		return false, err
	}
	tr := newTracer()
	traced, err := runPass(tr)
	if err != nil {
		return false, err
	}
	// The window is the traced pass itself, as the workload timed it.
	from := traced.start.UnixNano()
	to := from + int64(traced.wall*1e9)

	attempted, failed := 0, 0
	for _, p := range []*passResult{plain, traced} {
		for _, op := range p.ops {
			attempted++
			if op.err != nil {
				failed++
				fmt.Printf("FAIL %s: %v\n", op.name, op.err)
			}
		}
	}
	correct := failed == 0
	if err := sameCounters([]*passResult{plain, traced}); err != nil {
		fmt.Println("FAIL traced pass counters differ from the untraced pass:", err)
		correct = false
	}
	for op, sol := range plain.solutions {
		if traced.solutions[op] != sol {
			fmt.Printf("FAIL %s: traced path selected %q, Engine.Run selected %q\n", op, traced.solutions[op], sol)
			correct = false
		}
	}

	self := selfTimes(tr.snapshot(), from, to)
	printRollup(self, traced.wall)
	covered := 0.0
	for name, s := range self {
		if name != untracedLayer && layerOf(name) != "bench" {
			covered += s
		}
	}
	coverage := covered / traced.wall
	if coverage < 0.95 || coverage > 1.05 {
		fmt.Printf("FAIL layer self times cover %.1f%% of the traced wall time, want 95-105%%\n", 100*coverage)
		correct = false
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return false, err
	}
	fmt.Printf("wrote %d spans to %s\n", len(tr.snapshot()), path)

	traced.layer["trace.wall_s"] = traced.wall
	traced.layer["trace.untraced_wall_s"] = plain.wall
	traced.layer["trace.overhead_s"] = traced.wall - plain.wall
	traced.layer["trace.coverage"] = coverage
	out := make(map[string]metric, len(layerMetrics))
	for _, d := range layerMetrics {
		v := traced.layer[d.name]
		if d.span != "" {
			v = self[d.span]
		}
		out[d.name] = metric{v, d.unit}
	}
	return correct, printResult(correct, attempted, failed, out)
}

// endToEndUnits are the units of the end-to-end metrics every untraced
// run prints (see README.md for their meaning per workload).
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"peak_heap_mb": "MB",
	"wall_s":       "s",
	"ops_per_s":    "1/s",
	"set1_s":       "s",
	"set2_s":       "s",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result object as the last stdout line.
func printResult(correct bool, attempted, failed int, m map[string]metric) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sameCounters reports the first counter on which two passes differ.
func sameCounters(passes []*passResult) error {
	ref := passes[0].counters
	for i, p := range passes[1:] {
		if len(p.counters) != len(ref) {
			return fmt.Errorf("pass %d has %d counters, pass 0 has %d", i+1, len(p.counters), len(ref))
		}
		for k, v := range ref {
			if p.counters[k] != v {
				return fmt.Errorf("pass %d: %s = %v, pass 0 had %v", i+1, k, p.counters[k], v)
			}
		}
	}
	return nil
}

// printCounters prints the deterministic counters as one sorted line;
// two runs with the same seed must print the same line.
func printCounters(c map[string]float64) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("counters")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, strconv.FormatFloat(c[k], 'f', -1, 64))
	}
	fmt.Println(b.String())
}

// heapSampler tracks the peak Go heap goal while a pass runs: the
// size the collector lets the heap reach before its next cycle, derived
// from the live heap at the end of each cycle. It tracks what the heap
// needs without the sampling noise of the instantaneous heap size.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// shuffled returns 0..n-1 in a seed-determined order.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
