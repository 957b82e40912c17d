// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output for correctness, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) named in
// BENCHMARK.json. See README.md in this directory for the workloads and the
// layer → metric → workload map.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload obj-contend --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 9
	// warmScale sizes the warm-up pass that is part of set-up.
	warmScale = 0.1
	// minCycles and maxCycles bound the timed cycles of one run; between
	// them the run stops once --seconds have passed.
	minCycles = 4
	maxCycles = 200
)

// workload is one named set of inputs and phases.
type workload struct {
	name string
	// threads is the number of load threads the workload drives.
	threads int
	// run executes one cycle of every phase at the given scale (1 is the
	// measured size) on inputs made from seed.
	run func(seed int64, scale float64, c *cycle, ck *checker) (*cycleMetrics, error)
}

var workloads = []workload{
	{name: "table1-closed", threads: 2, run: runTable1},
	// kv-lossy is not listed in BENCHMARK.json: its replay deadlocks in a
	// few percent of replays (README.md, "Known defect").
	{name: "kv-lossy", threads: 2, run: runKV},
	{name: "open-durable", threads: 2, run: runOpen},
	{name: "obj-contend", threads: 2, run: runObj},
}

// cycleMetrics is what one cycle measured.
type cycleMetrics struct {
	// phases is each phase's wall seconds.
	phases map[string]float64
	// e2e holds end-to-end metrics plus the workload-specific ones printed
	// beside them.
	e2e map[string]float64
	// layer holds per-layer metrics; only traced cycles' values are
	// reported.
	layer map[string]float64
}

func newMetrics() *cycleMetrics {
	return &cycleMetrics{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// checker counts correctness checks as operations attempted and failed.
type checker struct {
	attempted, failed int
	failures          []string
}

func (ck *checker) expect(ok bool, format string, args ...any) {
	ck.attempted++
	if !ok {
		ck.failed++
		ck.failures = append(ck.failures, fmt.Sprintf(format, args...))
	}
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all for those BENCHMARK.json lists")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 20, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	commit := flag.String("commit", "unknown", "source commit, for the environment block")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, commit string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// all is the workloads BENCHMARK.json lists; an unlisted one runs only
	// when named.
	listed := map[string]bool{}
	for _, w := range man.Workloads {
		listed[w.Name] = true
	}
	var selected []workload
	for _, w := range workloads {
		if (name == "all" && listed[w.name]) || w.name == name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d, want at least 1", seconds)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}

	fmt.Printf("env go=%s num_cpu=%d gomaxprocs=%d commit=%s seed=%d seconds=%d trace=%v\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit, seed, seconds, traced)
	specs := man.EndToEnd
	if traced {
		specs = man.PerLayer
	}
	out := result{Metrics: map[string]metricValue{}}
	for _, w := range selected {
		if w.threads > runtime.GOMAXPROCS(0) {
			fmt.Printf("warning: %s drives %d load threads but GOMAXPROCS is %d\n", w.name, w.threads, runtime.GOMAXPROCS(0))
		}
		vals, ck, err := measure(w, seed, seconds, traced)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if traced {
			tr := newTracer()
			c := newCycle(tr)
			if _, err := w.run(seed, warmScale, c, &checker{}); err != nil {
				return fmt.Errorf("%s: span sample: %w", w.name, err)
			}
			path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
			if err := tr.write(path); err != nil {
				return err
			}
			fmt.Printf("%s spans of a warm-up-size traced cycle written to %s\n", w.name, path)
		}
		var absent []string
		for _, s := range specs {
			v, ok := vals[s.Name]
			if !ok {
				if !traced {
					return fmt.Errorf("%s did not measure end-to-end metric %s", w.name, s.Name)
				}
				// A layer the workload never calls reads 0.
				absent = append(absent, s.Name)
			}
			key := s.Name
			if len(selected) > 1 {
				key = w.name + "/" + s.Name
			}
			out.Metrics[key] = metricValue{Value: v, Unit: s.Unit}
		}
		if len(absent) > 0 {
			fmt.Printf("%s does not exercise (reported as 0): %s\n", w.name, strings.Join(absent, " "))
		}
		out.Attempted += ck.attempted
		out.Failed += ck.failed
		for _, f := range ck.failures {
			fmt.Printf("FAILED %s: %s\n", w.name, f)
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// workDir, under the checkout's build directory, holds WAL files and span
// dumps.
const workDir = ".bench_build/perfbench"

// measure sets the workload up setupReps times, then runs timed cycles for
// the given seconds and reduces each metric to its median over cycles. With
// traced set, cycles alternate between tracing off and on; the per-layer
// metrics come from the traced ones, and the tracing overhead is the
// difference of the two kinds' phase medians.
func measure(w workload, seed int64, seconds int, traced bool) (map[string]float64, *checker, error) {
	ck := &checker{}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := w.run(seed, warmScale, newCycle(nil), ck); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var plain, withSpans []*cycleMetrics
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; i < maxCycles && (i < minCycles || time.Now().Before(deadline)); i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		c := newCycle(tr)
		collect()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := w.run(seed, 1, c, ck)
		if err != nil {
			// A phase that fails (a replay that deadlocks, say) is a failed
			// operation; the run reports what it measured before it.
			ck.expect(false, "cycle %d: %v", i, err)
			break
		}
		runtime.ReadMemStats(&after)
		m.e2e["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		m.phases = map[string]float64{}
		for ph := range c.phases {
			m.phases[ph] = c.seconds(ph)
		}
		if tr != nil {
			withSpans = append(withSpans, m)
		} else {
			plain = append(plain, m)
		}
	}

	if len(plain) == 0 || (traced && len(withSpans) == 0) {
		return nil, nil, fmt.Errorf("no cycle completed: %v", ck.failures)
	}
	e2e := medians(plain, func(m *cycleMetrics) map[string]float64 { return m.e2e })
	e2e["setup_s"] = median(setups)
	printE2E(w.name, e2e, len(plain))
	if !traced {
		return e2e, ck, nil
	}

	layer := medians(withSpans, func(m *cycleMetrics) map[string]float64 { return m.layer })
	untracedPhases := medians(plain, func(m *cycleMetrics) map[string]float64 { return m.phases })
	for ph, v := range medians(withSpans, func(m *cycleMetrics) map[string]float64 { return m.phases }) {
		layer["trace_overhead_s."+ph] = v - untracedPhases[ph]
	}
	for k, name := range e2eAsLayer {
		if v, ok := e2e[k]; ok {
			layer[name] = v
		}
	}
	printLayers(w.name, layer, len(withSpans))
	if p, o := layer["core.parked_calls"], layer["core.turn_wait_count"]; p > 0 && o == 0 {
		fmt.Printf("warning: %s: timed replay calls saw %v parks but obs counted no turn waits (not counted as a failure)\n", w.name, p)
	}
	return layer, ck, nil
}

// e2eAsLayer names the per-layer copies of the end-to-end figures only some
// workloads have; BENCHMARK.json gates only figures every workload reports.
var e2eAsLayer = map[string]string{
	"recover_s":        "checkpoint.recover_s",
	"wal_peak_bytes":   "wal.peak_bytes",
	"record_s.sharded": "core.record_s.sharded",
	"replay_s.sharded": "core.replay_s.sharded",
}

// medians reduces each metric to its median over the cycles that have it.
func medians(ms []*cycleMetrics, get func(*cycleMetrics) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range get(m) {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// e2eUnits gives the unit of every end-to-end figure printed.
var e2eUnits = map[string]string{
	"setup_s": "s", "plain_s": "s", "record_s": "s", "replay_s": "s", "analyze_s": "s",
	"recover_s": "s", "record_s.sharded": "s", "replay_s.sharded": "s",
	"log_bytes": "B", "wal_peak_bytes": "B", "alloc_mb": "MB",
}

func printE2E(name string, e2e map[string]float64, cycles int) {
	fmt.Printf("%s: %d untraced cycles, medians\n", name, cycles)
	for _, k := range sortedKeys(e2e) {
		if u, ok := e2eUnits[k]; ok {
			fmt.Printf("  %-18s %14.6f %s\n", k, e2e[k], u)
		}
	}
	if p := e2e["plain_s"]; p > 0 {
		// The paper's record overhead, printed for reading only: a faster
		// Passthrough path would read as a regression in it.
		fmt.Printf("  %-18s %+13.1f%% (record_s/plain_s-1, not a metric)\n", "rec ovhd", 100*(e2e["record_s"]/p-1))
	}
}

func printLayers(name string, layer map[string]float64, cycles int) {
	fmt.Printf("%s: %d traced cycles, per-layer medians\n", name, cycles)
	for _, k := range sortedKeys(layer) {
		fmt.Printf("  %-34s %16.6f\n", k, layer[k])
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collect runs a full collection so one phase's garbage is not charged to
// the next.
func collect() { runtime.GC() }
