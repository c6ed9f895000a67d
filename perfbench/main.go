// Command emap-perfbench is the EMAP benchmark: it runs one named
// workload against the program in this process over loopback TCP,
// checks every answer it samples, and prints each end-to-end metric
// with its unit and sample count. With -trace 1 it runs the workload a
// second time with spans recorded at every layer boundary and prints
// the per-layer metrics, the tracing overhead and the share of the
// client-observed latency the layers leave unaccounted. The last line
// of standard output is one JSON object with the verdict and metrics.
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// jsonTail is the percentile tail_ms reports on every workload. It has
// at least ten samples beyond it everywhere (ward_search, the smallest
// population, records 100 searches at 32 s), and on the larger
// populations many more, which keeps the figure steady from run to
// run; the human-readable lines also print each population's highest
// supported tail.
const jsonTail = 90

// setups is how many times a run builds the program's state; setup_s
// is their median.
const setups = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the span dump
}

// metric is one reported figure. N is its sample count (0 for counts
// and derived figures).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// outcome is what one measured pass of a workload produced.
type outcome struct {
	named     []metric           // the workload's end-to-end metrics, by their own names
	primary   summary            // the user-facing latency: p50_ms and tail_ms
	aux       summary            // the workload's second operation
	auxValue  float64            // aux_ms: the figure of aux the workload reports
	layers    []metric           // per-layer metrics (traced pass only)
	selfMs    map[string]float64 // mean self time per layer span, for the unaccounted share
	attempted int
	failed    int
	gated     int      // sampled answers checked by the correctness gate
	failures  []string // first few gate failures
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workload builds its inputs once (untimed), then its program state
// (timed, several times per run), then measures a pass.
type workload interface {
	prepare(o options)
	setup(o options, tr *tracer, dir string) (instance, error)
}

type instance interface {
	measure(o options, tr *tracer) *outcome
	close()
}

var workloads = map[string]func() workload{
	"ward_search":   func() workload { return &wardSearch{} },
	"monitor":       func() workload { return &monitor{} },
	"routed_ingest": func() workload { return &routedIngest{} },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ward_search, monitor or routed_ingest")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1: add a traced pass and print per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the span dump")
	flag.Parse()
	o.trace = trace == 1
	mk, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, trace)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(mk(), o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w workload, o options) error {
	t0 := time.Now()
	w.prepare(o)
	runtime.GC()
	fmt.Fprintf(os.Stderr, "perfbench: inputs synthesised in %.1fs\n", time.Since(t0).Seconds())

	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	// Set up several times; keep the first instance for the untraced
	// pass and the second for the traced one.
	tr := newTracer()
	var times []float64
	var kept []instance
	defer func() {
		for _, in := range kept {
			in.close()
		}
	}()
	for k := 0; k < setups; k++ {
		dir := filepath.Join(scratch, strconv.Itoa(k))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		in, err := w.setup(o, tr, dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if k == 0 || (k == 1 && o.trace) {
			kept = append(kept, in)
		} else {
			in.close()
		}
	}
	setupS := median(times)
	// mem_mb is the peak while the workload runs: drop the set-ups'
	// garbage and restart the kernel's high-water mark.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	t0 = time.Now()
	untraced := kept[0].measure(o, tr)
	fmt.Fprintf(os.Stderr, "perfbench: pass measured and checked in %.1fs\n", time.Since(t0).Seconds())
	fmt.Printf("workload %s  seed %d  seconds %g  set-ups %d\n", o.workload, o.seed, o.seconds, setups)
	printNamed(untraced, setupS)

	res := result{
		Attempted: untraced.attempted,
		Failed:    untraced.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if !o.trace {
		res.Metrics["p50_ms"] = jsonMetric{untraced.primary.P50, "ms"}
		res.Metrics["tail_ms"] = jsonMetric{percentile(untraced.primary.Sorted, jsonTail), "ms"}
		res.Metrics["aux_ms"] = jsonMetric{untraced.auxValue, "ms"}
		res.Metrics["mem_mb"] = jsonMetric{peakRSSMiB(), "MiB"}
		res.Metrics["setup_s"] = jsonMetric{setupS, "s"}
	} else {
		tr.on.Store(true)
		traced := kept[1].measure(o, tr)
		tr.on.Store(false)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		untraced.failures = append(untraced.failures, traced.failures...)
		untraced.gated += traced.gated
		spans := tr.snapshot()
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		layers := append(traced.layers,
			metric{Name: "trace.overhead_p50_ms", Unit: "ms", Value: traced.primary.P50 - untraced.primary.P50},
			metric{Name: "trace.overhead_tail_ms", Unit: "ms", Value: percentile(traced.primary.Sorted, jsonTail) - percentile(untraced.primary.Sorted, jsonTail)},
			metric{Name: "trace.overhead_aux_ms", Unit: "ms", Value: traced.auxValue - untraced.auxValue},
			metric{Name: "trace.unaccounted_share", Unit: "ratio", Value: unaccounted(traced)},
			metric{Name: "trace.spans", Unit: "count", Value: float64(len(spans))},
		)
		fmt.Printf("traced pass (%d spans written to %s):\n", len(spans), path)
		printNamed(traced, setupS)
		fmt.Println("per-layer metrics:")
		for _, m := range layers {
			printMetric(m)
			res.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	verdict := "PASS"
	if !res.Correct {
		verdict = "FAIL"
	}
	fmt.Printf("correctness: %s  (%d operations attempted, %d failed, %d sampled answers checked)\n",
		verdict, res.Attempted, res.Failed, untraced.gated)
	for _, f := range untraced.failures {
		fmt.Println("  gate:", f)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (too few samples)", k)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// unaccounted is the share of the mean client-observed latency that
// the mean layer self times do not cover.
func unaccounted(o *outcome) float64 {
	client := mean(o.primary.Sorted)
	if client <= 0 {
		return 0
	}
	var sum float64
	for _, v := range o.selfMs {
		sum += v
	}
	return (client - sum) / client
}

func printNamed(o *outcome, setupS float64) {
	named := append(o.named,
		metric{Name: "error_ratio", Unit: "ratio", Value: ratio(o.failed, o.attempted), N: o.attempted},
		metric{Name: "mem_mb", Unit: "MiB", Value: peakRSSMiB()},
		metric{Name: "setup_s", Unit: "s", Value: setupS, N: setups})
	for _, m := range named {
		printMetric(m)
	}
}

func printMetric(m metric) {
	n := ""
	if m.N > 0 {
		n = fmt.Sprintf("n=%d", m.N)
	}
	fmt.Printf("  %-32s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, n)
}

func ratio(a, b int) float64 { return ratioF(float64(a), float64(b)) }

// latencyMetrics names a latency population as <name>_p50_ms and
// <name>_p<tail>_ms, the tail at the highest supported percentile; a
// population too small for any tail reports its median alone.
func latencyMetrics(name string, s summary) []metric {
	out := []metric{{Name: name + "_p50_ms", Unit: "ms", Value: s.P50, N: s.N}}
	if s.TailP > 0 {
		out = append(out, metric{Name: name + "_p" + strconv.FormatFloat(s.TailP, 'f', -1, 64) + "_ms",
			Unit: "ms", Value: s.Tail, N: s.N})
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resetPeakRSS restarts the process's peak resident set size at its
// current size (Linux ≥ 4.0; elsewhere the peak covers the whole run).
func resetPeakRSS() {
	// Failure only widens what the peak covers; the run goes on.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
