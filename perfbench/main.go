// Command perfbench is the end-to-end benchmark of microfab. It runs one
// workload — the exact-solver proof corpus, the figure campaigns, or a
// closed-loop mix of mfserve requests — for a fixed time, checks every
// output, and prints the workload's metrics. With -trace 1 it instead runs
// the workload twice (untraced, then traced), times the calls into each
// layer, and prints the per-layer metrics. See README.md for the metric
// definitions and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// bench is one workload's prepared inputs.
type bench interface {
	// run measures the workload for about seconds seconds (at least one
	// pass) and checks its outputs. tr is nil for an untraced run; the
	// run's spans descend from the span parent (0 for none).
	run(seconds float64, tr *tracer, parent int64) (*outcome, error)
	// close releases what setup started.
	close()
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(seed int64) (bench, error){
	"proof-corpus": setupCorpus,
	"campaign":     setupCampaign,
	"serve-mixed":  setupServe,
}

// A run sets its workload up at least minSetupReps times and until
// setupSeconds have passed (at most maxSetupReps times); setup_s is the
// median, so a short burst of contention does not move it.
const (
	minSetupReps = 5
	maxSetupReps = 100
	setupSeconds = 1.0
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is a metric printed in the text report under its own name.
type named struct {
	name string
	metric
}

// outcome is what one measured run of a workload produced. The reported
// rate and latencies are best-of-k figures (see README.md, "Noise"): the
// workload measures each quantity several times within the window and
// keeps the least contended measurement.
type outcome struct {
	wall     float64           // measured seconds
	ops      int               // operations completed
	rate     float64           // reported operations per second
	p50      float64           // reported median latency, ms
	tail     float64           // reported tail latency, ms
	tailQ    float64           // the tail's percentile
	samples  int               // latency samples behind p50 and tail
	rssMB    float64           // peak resident memory after the first pass, MB
	tally    tally             // attempted and failed operations
	problems []string          // failed correctness checks
	report   []named           // workload-specific metrics for the text report
	refs     []string          // this seed's reference values, as Go source
	layers   map[string]metric // per-layer metrics the workload measured itself
}

// setLatency sets p50 and tail from one set of latency samples.
func (o *outcome) setLatency(ms []float64) {
	o.p50 = median(ms)
	o.tail, o.tailQ = tail(ms)
	o.samples = len(ms)
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: proof-corpus, campaign or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the trace file")
	refs := flag.Bool("reference", false, "also print the run's reference values as Go source for reference.go")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *out, *refs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, outDir string, refs bool) error {
	setup, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	b, setupS, err := setUp(setup, seed)
	if err != nil {
		return fmt.Errorf("set up %s: %w", name, err)
	}
	defer b.close()

	res := result{}
	var primary *outcome
	if !traced {
		primary, err = b.run(seconds, nil, 0)
		if err != nil {
			return err
		}
		res.Metrics = endToEnd(setupS, primary)
	} else {
		base, err := b.run(seconds/2, nil, 0)
		if err != nil {
			return err
		}
		tr := newTracer()
		primary, err = b.run(seconds/2, tr, 0)
		if err != nil {
			return err
		}
		primary.tally.merge(base.tally)
		primary.problems = append(primary.problems, base.problems...)
		layers, err := runSuite(seed, tr, primary.layers)
		if err != nil {
			return err
		}
		layers["trace_overhead_frac"] = metric{base.rate/primary.rate - 1, "share"}
		res.Metrics = layers
		spans := tr.all()
		printSummary(os.Stdout, name, spans)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeTrace(path, name, seed, spans); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	}

	printReport(name, seed, setupS, primary)
	if refs {
		for _, r := range primary.refs {
			fmt.Println(r)
		}
	}
	res.Correct = len(primary.problems) == 0
	res.Attempted = primary.tally.attempted
	res.Failed = primary.tally.failed
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd returns the end-to-end metrics of an untraced run.
func endToEnd(setupS float64, o *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"peak_rss_mb": {o.rssMB, "MB"},
		"ops_per_s":   {o.rate, "1/s"},
		"p50_ms":      {o.p50, "ms"},
		"tail_ms":     {o.tail, "ms"},
	}
}

// setUp runs the workload's set-up repeatedly and keeps the last inputs;
// it returns them with the median set-up time in seconds.
func setUp(setup func(int64) (bench, error), seed int64) (bench, float64, error) {
	var times []float64
	var b bench
	start := time.Now()
	for i := 0; i < maxSetupReps && (i < minSetupReps || time.Since(start).Seconds() < setupSeconds); i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := setup(seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// printReport writes the human-readable part of the output: the
// workload's own metrics by name, then any failed checks.
func printReport(name string, seed int64, setupS float64, o *outcome) {
	fmt.Printf("workload %s, seed %d: %d operations in %.3f s, %d attempted, %d failed\n",
		name, seed, o.ops, o.wall, o.tally.attempted, o.tally.failed)
	rows := append([]named{
		{"setup_s", metric{setupS, "s"}},
		{"ops_per_s", metric{o.rate, "1/s"}},
		{"p50_ms", metric{o.p50, "ms"}},
		{fmt.Sprintf("tail_ms (p%g of %d)", o.tailQ, o.samples), metric{o.tail, "ms"}},
		{"ops_failed_frac", metric{o.tally.failedShare(), "share"}},
	}, o.report...)
	for _, r := range rows {
		fmt.Printf("  %-34s %14.6g %s\n", r.name, r.Value, r.Unit)
	}
	for _, p := range o.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
}

// peakRSSMB is the process's peak resident set size so far, in MB. The
// workloads read it after their first pass, so that it does not grow with
// the number of passes a run happens to fit.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
