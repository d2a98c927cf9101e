// Command repairbench measures time to a validated repair — symptom →
// diagnose → explore → backtest → verdict — on three workloads:
//
//	paper-19sw    closed loop, one client, Q1–Q5 at 19 switches / 900 flows
//	fabric-169sw  the same loop at 169 switches / 600 flows
//	daemon-store  metarepaird on loopback: an open loop of Q1 jobs replaying
//	              windows of a stored trace, interleaved with trace ingest
//
// One run prints, as its last line, a JSON object with the keys correct,
// attempted, failed and metrics. Untraced runs (-trace 0) report the
// end-to-end metrics; traced runs (-trace 1) report one metric per layer
// and write a span dump. See README.md in this directory.
//
// Usage, from the root of the repository (run.sh builds and runs it):
//
//	bash repairbench/run.sh --workload paper-19sw --seed 1 --seconds 35 --trace 0
//	bash repairbench/run.sh steady -runs 10 -workloads paper-19sw,daemon-store
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	_ "repro/internal/scenarios" // registers Q1–Q5
	"repro/scenario"
)

// runOpts are one run's settings.
type runOpts struct {
	workload  string
	seed      int64
	duration  time.Duration
	trace     bool
	out       string // directory for scratch stores and span dumps
	daemonBin string // metarepaird binary for daemon-store
}

// workload is one benchmark workload; run measures it once.
type workload interface {
	run(o runOpts) (result, error)
}

var workloads = map[string]workload{
	"paper-19sw":   inprocWorkload{scale: scenario.Scale{Switches: 19, Flows: 900}, setupReps: 11},
	"fabric-169sw": inprocWorkload{scale: scenario.Scale{Switches: 169, Flows: 600}, setupReps: 5},
	"daemon-store": daemonWorkload{},
}

func main() {
	var o runOpts
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the job order, replay windows and chunk order")
	flag.Float64Var(&seconds, "seconds", 35, "how long the measured loop runs")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/repairbench", "directory for scratch stores and span dumps")
	flag.StringVar(&o.daemonBin, "daemon", "", "metarepaird binary (daemon-store)")
	flag.Parse()

	if flag.Arg(0) == "steady" {
		if err := steady(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "repairbench steady: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "repairbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "repairbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	o.duration = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "repairbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "repairbench: %s seed %d, %v, trace %d; %s\n",
		o.workload, o.seed, o.duration, traceFlag, envLine())
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repairbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	fmt.Println(res.line())
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment is the recorded machine: the numbers depend on it.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"http":       "loopback (127.0.0.1)",
	}
}

func envLine() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// finishRun builds the result line and reports the run: a one-line
// summary on standard error and, for a traced run, the span dump.
// absent names layers the workload does not traverse; they are reported
// as zero.
func finishRun(o runOpts, defs []metricDef, vals map[string]float64, attempted, failed int,
	info map[string]any, spans []span, absent []string) (result, error) {
	res, err := newResult(defs, vals, attempted, failed)
	if err != nil {
		return res, err
	}
	brief := make(map[string]any, len(info))
	for k, v := range info {
		if k != "metrics_scrape_delta" {
			brief[k] = v
		}
	}
	fmt.Fprintf(os.Stderr, "repairbench: %s attempted %d, failed %d; %v\n", o.workload, attempted, failed, brief)
	if !o.trace {
		return res, nil
	}
	dump := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"seconds":      o.duration.Seconds(),
		"environment":  environment(),
		"attempted":    attempted,
		"failed":       failed,
		"info":         info,
		"metrics":      vals,
		"absent":       absent,
		"spans":        spans,
		"self_by_name": selfByName(spans),
	}
	path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeJSON(path, dump); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "repairbench: span dump %s (%d spans); tracing overhead %.4f\n",
		path, len(spans), vals["bench.trace_overhead_ratio"])
	return res, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
