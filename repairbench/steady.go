package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report
// reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// steady runs each workload N times per set through the command in
// BENCHMARK.json, each run with its own seed, and prints every
// end-to-end metric's median, quartiles and relative interquartile range
// next to its bound. With two sets it also prints how far the second
// set's median moved from the first's. It fails when a run fails its
// correctness gate, when a spread (setup_s excepted) exceeds its bound,
// when a median moves by more than its bound in the worse direction, or
// when two metrics of one workload read the same value in every run.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload and set")
	sets := fs.Int("sets", 1, "sets of runs (2 compares their medians)")
	only := fs.String("workloads", "", "comma-separated workloads (default: all)")
	seed0 := fs.Int64("seed", 1, "seed of the first run; later runs count up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	secs := bf.RunSeconds
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}

	var problems []string
	report := map[string]any{}
	for _, w := range names {
		setVals := make([][]map[string]float64, *sets)
		for s := 0; s < *sets; s++ {
			for r := 0; r < *runs; r++ {
				seed := *seed0 + int64(s*1000+r)
				res, dur, err := runOnce(bf.Command, w, seed, secs)
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s seed %d: %v", w, seed, err))
					continue
				}
				if !res.Correct || res.Failed != 0 {
					problems = append(problems, fmt.Sprintf("%s seed %d: correct %v, %d of %d operations failed",
						w, seed, res.Correct, res.Failed, res.Attempted))
				}
				vals := make(map[string]float64, len(res.Metrics))
				for _, m := range bf.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						problems = append(problems, fmt.Sprintf("%s seed %d: metric %s missing", w, seed, m.Name))
						continue
					}
					vals[m.Name] = v.Value
				}
				setVals[s] = append(setVals[s], vals)
				fmt.Fprintf(os.Stderr, "steady: %s set %d seed %d (%.0fs): %v\n", w, s+1, seed, dur.Seconds(), vals)
			}
		}
		fmt.Printf("\n%s: %d run(s) per set, %d s each\n", w, *runs, secs)
		fmt.Printf("  %-16s %4s %12s %12s %12s %8s %6s %s\n", "metric", "set", "median", "q1", "q3", "rel_iqr", "bound", "verdict")
		wrep := map[string]any{}
		for _, m := range bf.EndToEnd {
			var medians []float64
			for s := range setVals {
				var xs []float64
				for _, run := range setVals[s] {
					if v, ok := run[m.Name]; ok {
						xs = append(xs, v)
					}
				}
				if len(xs) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				spread := relIQR(xs)
				verdict := "steady"
				switch {
				case m.Name == "setup_s":
					verdict = "not bounded"
				case spread > m.Bound:
					verdict = "TOO NOISY"
					problems = append(problems, fmt.Sprintf("%s %s: spread %.4f > bound %.2f", w, m.Name, spread, m.Bound))
				case spread > m.Bound/3:
					verdict = "within bound, above a third"
				}
				fmt.Printf("  %-16s %4d %12.6g %12.6g %12.6g %8.4f %6.2f %s\n", m.Name, s+1, q2, q1, q3, spread, m.Bound, verdict)
				wrep[fmt.Sprintf("%s/set%d", m.Name, s+1)] = map[string]any{
					"values": xs, "median": q2, "q1": q1, "q3": q3, "rel_iqr": spread, "bound": m.Bound}
				medians = append(medians, q2)
			}
			if len(medians) == 2 {
				worse := (medians[1] - medians[0]) / medians[0]
				if m.Better == "higher" {
					worse = -worse
				}
				status := "ok"
				if worse > m.Bound {
					status = "WORSE THAN BOUND"
					problems = append(problems, fmt.Sprintf("%s %s: second median worse by %.4f > bound %.2f", w, m.Name, worse, m.Bound))
				}
				fmt.Printf("  %-16s  set 2 vs 1: worse by %+.4f (bound %.2f) %s\n", m.Name, worse, m.Bound, status)
			}
		}
		var all []map[string]float64
		for _, sv := range setVals {
			all = append(all, sv...)
		}
		for _, p := range identicalPairs(all) {
			problems = append(problems, fmt.Sprintf("%s: %s and %s read the same value in every run", w, p[0], p[1]))
		}
		report[w] = wrep
	}
	if err := writeJSON(filepath.Join(".bench_build", "repairbench", "steady.json"), report); err != nil {
		return err
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("PROBLEM:", p)
		}
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	fmt.Println("\nsteady: every run correct, every spread within its bound")
	return nil
}

// runOnce executes one benchmark run as the benchmark definition states
// it and parses the result from the last line of its output.
func runOnce(command []string, w string, seed int64, secs int) (result, time.Duration, error) {
	var res result
	args := append(append([]string(nil), command[1:]...),
		"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(secs), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	dur := time.Since(t0)
	if err != nil {
		return res, dur, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if last == "" {
		return res, dur, errors.New("no output")
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, dur, fmt.Errorf("last line %q: %w", last, err)
	}
	return res, dur, nil
}
