package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"; per-layer metrics leave it empty
}

// endToEnd are the untraced metrics a user of the repair service sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"repairs_per_s", "1/s", "higher"},
	{"repair_p50_s", "s", "lower"},
	{"repair_tail_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"ingest_mb_per_s", "MB/s", "higher"},
}

// perLayer are the traced run's metrics, one layer each. Times are
// seconds per repair (or per probe / per operation, as named).
var perLayer = []metricDef{
	{Name: "scenario.instantiate_s", Unit: "s"},
	{Name: "sdn.build_net_s", Unit: "s"},
	{Name: "sdn.replay_s", Unit: "s"},
	{Name: "sdn.hops_per_s", Unit: "1/s"},
	{Name: "sdn.miss_ratio", Unit: "ratio"},
	{Name: "metarepair.diagnose_s", Unit: "s"},
	{Name: "metaprov.explore_s", Unit: "s"},
	{Name: "solver.solve_s", Unit: "s"},
	{Name: "metaprov.steps", Unit: "count"},
	{Name: "metaprov.candidates", Unit: "count"},
	{Name: "backtest.backtest_s", Unit: "s"},
	{Name: "backtest.batches", Unit: "count"},
	{Name: "backtest.accept_ratio", Unit: "ratio"},
	{Name: "ndlog.firings", Unit: "count"},
	{Name: "ndlog.group_joins", Unit: "count"},
	{Name: "ndlog.delta_hit_ratio", Unit: "ratio"},
	{Name: "ndlog.index_lookups", Unit: "count"},
	{Name: "ndlog.scans", Unit: "count"},
	{Name: "go.alloc_mb_per_repair", Unit: "MB"},
	{Name: "go.allocs_per_repair", Unit: "count"},
	{Name: "go.gc_pause_ms_per_repair", Unit: "ms"},
	{Name: "metarepaird.submit_s", Unit: "s"},
	{Name: "jobs.queue_wait_s", Unit: "s"},
	{Name: "jobs.run_s", Unit: "s"},
	{Name: "jobs.rejected", Unit: "count"},
	{Name: "tracestore.ingest_s", Unit: "s"},
	{Name: "tracestore.bytes", Unit: "bytes"},
	{Name: "loadgen.lateness_max_s", Unit: "s"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio"},
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs rejects a metric list with a malformed or repeated name or a
// malformed unit.
func checkDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRe.MatchString(d.Name) {
			return fmt.Errorf("metric name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRe.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q: want 1 to 16 of [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult builds the result line from measured values, which must
// cover every metric in defs with a finite number.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	r := result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // newResult admits only finite numbers
	}
	return string(b)
}

// identicalPairs returns the pairs of metrics that read the same value in
// every run — one number reported under two names, as when a tail
// metric of one layer is copied into another. With fewer than two runs
// nothing can be concluded and nil is returned.
func identicalPairs(runs []map[string]float64) [][2]string {
	if len(runs) < 2 {
		return nil
	}
	var names []string
	for n := range runs[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	var out [][2]string
	for i, a := range names {
		for _, b := range names[i+1:] {
			same := true
			for _, run := range runs {
				va, oka := run[a]
				vb, okb := run[b]
				if !oka || !okb || va != vb {
					same = false
					break
				}
			}
			if same {
				out = append(out, [2]string{a, b})
			}
		}
	}
	return out
}
