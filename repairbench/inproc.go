package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

// scenarioNames are the paper's five case studies, the in-process mix.
var scenarioNames = []string{"Q1", "Q2", "Q3", "Q4", "Q5"}

// captureBytes is how many bytes of workload trace the in-process
// workloads append to a fresh trace store per run, in whole rounds of
// all five scenarios: about a hundred millisecond-scale appends, whose
// median rate is ingest_mb_per_s.
const captureBytes = 160 << 20

// inprocWorkload is a closed loop with one client: it repairs Q1–Q5
// round-robin (each round in a seeded order) through the public
// scenario and metarepair APIs, each job waiting for the previous one.
type inprocWorkload struct {
	scale     scenario.Scale
	setupReps int
}

func lookupSpecs(names []string) ([]scenario.Spec, error) {
	specs := make([]scenario.Spec, len(names))
	for i, n := range names {
		sp, err := scenario.Default().Lookup(n)
		if err != nil {
			return nil, err
		}
		specs[i] = sp
	}
	return specs, nil
}

// reference is what an untimed repair of a scenario produced at set-up;
// every timed job of that scenario must reproduce it.
type reference struct {
	candidates, accepted int
}

// repair runs one validated repair the way an operator does: replay the
// trace in which the symptom shows, then explore and backtest.
func repair(s *scenario.Scenario) (rep *metarepair.Report, diagnosed time.Time, err error) {
	sess, _, err := s.Diagnose()
	if err != nil {
		return nil, time.Time{}, err
	}
	diagnosed = time.Now()
	rep, err = sess.Repair(context.Background(), s.Symptom(), s.Backtest())
	return rep, diagnosed, err
}

// fixAccepted reports whether the scenario's intuitive fix is among the
// accepted repairs.
func fixAccepted(s *scenario.Scenario, rep *metarepair.Report) bool {
	for _, r := range rep.Results {
		if r.Accepted && strings.Contains(r.Candidate.Describe(), s.IntuitiveFix) {
			return true
		}
	}
	return false
}

// check compares a job's report with the scenario's reference.
func (ref reference) check(s *scenario.Scenario, rep *metarepair.Report) error {
	if len(rep.Candidates) != ref.candidates || rep.Accepted != ref.accepted {
		return fmt.Errorf("%s: %d candidates, %d accepted; reference %d, %d",
			s.Name, len(rep.Candidates), rep.Accepted, ref.candidates, ref.accepted)
	}
	if !fixAccepted(s, rep) {
		return fmt.Errorf("%s: intuitive fix %q not accepted", s.Name, s.IntuitiveFix)
	}
	return nil
}

// ingestStats is a run's trace-store ingest: bytes appended, and the
// time and rate of each append+sync.
type ingestStats struct {
	bytes        float64
	times, rates []float64
}

// mbPerS is the median append+sync rate in MB/s: robust to the odd
// append that waits behind a segment seal or another process's I/O.
func (st ingestStats) mbPerS() float64 { return median(st.rates) }

// captureIngest appends the scenarios' workloads, as the capture command
// would record them, to a fresh binary-codec store under dir: whole
// rounds of all five, time-shifted per round, one Append+Sync per
// scenario, until captureBytes are written.
func captureIngest(dir string, cells []*scenario.Scenario) (ingestStats, error) {
	var st ingestStats
	store, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	defer store.Close()
	perRound := 0
	for _, s := range cells {
		perRound += len(s.Workload) * trace.RecordSize
	}
	rounds := (captureBytes + perRound - 1) / perRound
	const copySpan = 1 << 32
	for r := 0; r < rounds; r++ {
		for _, s := range cells {
			chunk := shifted(s.Workload, int64(r)*copySpan)
			before := store.Stats().Bytes
			t0 := time.Now()
			if err := store.Append(chunk...); err != nil {
				return st, err
			}
			if err := store.Sync(); err != nil {
				return st, err
			}
			dt := time.Since(t0).Seconds()
			b := float64(store.Stats().Bytes - before)
			st.times = append(st.times, dt)
			st.rates = append(st.rates, b/1e6/dt)
			st.bytes += b
		}
	}
	return st, nil
}

// shifted copies entries with every timestamp moved by off.
func shifted(entries []trace.Entry, off int64) []trace.Entry {
	out := make([]trace.Entry, len(entries))
	for i, e := range entries {
		e.Time += off
		out[i] = e
	}
	return out
}

// inprocJob is one timed repair.
type inprocJob struct {
	traced    bool
	dur, diag float64
	rep       *metarepair.Report
	goDelta   goSample
}

func (w inprocWorkload) run(o runOpts) (result, error) {
	specs, err := lookupSpecs(scenarioNames)
	if err != nil {
		return result{}, err
	}
	attempted, failed := 0, 0
	fail := func(err error) {
		failed++
		fmt.Fprintf(os.Stderr, "repairbench: %v\n", err)
	}

	// Set-up: instantiate every scenario cell at the workload's scale,
	// several times from a collected heap; the median is setup_s.
	var setups []float64
	var cells []*scenario.Scenario
	for r := 0; r < w.setupReps; r++ {
		cells = nil
		runtime.GC()
		t0 := time.Now()
		for _, sp := range specs {
			s, err := sp.Instantiate(w.scale)
			if err != nil {
				return result{}, fmt.Errorf("instantiating %s at %s: %w", sp.Name, w.scale, err)
			}
			cells = append(cells, s)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Untimed reference repairs: the counts every timed job must match.
	refs := make([]reference, len(cells))
	for i, s := range cells {
		attempted++
		rep, _, err := repair(s)
		if err != nil {
			fail(fmt.Errorf("reference %s: %w", s.Name, err))
			refs[i] = reference{candidates: -1}
			continue
		}
		refs[i] = reference{len(rep.Candidates), rep.Accepted}
		if !fixAccepted(s, rep) {
			fail(fmt.Errorf("reference %s: intuitive fix %q not accepted", s.Name, s.IntuitiveFix))
		}
	}

	capDir, err := os.MkdirTemp(o.out, "capture-")
	if err != nil {
		return result{}, err
	}
	ingest, err := captureIngest(filepath.Join(capDir, "store"), cells)
	os.RemoveAll(capDir)
	attempted += len(ingest.times)
	if err != nil {
		fail(fmt.Errorf("capture ingest: %w", err))
	}

	var rec *spanRecorder
	if o.trace {
		rec = newSpanRecorder(time.Now())
	}
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0x9e3779b97f4a7c15))
	var jobs []inprocJob
	var probes sdnTotals
	runtime.GC()
	start := time.Now()
	deadline := start.Add(o.duration)
	var last time.Time
loop:
	for round := 0; ; round++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured against jobs of the same run.
		traced := o.trace && round%2 == 1
		order := rng.Perm(len(cells))
		for _, i := range order {
			if !o.trace && !time.Now().Before(deadline) {
				break loop
			}
			s := cells[i]
			attempted++
			var g0 goSample
			if traced {
				g0 = readGo()
			}
			t0 := time.Now()
			rep, t1, err := repair(s)
			t2 := time.Now()
			last = t2
			if err != nil {
				fail(fmt.Errorf("job %d %s: %w", len(jobs), s.Name, err))
				continue
			}
			if err := refs[i].check(s, rep); err != nil {
				fail(fmt.Errorf("job %d: %w", len(jobs), err))
				continue
			}
			j := inprocJob{traced: traced, dur: t2.Sub(t0).Seconds(), diag: t1.Sub(t0).Seconds()}
			if traced {
				j.goDelta = readGo().sub(g0)
				j.rep = rep
				recordJobSpans(rec, len(jobs), s.Name, t0, t1, t2, rep.Spans)
			}
			jobs = append(jobs, j)
		}
		if o.trace {
			if !time.Now().Before(deadline) {
				break
			}
			if traced {
				// One layer probe per traced round, rotating through
				// the scenarios, outside every timed repair.
				p, err := probeSDN(rec, -1, specs[(round/2)%len(specs)], w.scale)
				if err != nil {
					return result{}, err
				}
				probes.add(p)
			}
		}
	}
	elapsed := last.Sub(start).Seconds()

	var untraced, tracedDurs []float64
	for _, j := range jobs {
		if j.traced {
			tracedDurs = append(tracedDurs, j.dur)
		} else {
			untraced = append(untraced, j.dur)
		}
	}
	if len(untraced) == 0 {
		return result{}, fmt.Errorf("no job completed in %v", o.duration)
	}
	vals := map[string]float64{}
	info := map[string]any{"jobs": len(untraced), "traced_jobs": len(tracedDurs)}
	if !o.trace {
		s := sorted(untraced)
		p, ok := tailPercentile(len(s))
		if !ok {
			return result{}, fmt.Errorf("%d jobs leave fewer than %d beyond the median; run longer", len(s), minBeyond)
		}
		hwm, err := vmHWM(os.Getpid())
		if err != nil {
			return result{}, err
		}
		vals["setup_s"] = median(setups)
		vals["repairs_per_s"] = float64(len(untraced)) / elapsed
		vals["repair_p50_s"] = quantile(s, 0.5)
		vals["repair_tail_s"] = quantile(s, p/100)
		vals["rss_peak_mb"] = hwm / 1e6
		vals["ingest_mb_per_s"] = ingest.mbPerS()
		info["tail_percentile"] = p
		info["setup_samples_s"] = setups
		return finishRun(o, endToEnd, vals, attempted, failed, info, nil, nil)
	}

	layerFromReports(vals, jobs)
	probes.put(vals)
	vals["tracestore.ingest_s"] = median(ingest.times)
	vals["tracestore.bytes"] = ingest.bytes
	vals["bench.trace_overhead_ratio"] = median(tracedDurs) / median(untraced)
	// The in-process loop has no daemon, job queue or send schedule.
	absent := []string{"metarepaird.submit_s", "jobs.queue_wait_s", "jobs.run_s",
		"jobs.rejected", "loadgen.lateness_max_s"}
	for _, n := range absent {
		vals[n] = 0
	}
	return finishRun(o, perLayer, vals, attempted, failed, info, rec.finish(), absent)
}

// layerFromReports averages the traced jobs' own reports into the
// per-repair layer metrics.
func layerFromReports(vals map[string]float64, jobs []inprocJob) {
	var n, diag, explore, backtest, solve, steps, cands, batches, acc, evald float64
	var firings, groupJoins, lookups, scans float64
	var g goSample
	for _, j := range jobs {
		if !j.traced {
			continue
		}
		r := j.rep
		n++
		diag += j.diag
		for _, sp := range r.Spans {
			switch sp.Name {
			case metarepair.SpanExplore:
				explore += sp.Duration().Seconds()
			case metarepair.SpanBacktest:
				backtest += sp.Duration().Seconds()
			}
		}
		solve += r.Timing.ConstraintSolving.Seconds()
		steps += float64(r.Steps)
		cands += float64(r.Generated)
		batches += float64(r.Batches)
		acc += float64(r.Accepted)
		evald += float64(r.Evaluated)
		firings += float64(r.Engine.Firings)
		groupJoins += float64(r.Engine.GroupJoins)
		lookups += float64(r.Engine.IndexLookups)
		scans += float64(r.Engine.Scans)
		g.add(j.goDelta)
	}
	vals["metarepair.diagnose_s"] = diag / n
	vals["metaprov.explore_s"] = explore / n
	vals["backtest.backtest_s"] = backtest / n
	vals["solver.solve_s"] = solve / n
	vals["metaprov.steps"] = steps / n
	vals["metaprov.candidates"] = cands / n
	vals["backtest.batches"] = batches / n
	vals["backtest.accept_ratio"] = acc / evald
	vals["ndlog.firings"] = firings / n
	vals["ndlog.group_joins"] = groupJoins / n
	vals["ndlog.delta_hit_ratio"] = 1 - groupJoins/firings
	vals["ndlog.index_lookups"] = lookups / n
	vals["ndlog.scans"] = scans / n
	vals["go.alloc_mb_per_repair"] = g.allocBytes / 1e6 / n
	vals["go.allocs_per_repair"] = g.allocObjects / n
	vals["go.gc_pause_ms_per_repair"] = g.pauseSeconds * 1e3 / n
}

// recordJobSpans records one traced job: job ⊃ {diagnose, repair}, with
// the session's own span tree (run ⊃ explore, backtest ⊃ batch, …)
// re-parented under repair.
func recordJobSpans(rec *spanRecorder, job int, name string, t0, t1, t2 time.Time, spans []metarepair.Span) {
	root := rec.add(0, job, "job."+name, t0, t2)
	rec.add(root, job, "metarepair.diagnose", t0, t1)
	rep := rec.add(root, job, "metarepair.repair", t1, t2)
	addSessionSpans(rec, rep, job, spans)
}

// addSessionSpans records a report's spans under parent. Report spans
// name their parent rather than point at it, and arrive in completion
// order, so parents are added first by depth.
func addSessionSpans(rec *spanRecorder, parent, job int, spans []metarepair.Span) {
	parentOf := make(map[string]string, len(spans))
	for _, s := range spans {
		parentOf[s.Name] = s.Parent
	}
	depth := func(name string) int {
		d := 0
		for p := parentOf[name]; p != "" && d < len(spans); p = parentOf[p] {
			d++
		}
		return d
	}
	ordered := append([]metarepair.Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		di, dj := depth(ordered[i].Name), depth(ordered[j].Name)
		if di != dj {
			return di < dj
		}
		return ordered[i].Start.Before(ordered[j].Start)
	})
	ids := make(map[string]int, len(spans))
	for _, s := range ordered {
		p := parent
		if s.Parent != "" {
			if id, ok := ids[s.Parent]; ok {
				p = id
			}
		}
		ids[s.Name] = rec.add(p, job, "session."+s.Name, s.Start, s.End)
	}
}
