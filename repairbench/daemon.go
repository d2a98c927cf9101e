package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/scenario"
)

// The daemon-store load. The rate is fixed, never calibrated at run
// time: about half of what one worker completes alone (a windowed Q1
// repair takes ~0.36 s on the 2-CPU machine the benchmark was sized on),
// so the queue stays short and the numbers describe service time plus
// ordinary queueing, not an overload.
const (
	daemonJobRate   = 1.2 // Q1 jobs per second, and ingest POSTs per second
	daemonWorkers   = 2
	daemonSetupReps = 9
	// ingestPhase places each ingest POST this long after a job's send:
	// after a typical job has finished and well before the next starts.
	// An ingest that sometimes lands inside a job and sometimes just
	// after it would turn small changes in job time into large swings
	// of both metrics; one that never overlaps measures each on its own.
	ingestPhase = 600 * time.Millisecond
	// baseCopies time-shifted copies of the Q1 trace are ingested at
	// set-up; each job replays one of them, chosen by the seed. Copies
	// ingested during the run land after them in time and are never
	// replayed, so every job's verdicts equal the in-process reference.
	baseCopies   = 4
	copySpan     = 1 << 20 // timestamp distance between copies
	daemonTenant = "bench"
	daemonTrace  = "q1"
	pollInterval = 20 * time.Millisecond
	// drainLimit bounds how long the run waits for the last jobs.
	drainLimit = 60 * time.Second
)

var daemonScale = scenario.Scale{Switches: 19, Flows: 900}

type daemonWorkload struct{}

// verdict is one backtested candidate as the daemon reports it.
type verdict struct {
	Desc     string `json:"desc"`
	Accepted bool   `json:"accepted"`
}

// jobWire is the part of the daemon's job status the benchmark reads.
type jobWire struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
	Report   *struct {
		Generated int       `json:"generated"`
		Accepted  int       `json:"accepted"`
		Batches   int       `json:"batches"`
		Steps     int       `json:"steps"`
		Evaluated int       `json:"evaluated"`
		Results   []verdict `json:"results"`
		Timing    struct {
			SolvingMS float64 `json:"solving_ms"`
		} `json:"timing"`
	} `json:"report"`
}

// encodeCopy encodes one time-shifted copy of the Q1 trace as an ingest
// body.
func encodeCopy(entries []trace.Entry, copy int) ([]byte, error) {
	buf := make([]byte, 0, len(entries)*trace.RecordSize)
	var err error
	for _, e := range entries {
		e.Time += int64(copy) * copySpan
		if buf, err = tracestore.Binary.AppendRecord(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// daemonProc is one metarepaird process on a loopback port.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startDaemon(bin, dataDir string, log io.Writer) (*daemonProc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir,
		"-workers", fmt.Sprint(daemonWorkers), "-drain-timeout", "10s")
	cmd.Stdout, cmd.Stderr = log, log
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemonProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// client talks to the daemon over at most two loopback connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &client{http: &http.Client{Transport: tr, Timeout: 20 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.http.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v (last error %v)", c.base, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *client) ingest(body []byte) error {
	url := fmt.Sprintf("%s/v1/tenants/%s/traces/%s", c.base, daemonTenant, daemonTrace)
	resp, err := c.http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ack struct {
		Ingested int    `json:"ingested"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return fmt.Errorf("ingest: status %d, decoding reply: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %s", resp.StatusCode, ack.Error)
	}
	if want := len(body) / trace.RecordSize; ack.Ingested != want {
		return fmt.Errorf("ingest: %d records acknowledged, %d sent", ack.Ingested, want)
	}
	return nil
}

// errRejected marks a submit refused with 429 (a quota rejection).
var errRejected = errors.New("rejected with 429")

func (c *client) submit(from, to int64) (jobWire, error) {
	req := map[string]any{
		"scenario": "Q1", "switches": daemonScale.Switches, "flows": daemonScale.Flows,
		"trace": daemonTrace, "from": from, "to": to,
	}
	body, _ := json.Marshal(req) // a map of strings and numbers always encodes
	resp, err := c.http.Post(fmt.Sprintf("%s/v1/tenants/%s/jobs", c.base, daemonTenant),
		"application/json", bytes.NewReader(body))
	if err != nil {
		return jobWire{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return jobWire{}, errRejected
	}
	var j jobWire
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return j, fmt.Errorf("submit: status %d, decoding reply: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusCreated {
		return j, fmt.Errorf("submit: status %d: %s", resp.StatusCode, j.Error)
	}
	return j, nil
}

func (c *client) job(id string) (jobWire, error) {
	var j jobWire
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return j, fmt.Errorf("job %s: status %d", id, resp.StatusCode)
	}
	return j, json.NewDecoder(resp.Body).Decode(&j)
}

func (c *client) scrape() (*obsv.Scrape, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obsv.ParseText(resp.Body)
}

// daemonJob is one scheduled repair and what became of it.
type daemonJob struct {
	due, sent, acked time.Time
	copy             int
	traced           bool
	id               string
	status           jobWire
	ok               bool
}

// ttr is the job's time to report: from its scheduled send time to the
// daemon's finished stamp, both read from this host's clock.
func (j *daemonJob) ttr() float64 { return j.status.Finished.Sub(j.due).Seconds() }

func (daemonWorkload) run(o runOpts) (result, error) {
	if o.daemonBin == "" {
		return result{}, errors.New("daemon-store needs -daemon (the metarepaird binary)")
	}
	attempted, failed, rejected := 0, 0, 0
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		failed++
		mu.Unlock()
		fmt.Fprintf(os.Stderr, "repairbench: %v\n", err)
	}

	// In-process reference: the verdicts every daemon job must return.
	spec, err := scenario.Default().Lookup("Q1")
	if err != nil {
		return result{}, err
	}
	q1, err := spec.Instantiate(daemonScale)
	if err != nil {
		return result{}, err
	}
	attempted++
	var ref []verdict
	if rep, _, err := repair(q1); err != nil {
		fail(fmt.Errorf("reference Q1: %w", err))
	} else {
		if !fixAccepted(q1, rep) {
			fail(fmt.Errorf("reference Q1: intuitive fix %q not accepted", q1.IntuitiveFix))
		}
		for _, r := range rep.Results {
			ref = append(ref, verdict{r.Candidate.Describe(), r.Accepted})
		}
	}

	runDir, err := os.MkdirTemp(o.out, "daemon-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)
	logf, err := os.Create(filepath.Join(runDir, "metarepaird.log"))
	if err != nil {
		return result{}, err
	}
	defer logf.Close()

	// Set-up, repeated: boot → /healthz → ingest the base trace.
	var setups []float64
	var d *daemonProc
	var c *client
	for r := 0; r < daemonSetupReps; r++ {
		if d != nil {
			c.close()
			d.stop()
		}
		dataDir := filepath.Join(runDir, fmt.Sprintf("data-%d", r))
		var bodies [][]byte
		for k := 0; k < baseCopies; k++ {
			b, err := encodeCopy(q1.Workload, k)
			if err != nil {
				return result{}, err
			}
			bodies = append(bodies, b)
		}
		t0 := time.Now()
		d, err = startDaemon(o.daemonBin, dataDir, logf)
		if err != nil {
			return result{}, err
		}
		c = newClient(d.base)
		if err := c.waitHealthy(30 * time.Second); err != nil {
			d.stop()
			return result{}, err
		}
		for _, b := range bodies {
			if err := c.ingest(b); err != nil {
				d.stop()
				return result{}, fmt.Errorf("base-trace ingest: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	defer c.close()

	rng := rand.New(rand.NewPCG(uint64(o.seed), 0x9e3779b97f4a7c15))
	start := time.Now().Add(100 * time.Millisecond)
	jobPlan := newSchedule(start, 0, o.duration, daemonJobRate)
	ingestPlan := newSchedule(start, ingestPhase, o.duration, daemonJobRate)
	jobs := make([]daemonJob, jobPlan.n)
	for i := range jobs {
		jobs[i].copy = rng.IntN(baseCopies)
		// A traced run alternates blocks of five untraced and five
		// traced jobs, so the tracing overhead is measured in one run.
		jobs[i].traced = o.trace && (i/5)%2 == 1
	}
	// The seed also sets the order in which further copies arrive.
	bodies := make([][]byte, ingestPlan.n)
	for i, p := range rng.Perm(ingestPlan.n) {
		if bodies[i], err = encodeCopy(q1.Workload, baseCopies+p); err != nil {
			return result{}, err
		}
	}
	attempted += len(jobs) + len(bodies)

	var rec *spanRecorder
	var before *obsv.Scrape
	if o.trace {
		rec = newSpanRecorder(start)
		if before, err = c.scrape(); err != nil {
			return result{}, fmt.Errorf("scraping /metrics: %w", err)
		}
	}
	stop := make(chan struct{})
	sleepUntil := func(t time.Time) bool {
		select {
		case <-time.After(time.Until(t)):
			return true
		case <-stop:
			return false
		}
	}

	var wg sync.WaitGroup
	submitted := make(chan int, len(jobs)) // one send per job, never blocks
	probeReq := make(chan int, len(jobs))
	var jobLate, ingestLate lateness
	ingestTimes := make([]float64, len(bodies))
	ingestOK := make([]bool, len(bodies))

	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(submitted)
		defer close(probeReq)
		jobLate = jobPlan.drive(time.Now, sleepUntil, func(i int, due time.Time) {
			j := &jobs[i]
			j.due, j.sent = due, time.Now()
			from := int64(j.copy) * copySpan
			st, err := c.submit(from, from+copySpan-1)
			j.acked = time.Now()
			switch {
			case errors.Is(err, errRejected):
				mu.Lock()
				rejected++
				mu.Unlock()
				fail(fmt.Errorf("job %d: %w", i, err))
				return
			case err != nil:
				fail(fmt.Errorf("job %d: %w", i, err))
				return
			}
			j.id, j.status = st.ID, st
			submitted <- i
			if j.traced {
				probeReq <- i
			}
		})
	}()
	go func() {
		defer wg.Done()
		ingestLate = ingestPlan.drive(time.Now, sleepUntil, func(i int, due time.Time) {
			t0 := time.Now()
			err := c.ingest(bodies[i])
			t1 := time.Now()
			ingestTimes[i] = t1.Sub(t0).Seconds()
			rec.add(0, -1, "tracestore.ingest", t0, t1)
			if err != nil {
				fail(fmt.Errorf("ingest %d: %w", i, err))
				return
			}
			ingestOK[i] = true
		})
	}()

	// Layer probes of the traced run execute here, in the benchmark
	// process, while the daemon serves: they are part of what the
	// tracing overhead measures.
	var probes sdnTotals
	var probeErr error
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		for i := range probeReq {
			if probeErr != nil {
				continue
			}
			p, err := probeSDN(rec, i, spec, daemonScale)
			if err != nil {
				probeErr = err
				continue
			}
			probes.add(p)
		}
	}()

	// Poll outstanding jobs until every one is terminal.
	pending := map[int]bool{}
	open := true
	limit := start.Add(o.duration + drainLimit)
	for open || len(pending) > 0 {
		if time.Now().After(limit) {
			close(stop)
			for i := range pending {
				fail(fmt.Errorf("job %d (%s) unfinished after %v", i, jobs[i].id, drainLimit))
			}
			break
		}
	drain:
		for {
			select {
			case i, ok := <-submitted:
				if !ok {
					open = false
					break drain
				}
				pending[i] = true
			default:
				break drain
			}
		}
		for i := range pending {
			st, err := c.job(jobs[i].id)
			if err != nil {
				fail(fmt.Errorf("polling job %d: %w", i, err))
				delete(pending, i)
				continue
			}
			switch st.State {
			case "queued", "running":
				continue
			}
			delete(pending, i)
			jobs[i].status = st
			if err := checkDaemonJob(st, ref, q1.IntuitiveFix); err != nil {
				fail(fmt.Errorf("job %d (%s): %w", i, st.ID, err))
				continue
			}
			jobs[i].ok = true
		}
		time.Sleep(pollInterval)
	}
	wg.Wait()
	<-probesDone
	if probeErr != nil {
		return result{}, probeErr
	}

	hwm, err := vmHWM(d.cmd.Process.Pid)
	if err != nil {
		return result{}, err
	}
	var ttrs, tracedTTR []float64
	var lastFinish time.Time
	okJobs := 0
	for i := range jobs {
		j := &jobs[i]
		if !j.ok {
			continue
		}
		okJobs++
		if j.status.Finished.After(lastFinish) {
			lastFinish = *j.status.Finished
		}
		if j.traced {
			tracedTTR = append(tracedTTR, j.ttr())
		} else {
			ttrs = append(ttrs, j.ttr())
		}
	}
	if len(ttrs) == 0 {
		return result{}, errors.New("no daemon job completed")
	}
	var ingBytes, ingTime float64
	var ingTimes []float64
	for i, ok := range ingestOK {
		if ok {
			ingBytes += float64(len(bodies[i]))
			ingTime += ingestTimes[i]
			ingTimes = append(ingTimes, ingestTimes[i])
		}
	}
	jobLate.merge(ingestLate)
	info := map[string]any{
		"jobs": len(ttrs), "traced_jobs": len(tracedTTR), "job_rate_per_s": daemonJobRate,
		"ingest_phase_s": ingestPhase.Seconds(), "rejected": rejected,
		"lateness_max_s": jobLate.max.Seconds(), "lateness_mean_s": jobLate.total.Seconds() / float64(max(jobLate.n, 1)),
	}
	vals := map[string]float64{}
	if !o.trace {
		s := sorted(ttrs)
		p, ok := tailPercentile(len(s))
		if !ok {
			return result{}, fmt.Errorf("%d jobs leave fewer than %d beyond the median; run longer", len(s), minBeyond)
		}
		vals["setup_s"] = median(setups)
		vals["repairs_per_s"] = float64(okJobs) / lastFinish.Sub(start).Seconds()
		vals["repair_p50_s"] = quantile(s, 0.5)
		vals["repair_tail_s"] = quantile(s, p/100)
		vals["rss_peak_mb"] = hwm / 1e6
		vals["ingest_mb_per_s"] = ingBytes / 1e6 / ingTime
		info["tail_percentile"] = p
		info["setup_samples_s"] = setups
		return finishRun(o, endToEnd, vals, attempted, failed, info, nil, nil)
	}

	after, err := c.scrape()
	if err != nil {
		return result{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	info["metrics_scrape_delta"] = scrapeDelta(before, after)
	var submit, queue, run []float64
	var steps, cands, batches, acc, evald, solve float64
	n := 0.0
	for i := range jobs {
		j := &jobs[i]
		if !j.ok {
			continue
		}
		st := j.status
		submit = append(submit, j.acked.Sub(j.sent).Seconds())
		queue = append(queue, st.Started.Sub(st.Created).Seconds())
		run = append(run, st.Finished.Sub(*st.Started).Seconds())
		root := rec.add(0, i, "job.Q1", j.due, *st.Finished)
		rec.add(root, i, "loadgen.delay", j.due, j.sent)
		rec.add(root, i, "metarepaird.submit", j.sent, j.acked)
		rec.add(root, i, "jobs.queue", st.Created, *st.Started)
		rec.add(root, i, "jobs.run", *st.Started, *st.Finished)
		r := st.Report
		n++
		steps += float64(r.Steps)
		cands += float64(r.Generated)
		batches += float64(r.Batches)
		acc += float64(r.Accepted)
		evald += float64(r.Evaluated)
		solve += r.Timing.SolvingMS / 1e3
	}
	spanMean := func(name string) float64 {
		l := map[string]string{"span": name}
		s := delta(before, after, "session_span_duration_seconds_sum", l)
		return s / delta(before, after, "session_span_duration_seconds_count", l)
	}
	vals["metaprov.explore_s"] = spanMean("explore")
	vals["backtest.backtest_s"] = spanMean("backtest")
	vals["solver.solve_s"] = solve / n
	vals["metaprov.steps"] = steps / n
	vals["metaprov.candidates"] = cands / n
	vals["backtest.batches"] = batches / n
	vals["backtest.accept_ratio"] = acc / evald
	vals["ndlog.group_joins"] = delta(before, after, "ndlog_delta_group_joins_total", nil) / n
	vals["metarepaird.submit_s"] = median(submit)
	vals["jobs.queue_wait_s"] = median(queue)
	vals["jobs.run_s"] = median(run)
	vals["jobs.rejected"] = float64(rejected)
	vals["tracestore.ingest_s"] = median(ingTimes)
	vals["tracestore.bytes"] = delta(before, after, "tracestore_bytes", map[string]string{"tenant": daemonTenant})
	vals["loadgen.lateness_max_s"] = jobLate.max.Seconds()
	vals["bench.trace_overhead_ratio"] = median(tracedTTR) / median(ttrs)
	probes.put(vals)
	// The daemon's session internals and Go runtime are not visible from
	// outside its process: the diagnostic replay is not split out of a
	// job's run, and /metrics carries no backtest-engine firings, index
	// lookups or scans, and no runtime statistics.
	absent := []string{"metarepair.diagnose_s", "ndlog.firings", "ndlog.delta_hit_ratio",
		"ndlog.index_lookups", "ndlog.scans", "go.alloc_mb_per_repair",
		"go.allocs_per_repair", "go.gc_pause_ms_per_repair"}
	for _, name := range absent {
		vals[name] = 0
	}
	return finishRun(o, perLayer, vals, attempted, failed, info, rec.finish(), absent)
}

// checkDaemonJob is the correctness gate for one daemon job: it must
// succeed with exactly the in-process reference verdicts, the intuitive
// fix among the accepted.
func checkDaemonJob(st jobWire, ref []verdict, fix string) error {
	if st.State != "succeeded" {
		return fmt.Errorf("state %s: %s", st.State, st.Error)
	}
	if st.Report == nil || st.Finished == nil || st.Started == nil {
		return errors.New("succeeded without a report or timestamps")
	}
	if !reflect.DeepEqual(st.Report.Results, ref) {
		return fmt.Errorf("verdicts differ from the in-process reference: got %v, want %v", st.Report.Results, ref)
	}
	for _, v := range st.Report.Results {
		if v.Accepted && strings.Contains(v.Desc, fix) {
			return nil
		}
	}
	return fmt.Errorf("intuitive fix %q not accepted", fix)
}

// delta is the change of the summed series between two scrapes.
func delta(before, after *obsv.Scrape, name string, labels map[string]string) float64 {
	return after.Sum(name, labels) - before.Sum(name, labels)
}

// scrapeDelta lists every series that changed between two scrapes.
func scrapeDelta(before, after *obsv.Scrape) map[string]float64 {
	key := func(s obsv.Sample) string {
		b, _ := json.Marshal(s.Labels) // sorted keys; strings always encode
		return s.Name + string(b)
	}
	prev := make(map[string]float64, len(before.Samples))
	for _, s := range before.Samples {
		prev[key(s)] = s.Value
	}
	out := make(map[string]float64)
	for _, s := range after.Samples {
		k := key(s)
		if d := s.Value - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
