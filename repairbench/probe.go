package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/scenario"
)

// vmHWM returns the peak resident set size of process pid in bytes, as
// the kernel reports it in /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return kb * 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", pid)
}

// goSample is a reading of this process's allocation and GC-pause
// totals from runtime/metrics.
type goSample struct {
	allocBytes, allocObjects, pauseSeconds float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goSample{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		pauseSeconds: histogramSum(s[2].Value.Float64Histogram()),
	}
}

// histogramSum estimates the total of a runtime/metrics histogram from
// its bucket midpoints (the runtime keeps counts, not sums; its buckets
// are narrow enough for a per-repair pause total).
func histogramSum(h *metrics.Float64Histogram) float64 {
	t := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		t += float64(c) * (lo + hi) / 2
	}
	return t
}

func (a goSample) sub(b goSample) goSample {
	return goSample{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		pauseSeconds: a.pauseSeconds - b.pauseSeconds,
	}
}

func (a *goSample) add(b goSample) {
	a.allocBytes += b.allocBytes
	a.allocObjects += b.allocObjects
	a.pauseSeconds += b.pauseSeconds
}

// sdnProbe times the layers beneath a repair on one scenario, outside
// any timed repair: instantiating the spec at a scale, building its
// network, and forwarding its workload through a fresh network with no
// controller attached (every table miss simply drops).
type sdnProbe struct {
	instantiate, buildNet, replay time.Duration
	hops, missed, injected        int64
}

func probeSDN(rec *spanRecorder, job int, spec scenario.Spec, sc scenario.Scale) (sdnProbe, error) {
	var p sdnProbe
	t0 := time.Now()
	s, err := spec.Instantiate(sc)
	if err != nil {
		return p, fmt.Errorf("instantiating %s: %w", spec.Name, err)
	}
	t1 := time.Now()
	net := s.BuildNet()
	t2 := time.Now()
	n, err := trace.ReplaySource(net, trace.SliceSource(s.Workload), 1)
	if err != nil {
		return p, fmt.Errorf("replaying %s: %w", spec.Name, err)
	}
	t3 := time.Now()
	root := rec.add(0, job, "probe", t0, t3)
	rec.add(root, job, "scenario.instantiate", t0, t1)
	rec.add(root, job, "sdn.build_net", t1, t2)
	rec.add(root, job, "sdn.replay", t2, t3)
	p.instantiate, p.buildNet, p.replay = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	p.hops, p.missed, p.injected = net.Hops, net.Missed, int64(n)
	return p, nil
}

// sdnTotals aggregates probes into the sdn.* and scenario.* metrics.
type sdnTotals struct {
	instantiate, buildNet, replay []float64
	hops, missed, injected        int64
	replaySeconds                 float64
}

func (t *sdnTotals) add(p sdnProbe) {
	t.instantiate = append(t.instantiate, p.instantiate.Seconds())
	t.buildNet = append(t.buildNet, p.buildNet.Seconds())
	t.replay = append(t.replay, p.replay.Seconds())
	t.hops += p.hops
	t.missed += p.missed
	t.injected += p.injected
	t.replaySeconds += p.replay.Seconds()
}

func (t *sdnTotals) put(vals map[string]float64) {
	vals["scenario.instantiate_s"] = median(t.instantiate)
	vals["sdn.build_net_s"] = median(t.buildNet)
	vals["sdn.replay_s"] = median(t.replay)
	vals["sdn.hops_per_s"] = float64(t.hops) / t.replaySeconds
	vals["sdn.miss_ratio"] = float64(t.missed) / float64(t.injected)
}
