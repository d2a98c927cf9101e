package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 37, want: 50, ok: true},
		{n: 38, want: 75, ok: true},
		{n: 91, want: 75, ok: true},
		{n: 92, want: 90, ok: true},
		{n: 181, want: 90, ok: true},
		{n: 182, want: 95, ok: true},
		{n: 901, want: 95, ok: true},
		{n: 902, want: 99, ok: true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	for n := 1; n <= 2000; n++ {
		p, ok := tailPercentile(n)
		if !ok {
			continue
		}
		if p == 60 || p == 80 {
			t.Fatalf("n=%d chose p%v, a cluster boundary of the five-way mix", n, p)
		}
		// Count real samples above the reported value on distinct data.
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, p/100)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above < minBeyond {
			t.Fatalf("n=%d p%v: %d samples beyond, want ≥ %d", n, p, above, minBeyond)
		}
		// The next rung up must not qualify, or p is not the highest.
		for _, q := range tailLadder {
			if q > p && beyond(n, q) >= minBeyond {
				t.Fatalf("n=%d: p%v qualifies but p%v was chosen", n, q, p)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.4, 0.8, 0.6, 1.0}, [3]float64{0.275, 0.55, 0.825}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if r := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(r-5.5/5.5) > 1e-12 {
		t.Errorf("relIQR = %v, want 1", r)
	}
}

// fakeClock drives a schedule on simulated time: sleeping jumps the
// clock, and each send takes as long as the test says.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) bool {
	if t.After(c.now) {
		c.now = t
	}
	return true
}

func TestScheduleIsOpenLoop(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 250*time.Millisecond, 10*time.Second, 2)
	if s.n != 20 {
		t.Fatalf("n = %d, want 20 sends due in [0.25 s, 10 s) at 2/s", s.n)
	}
	if last := s.due(s.n - 1).Sub(start); last != 9750*time.Millisecond {
		t.Fatalf("last send due at %v, want 9.75s", last)
	}
	if got := newSchedule(start, 0, 35*time.Second, 1.2).n; got != 42 {
		t.Fatalf("35 s at 1.2/s plans %d sends, want 42", got)
	}

	// Send 3 stalls for 1.25 s (2.5 intervals): sends 4 and 5 go out
	// late by 0.75 s and 0.25 s, and the plan is not shifted — send 6
	// is on time again. Each send's due time is what it is timed from.
	c := &fakeClock{now: start}
	var dues []time.Time
	l := s.drive(c.Now, c.SleepUntil, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 3 {
			c.now = c.now.Add(1250 * time.Millisecond)
		}
	})
	for i, d := range dues {
		if d != s.due(i) {
			t.Fatalf("send %d timed from %v, want its due time %v", i, d, s.due(i))
		}
	}
	if l.n != 20 || l.max != 750*time.Millisecond || l.total != time.Second {
		t.Fatalf("lateness n=%d max=%v total=%v; want 20, 750ms, 1s", l.n, l.max, l.total)
	}

	var other lateness
	other.record(start, start.Add(2*time.Second))
	other.record(start, start.Add(-time.Second)) // early counts as on time
	l.merge(other)
	if l.n != 22 || l.max != 2*time.Second || l.total != 3*time.Second {
		t.Fatalf("merged lateness n=%d max=%v total=%v", l.n, l.max, l.total)
	}
}

func TestScheduleStopsEarly(t *testing.T) {
	s := newSchedule(time.Unix(0, 0), 0, time.Second, 10)
	c := &fakeClock{now: time.Unix(0, 0)}
	sent := 0
	s.drive(c.Now, func(time.Time) bool { return false }, func(int, time.Time) { sent++ })
	if sent != 1 {
		t.Fatalf("sent %d after stop, want only the send already due", sent)
	}
}

func TestMetricNameCharset(t *testing.T) {
	if err := checkDefs(endToEnd); err != nil {
		t.Fatal(err)
	}
	if err := checkDefs(perLayer); err != nil {
		t.Fatal(err)
	}
	good := []metricDef{
		{"a", "s", ""}, {"9lives", "1/s", ""}, {"x.y_z-w", "%", ""},
		{strings.Repeat("n", 64), "MB/s", ""}, {"u", strings.Repeat("u", 16), ""},
	}
	if err := checkDefs(good); err != nil {
		t.Fatalf("valid metrics rejected: %v", err)
	}
	for _, bad := range []metricDef{
		{"", "s", ""}, {"_lead", "s", ""}, {".lead", "s", ""}, {"has space", "s", ""},
		{"slash/name", "s", ""}, {strings.Repeat("n", 65), "s", ""},
		{"ok", "", ""}, {"ok", "µs", ""}, {"ok", strings.Repeat("u", 17), ""}, {"ok", "m s", ""},
	} {
		if err := checkDefs([]metricDef{bad}); err == nil {
			t.Errorf("checkDefs accepted name %q unit %q", bad.Name, bad.Unit)
		}
	}
	if err := checkDefs([]metricDef{{"dup", "s", ""}, {"dup", "s", ""}}); err == nil {
		t.Error("checkDefs accepted a repeated name")
	}
}

func TestNewResultNeedsEveryMetric(t *testing.T) {
	defs := []metricDef{{"a_s", "s", "lower"}, {"b", "count", "higher"}}
	if _, err := newResult(defs, map[string]float64{"a_s": 1}, 1, 0); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := newResult(defs, map[string]float64{"a_s": math.NaN(), "b": 1}, 1, 0); err == nil {
		t.Error("NaN accepted")
	}
	r, err := newResult(defs, map[string]float64{"a_s": 0.25, "b": 3}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":false,"attempted":7,"failed":1,"metrics":{"a_s":{"value":0.25,"unit":"s"},"b":{"value":3,"unit":"count"}}}`
	if got := r.line(); got != want {
		t.Fatalf("line = %s\nwant   %s", got, want)
	}
}

func TestIdenticalPairsCatchesOneNumberUnderTwoNames(t *testing.T) {
	runs := []map[string]float64{
		{"repair_tail_s": 0.61, "job_tail_s": 0.61, "repair_p50_s": 0.47},
		{"repair_tail_s": 0.64, "job_tail_s": 0.64, "repair_p50_s": 0.48},
		{"repair_tail_s": 0.59, "job_tail_s": 0.59, "repair_p50_s": 0.46},
	}
	got := identicalPairs(runs)
	if len(got) != 1 || got[0] != [2]string{"job_tail_s", "repair_tail_s"} {
		t.Fatalf("identicalPairs = %v, want the tail pair", got)
	}
	// Equal in some runs only is a coincidence, not a copy.
	runs[1]["job_tail_s"] = 0.65
	if got := identicalPairs(runs); len(got) != 0 {
		t.Fatalf("identicalPairs = %v, want none", got)
	}
	if got := identicalPairs(runs[:1]); got != nil {
		t.Fatalf("one run cannot show a copy, got %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "explore", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "backtest", Start: 3, End: 6}, // overlaps explore
		{ID: 4, Parent: 1, Name: "verdict", Start: 8, End: 12}, // runs past the parent
		{ID: 5, Parent: 3, Name: "batch", Start: 3.5, End: 5.5},
	}
	selfTimes(spans)
	want := map[string]float64{"job": 3, "explore": 3, "backtest": 1, "verdict": 4, "batch": 2}
	for _, s := range spans {
		if math.Abs(s.Self-want[s.Name]) > 1e-12 {
			t.Errorf("%s self = %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
	var r *spanRecorder // untraced: recording is a no-op
	if id := r.add(0, 1, "x", time.Now(), time.Now()); id != 0 || r.finish() != nil {
		t.Fatal("nil recorder recorded a span")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.75: 4, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}
