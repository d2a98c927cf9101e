package main

import (
	"math"
	"time"
)

// schedule is a fixed-rate open-loop send plan: send i is due at
// start + offset + i·interval, whatever happened to the sends before it.
// A request is timed from its due time, so a stall that delays later
// sends is charged to them too.
type schedule struct {
	start  time.Time
	offset time.Duration
	rate   float64 // sends per second
	n      int
}

// newSchedule plans every send of rate per second that falls due within
// [start+offset, start+window).
func newSchedule(start time.Time, offset, window time.Duration, rate float64) schedule {
	n := 0
	if window > offset {
		// The epsilon keeps a product like 35 × 1.2 = 42 at 42 sends.
		n = int(math.Ceil((window-offset).Seconds()*rate - 1e-9))
	}
	return schedule{start: start, offset: offset, rate: rate, n: n}
}

// due computes each due time from the start, so rounding never drifts.
func (s schedule) due(i int) time.Time {
	return s.start.Add(s.offset + time.Duration(float64(i)/s.rate*float64(time.Second)))
}

// lateness accounts for how far behind its plan the generator ran: the
// time from a send's due time to the moment it was actually issued.
type lateness struct {
	max   time.Duration
	total time.Duration
	n     int
}

func (l *lateness) record(due, sent time.Time) {
	d := sent.Sub(due)
	if d < 0 {
		d = 0
	}
	l.n++
	l.total += d
	if d > l.max {
		l.max = d
	}
}

// merge folds another generator's account into l.
func (l *lateness) merge(o lateness) {
	l.n += o.n
	l.total += o.total
	if o.max > l.max {
		l.max = o.max
	}
}

// drive issues every planned send in order on the calling goroutine:
// it waits for each due time (never for the previous send's reply beyond
// the send call itself), records the lateness, and calls send. A send
// that blocks past the next due time makes the next one late, which is
// exactly what lateness reports. now and sleepUntil are the clock, so
// tests can drive the plan on simulated time; stop ends the plan early.
func (s schedule) drive(now func() time.Time, sleepUntil func(time.Time) bool,
	send func(i int, due time.Time)) lateness {
	var l lateness
	for i := 0; i < s.n; i++ {
		due := s.due(i)
		if now().Before(due) && !sleepUntil(due) {
			break
		}
		l.record(due, now())
		send(i, due)
	}
	return l
}
