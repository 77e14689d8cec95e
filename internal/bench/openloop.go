package bench

import (
	"math/rand"
	"runtime"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute a
// fake that oversleeps on purpose.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
	// Yield lets other work run for a moment; the generator calls it in a
	// loop for waits too short to sleep through.
	Yield()
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
func (wallClock) Yield()                { runtime.Gosched() }

// PoissonSchedule draws the due times of independent arrivals at the given
// mean rate (per second) over window d, as offsets from the start.
func PoissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	due := make([]time.Duration, 0, int(rate*d.Seconds()*1.05)+16)
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// sleepSlack is how far ahead of a due time the generator stops sleeping and
// starts yielding. A sleep on an idle Go process wakes about a millisecond
// late here (measured: time.Sleep(100µs) takes 1.1 ms), which alone would
// break the one-millisecond lateness limit.
const sleepSlack = 2 * time.Millisecond

// OpenLoop fires request i once start+due[i] has passed, in order, and never
// waits for an earlier request to finish: a stall in the system under test
// does not slow the arrivals behind it. fire receives the time the request
// was due and must not block (it starts the request and returns). The
// result is how late each request was fired; a latency measured from the due
// time already contains it.
//
// The generator pins itself to an OS thread. Yielding from a pinned
// goroutine hands the processor to the system under test and parks the
// thread until the scheduler comes back to it, tens of microseconds later:
// precise enough to fire on time, and no processor is burnt spinning.
func OpenLoop(c clock, start time.Time, due []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	late := make([]time.Duration, len(due))
	for i := 0; i < len(due); {
		now := c.Now()
		at := start.Add(due[i])
		if wait := at.Sub(now); wait > sleepSlack {
			c.Sleep(wait - sleepSlack)
			continue
		} else if wait > 0 {
			c.Yield()
			continue
		}
		late[i] = now.Sub(at)
		fire(i, at)
		i++
	}
	return late
}

func durationsMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / 1e6
	}
	return out
}
