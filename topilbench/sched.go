package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Schedule returns the due times, as offsets from the start of a run, of an
// open-loop Poisson arrival stream of the given rate (per second) over
// [0, d). It is a pure function of its arguments.
func Schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// Sample is one request of an open-loop run, timed from the run's start.
type Sample struct {
	Due, Sent, Done time.Duration
	Err             error
}

// Latency is the time from when the request was due to its reply, so it
// includes any time the request waited for a free sender.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Wait is how late the generator sent the request.
func (s Sample) Wait() time.Duration { return s.Sent - s.Due }

// Senders is the load generator's concurrency: one sender goroutine (and at
// most one connection) per CPU.
func Senders() int { return runtime.NumCPU() }

// OpenLoop sends request i at due[i] on one of senders goroutines and
// returns every outcome in schedule order. Requests are claimed in due
// order; a request that falls due while every sender is busy waits for
// one, and that wait is part of its latency. send must be safe for
// concurrent use.
// The returned time is the run's start, the origin of every offset.
func OpenLoop(due []time.Duration, senders int, send func(i int) error) (time.Time, []Sample) {
	out := make([]Sample, len(due))
	if len(due) == 0 {
		return time.Now(), out
	}
	// A short lead keeps goroutine start-up out of the first due times.
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := time.Until(start.Add(due[i])); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				err := send(i)
				out[i] = Sample{Due: due[i], Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return start, out
}
