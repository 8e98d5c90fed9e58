package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsPureFunctionOfSeedAndRate(t *testing.T) {
	a := Schedule(7, 400, 2*time.Second)
	b := Schedule(7, 400, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and rate gave different schedules")
	}
	if reflect.DeepEqual(a, Schedule(8, 400, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, Schedule(7, 300, 2*time.Second)) {
		t.Fatal("different rates gave the same schedule")
	}
	// A longer window extends the same stream.
	if long := Schedule(7, 400, 4*time.Second); !reflect.DeepEqual(long[:len(a)], a) {
		t.Fatal("a longer window changed the first arrivals")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v out of order or window", i, a[i])
		}
	}
	if n := len(a); n < 700 || n > 900 {
		t.Fatalf("%d arrivals in 2 s at 400/s", n)
	}
}

// A sender that stalls once delays every request that falls due behind
// it, and each of those requests is charged the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	_, samples := OpenLoop(due, 1, func(i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, s := range samples {
		if s.Sent < s.Due || s.Done < s.Sent {
			t.Fatalf("request %d: due %v sent %v done %v", i, s.Due, s.Sent, s.Done)
		}
	}
	if l := samples[5].Latency(); l < stall {
		t.Fatalf("stalled request latency %v < stall %v", l, stall)
	}
	// Request 6 fell due 1 ms into the stall and waited for the rest.
	if w := samples[6].Wait(); w < stall-5*time.Millisecond {
		t.Fatalf("request behind the stall waited %v, want about %v", w, stall)
	}
	if l := samples[6].Latency(); l < stall-5*time.Millisecond {
		t.Fatalf("request behind the stall has latency %v, want about %v", l, stall)
	}
	// Latency falls by one due interval per request behind the stall.
	if samples[20].Latency() >= samples[6].Latency() {
		t.Fatalf("latency did not drain: %v then %v", samples[6].Latency(), samples[20].Latency())
	}
}
