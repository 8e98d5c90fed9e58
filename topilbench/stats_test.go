package main

import "testing"

func TestPercentilesAreExactWithSampleCount(t *testing.T) {
	var d Dist
	for v := 100; v >= 1; v-- { // unsorted input
		d.Add(float64(v))
	}
	for _, c := range []struct {
		q      float64
		value  float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}, {0.001, 1, 99}} {
		p := d.Percentile(c.q)
		if p.Value != c.value || p.N != 100 || p.Beyond != c.beyond {
			t.Errorf("q=%g: got %+v, want value %g beyond %d of 100", c.q, p, c.value, c.beyond)
		}
	}
	// The tail is the highest quantile with at least ten samples beyond it.
	if p := d.Tail(10, 0.5, 0.9, 0.99); p.Q != 0.9 || p.Value != 90 {
		t.Errorf("tail: got %+v, want p90 = 90", p)
	}
	d.Add(101)
	if p := d.Percentile(0.5); p.N != 101 || p.Value != 51 {
		t.Errorf("after Add: got %+v, want 51 of 101", p)
	}
	var empty Dist
	if p := empty.Percentile(0.5); p.N != 0 {
		t.Errorf("empty: got %+v", p)
	}
	if p := empty.Tail(10, 0.5); p.N != 0 {
		t.Errorf("empty tail: got %+v", p)
	}
}

func TestSegmentedIsMedianOfSegmentPercentiles(t *testing.T) {
	// Three segments of 100; the middle one has a slow tail.
	var vals []float64
	for s := 0; s < 3; s++ {
		for v := 1; v <= 100; v++ {
			x := float64(v)
			if s == 1 && v > 80 {
				x *= 10
			}
			vals = append(vals, x)
		}
	}
	p := Segmented(vals, 3, 10, 0.5, 0.9, 0.99)
	if p.Q != 0.9 || p.Value != 90 || p.N != 300 || p.Beyond != 10 {
		t.Fatalf("got %+v, want p90 = 90 over 300 samples, 10 beyond", p)
	}
	if p := Segmented(vals, 3, 10, 0.5); p.Value != 50 {
		t.Fatalf("median: got %+v", p)
	}
}
