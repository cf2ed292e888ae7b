package sched

import (
	"testing"
	"testing/quick"
)

func TestRunUntilOrder(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(3, func() { got = append(got, 3) })
	q.Schedule(1, func() { got = append(got, 1) })
	q.Schedule(2, func() { got = append(got, 2) })
	q.RunUntil(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("fire order = %v", got)
	}
}

func TestRunUntilBoundary(t *testing.T) {
	var q Queue
	fired := 0
	q.Schedule(5, func() { fired++ })
	q.Schedule(5.0001, func() { fired++ })
	q.RunUntil(5)
	if fired != 1 {
		t.Errorf("fired %d events at t=5, want 1 (inclusive boundary)", fired)
	}
	if len(q.heap) != 1 {
		t.Errorf("pending = %d", len(q.heap))
	}
}

func TestSimultaneousEventsFireInInsertionOrder(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(1, func() { got = append(got, i) })
	}
	q.RunUntil(1)
	for i, v := range got {
		if v != i {
			t.Fatalf("insertion order violated: %v", got)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var q Queue
	var got []string
	q.Schedule(1, func() {
		got = append(got, "a")
		q.Schedule(2, func() { got = append(got, "b") })
		q.Schedule(99, func() { got = append(got, "never") })
	})
	q.RunUntil(5)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("nested scheduling: %v", got)
	}
}

func TestQueueDrainsCompletely(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		fired, want := 0, 0
		for _, tt := range times {
			if tt != tt || tt > 1e300 || tt < -1e300 { // NaN / ±Inf never fire
				continue
			}
			q.Schedule(tt, func() { fired++ })
			want++
		}
		q.RunUntil(1e300)
		return fired == want && len(q.heap) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
