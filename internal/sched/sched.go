package sched

import "container/heap"

// Event is a scheduled callback.
type Event struct {
	// Time is the virtual time at which the event fires (seconds).
	Time float64
	// Fire runs the event's effect.
	Fire func()

	seq   uint64
	index int
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Queue is a deterministic event queue. The zero value is ready to use.
type Queue struct {
	heap eventHeap
	seq  uint64
}

// Schedule enqueues fire to run at time t and returns the event handle.
func (q *Queue) Schedule(t float64, fire func()) *Event {
	e := &Event{Time: t, Fire: fire, seq: q.seq}
	q.seq++
	heap.Push(&q.heap, e)
	return e
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// RunUntil fires every event scheduled at or before t, in (time, insertion)
// order. Events scheduled during execution are fired too if they fall within
// the bound.
func (q *Queue) RunUntil(t float64) {
	for len(q.heap) > 0 && q.heap[0].Time <= t {
		e := heap.Pop(&q.heap).(*Event)
		e.Fire()
	}
}
