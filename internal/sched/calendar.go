package sched

import "slices"

// Calendar is a deterministic due-time calendar queue: a bucketed tick
// wheel keyed by (dueTick, id). It schedules a fixed population of integer
// ids — one pending due tick per id — and pops the ids due at each tick in
// ascending id order, so a consumer that previously discovered due work by
// scanning the whole population in id order sees the identical sequence.
//
// Cost model: Schedule and Remove are O(1); PopDue over an empty tick is
// O(1) and a tick with k due ids costs O(k) (amortized — a bucket holding
// unsorted runs from several source ticks pays one O(k log k) sort), all
// independent of the population size. That is the property the engine's
// trainTick needs: per-tick cost scales with due work, not fleet size.
//
// Internals: the wheel is a power-of-two ring of buckets indexed by
// tick&mask, growing whenever a schedule lands beyond the current horizon.
// Remove is lazy — the authoritative schedule is the per-id due array, and
// a ring entry whose recorded due tick no longer matches is skipped (and
// dropped) at pop time, so rescheduling an id never has to search its old
// bucket. The zero Calendar is unusable; construct with NewCalendar. A
// Calendar is not safe for concurrent use.
type Calendar struct {
	ring [][]int32 // ring[t&mask]: ids scheduled for tick t (may hold stale entries)
	mask int64
	due  []int64 // due[id]: scheduled tick, or unscheduled (-1)
	cur  int64   // next tick PopDue will drain

	scheduled int // live (non-stale) entries across the wheel
	merge     []int32
}

// unscheduled marks an id with no pending due tick.
const unscheduled = -1

// NewCalendar returns an empty calendar over the id population [0, n).
func NewCalendar(n int) *Calendar {
	c := &Calendar{
		ring: make([][]int32, 64),
		mask: 63,
		due:  make([]int64, n),
	}
	for i := range c.due {
		c.due[i] = unscheduled
	}
	return c
}

// Len returns the number of scheduled ids.
func (c *Calendar) Len() int { return c.scheduled }

// Schedule sets an id's due tick, replacing any pending one. Ticks in the
// past (before the next PopDue tick) are clamped to the present, so the id
// fires on the very next pop rather than being lost behind the cursor.
func (c *Calendar) Schedule(id int32, tick int64) {
	if tick < c.cur {
		tick = c.cur
	}
	if c.due[id] == unscheduled {
		c.scheduled++
	}
	// The stale prior entry (if any) is skipped lazily at pop time.
	c.due[id] = tick
	if tick-c.cur > c.mask {
		c.grow(tick)
	}
	b := tick & c.mask
	c.ring[b] = append(c.ring[b], id)
}

// Remove unschedules an id: its pending due tick (if any) is discarded and
// PopDue will never return it until it is scheduled again. The wheel entry
// is dropped lazily.
func (c *Calendar) Remove(id int32) {
	if c.due[id] != unscheduled {
		c.due[id] = unscheduled
		c.scheduled--
	}
}

// PopDue appends to dst every id due at or before tick, in ascending id
// order, unscheduling them, and advances the cursor past tick; buckets
// reports how many wheel buckets were examined. Ids scheduled exactly at
// the cursor by earlier pops are included — the wheel never loses work
// behind the cursor.
func (c *Calendar) PopDue(tick int64, dst []int32) (out []int32, buckets int) {
	out = dst
	base := len(out)
	for ; c.cur <= tick; c.cur++ {
		b := c.cur & c.mask
		bucket := c.ring[b]
		if len(bucket) == 0 {
			buckets++
			continue
		}
		buckets++
		for _, id := range bucket {
			if c.due[id] == c.cur {
				c.due[id] = unscheduled
				c.scheduled--
				out = append(out, id)
			}
		}
		c.ring[b] = bucket[:0]
	}
	// Buckets fill with ascending runs (producers re-enqueue in id order),
	// so a popped cohort is a concatenation of few sorted runs: already
	// sorted (one O(k) scan), two runs from two producer ticks (one O(k)
	// merge — the steady state when float-conservative early pops re-enqueue
	// alongside the regular cohort), or, rarely, more (full sort).
	c.restoreOrder(out[base:])
	return out, buckets
}

// restoreOrder sorts a popped cohort, exploiting its run structure.
func (c *Calendar) restoreOrder(popped []int32) {
	descent := 0
	for i := 1; i < len(popped); i++ {
		if popped[i] < popped[i-1] {
			if descent != 0 {
				slices.Sort(popped)
				return
			}
			descent = i
		}
	}
	if descent == 0 {
		return
	}
	// Exactly two ascending runs: merge left into place through scratch.
	left := append(c.merge[:0], popped[:descent]...)
	c.merge = left
	right := popped[descent:]
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if left[i] <= right[j] {
			popped[k] = left[i]
			i++
		} else {
			popped[k] = right[j]
			j++
		}
		k++
	}
	copy(popped[k:], left[i:])
}

// grow widens the ring to cover through tick, re-bucketing live entries.
func (c *Calendar) grow(tick int64) {
	size := int64(len(c.ring))
	for tick-c.cur > size-1 {
		size *= 2
	}
	old := c.ring
	c.ring = make([][]int32, size)
	c.mask = size - 1
	for _, bucket := range old {
		for _, id := range bucket {
			if t := c.due[id]; t != unscheduled {
				b := t & c.mask
				c.ring[b] = append(c.ring[b], id)
			}
		}
	}
}
