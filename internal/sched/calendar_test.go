package sched

import (
	"math/rand"
	"slices"
	"testing"
)

func TestCalendarEmptyTickIsCheap(t *testing.T) {
	c := NewCalendar(8)
	out, buckets := c.PopDue(0, nil)
	if len(out) != 0 || buckets != 1 {
		t.Fatalf("empty pop: %v ids, %d buckets", out, buckets)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestCalendarPopsAscendingIDOrder(t *testing.T) {
	c := NewCalendar(16)
	// Enqueue a same-tick cohort in scrambled order: the pop must come back
	// tie-broken by id.
	for _, id := range []int32{9, 2, 14, 0, 7} {
		c.Schedule(id, 5)
	}
	out, _ := c.PopDue(5, nil)
	want := []int32{0, 2, 7, 9, 14}
	if !slices.Equal(out, want) {
		t.Fatalf("popped %v, want %v", out, want)
	}
}

func TestCalendarRescheduleReplaces(t *testing.T) {
	c := NewCalendar(4)
	c.Schedule(1, 3)
	c.Schedule(1, 9) // replaces: the tick-3 entry must not fire
	out, _ := c.PopDue(8, nil)
	if len(out) != 0 {
		t.Fatalf("stale entry fired: %v", out)
	}
	out, _ = c.PopDue(9, out[:0])
	if !slices.Equal(out, []int32{1}) {
		t.Fatalf("popped %v, want [1]", out)
	}
	if c.Len() != 0 {
		t.Fatalf("%d ids still scheduled after the pop", c.Len())
	}
}

func TestCalendarRemove(t *testing.T) {
	c := NewCalendar(4)
	c.Schedule(0, 2)
	c.Schedule(1, 2)
	c.Remove(0)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after remove, want 1", c.Len())
	}
	out, _ := c.PopDue(2, nil)
	if !slices.Equal(out, []int32{1}) {
		t.Fatalf("popped %v, want [1]", out)
	}
}

func TestCalendarPastTickClampsToPresent(t *testing.T) {
	c := NewCalendar(2)
	if _, _ = c.PopDue(10, nil); c.Len() != 0 {
		t.Fatal("setup")
	}
	c.Schedule(0, 3) // behind the cursor: must clamp, not vanish
	out, _ := c.PopDue(11, nil)
	if !slices.Equal(out, []int32{0}) {
		t.Fatalf("past-tick schedule popped %v, want [0]", out)
	}
}

func TestCalendarGrowsPastHorizon(t *testing.T) {
	c := NewCalendar(3)
	c.Schedule(0, 1)
	c.Schedule(1, 1000)  // far beyond the initial 64-slot ring
	c.Schedule(2, 70000) // forces a second growth
	out, _ := c.PopDue(999, nil)
	if !slices.Equal(out, []int32{0}) {
		t.Fatalf("pre-growth pop %v, want [0]", out)
	}
	out, _ = c.PopDue(1000, out[:0])
	if !slices.Equal(out, []int32{1}) {
		t.Fatalf("post-growth pop %v, want [1]", out)
	}
	out, _ = c.PopDue(70000, out[:0])
	if !slices.Equal(out, []int32{2}) {
		t.Fatalf("second-growth pop %v, want [2]", out)
	}
}

// calendarOracle is the reference implementation: a flat (tick, id) list
// kept sorted, scanned linearly. Same semantics, none of the wheel
// machinery.
type calendarOracle struct {
	due map[int32]int64
	cur int64
}

func (o *calendarOracle) schedule(id int32, tick int64) {
	if tick < o.cur {
		tick = o.cur
	}
	o.due[id] = tick
}

func (o *calendarOracle) remove(id int32) { delete(o.due, id) }

func (o *calendarOracle) popDue(tick int64) []int32 {
	var out []int32
	for id, t := range o.due {
		if t <= tick {
			out = append(out, id)
			delete(o.due, id)
		}
	}
	slices.Sort(out)
	o.cur = tick + 1
	return out
}

// TestCalendarMatchesOracle drives random enqueue / re-enqueue / remove /
// pop sequences against the sorted-slice oracle. Same-tick cohorts must
// come back tie-broken by id, removals must never fire, and re-enqueues
// must supersede prior schedules — across ring growths and long idle gaps.
func TestCalendarMatchesOracle(t *testing.T) {
	const population = 64
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		c := NewCalendar(population)
		o := &calendarOracle{due: make(map[int32]int64)}
		var tick int64
		var scratch []int32
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // schedule (or re-enqueue) a random id
				id := int32(rng.Intn(population))
				// Mostly near-future ticks, occasionally far enough to grow
				// the ring or land behind the cursor.
				var at int64
				switch rng.Intn(8) {
				case 0:
					at = tick + int64(rng.Intn(500))
				case 1:
					at = tick - int64(rng.Intn(20)) // past: clamps
				default:
					at = tick + int64(rng.Intn(12))
				}
				c.Schedule(id, at)
				o.schedule(id, at)
			case op < 7: // remove a random id
				id := int32(rng.Intn(population))
				c.Remove(id)
				o.remove(id)
			default: // advance and pop
				tick += int64(1 + rng.Intn(6))
				var got []int32
				got, _ = c.PopDue(tick, scratch[:0])
				scratch = got
				want := o.popDue(tick)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d tick %d: popped %v, oracle %v",
						trial, step, tick, got, want)
				}
				if c.Len() != len(o.due) {
					t.Fatalf("trial %d step %d: Len = %d, oracle %d",
						trial, step, c.Len(), len(o.due))
				}
			}
		}
		// Drain: everything still scheduled must eventually fire, once.
		got, _ := c.PopDue(tick+100000, nil)
		want := o.popDue(tick + 100000)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d drain: popped %v, oracle %v", trial, got, want)
		}
		if c.Len() != 0 {
			t.Fatalf("trial %d: %d ids left after drain", trial, c.Len())
		}
	}
}
