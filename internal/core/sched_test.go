package core

import (
	"testing"

	"lbchat/internal/faults"
)

// TestCalendarDueMatchesLegacyScan is the scheduler's acceptance criterion
// at unit scale: on every tick of an LbChat run the calendar queue must
// surface exactly the vehicles the O(fleet) scan oracle (legacyDueScan in
// oracle_test.go) finds due, in the same ascending order — the calendar
// changes how due vehicles are discovered, never which or in what order.
func TestCalendarDueMatchesLegacyScan(t *testing.T) {
	eng, _ := tinyEnv(t, 3, true)
	hook, dueSeen, _ := dueOracle(t, NewLbChat())
	if err := eng.Run(hook, 300); err != nil {
		t.Fatal(err)
	}
	if *dueSeen == 0 {
		t.Fatal("no vehicle ever came due; the oracle checked nothing")
	}
}

// TestChurnRequeuesCalendarEntries proves departed vehicles are moved
// forward on the wheel, not skipped forever and not stranded: under heavy
// churn the calendar's due set still matches the scan oracle on every tick
// (a departed vehicle is skipped and its schedule advances past now), at
// least one vehicle actually came due while departed, and at the end of the
// run every vehicle holds exactly one live future entry on the wheel.
func TestChurnRequeuesCalendarEntries(t *testing.T) {
	eng, _ := tinyEnvWith(t, 3, true, func(c *Config) {
		c.Faults = faults.Config{ChurnPerHour: 90, AwayMeanSecs: 60}
	})
	hook, _, awayDue := dueOracle(t, NewLbChat())
	if err := eng.Run(hook, 300); err != nil {
		t.Fatal(err)
	}
	if *awayDue == 0 {
		t.Fatal("no vehicle came due while departed; the re-queue path was not exercised")
	}
	// Each vehicle holds one entry ahead of the cursor: advancing it pops
	// every vehicle, each once.
	popped, _ := eng.calendar.PopDue(eng.tickIndex+1000, nil)
	if len(popped) != len(eng.Vehicles) {
		t.Fatalf("advancing the cursor popped %v of %d vehicles: the rest are stranded behind it",
			popped, len(eng.Vehicles))
	}
}

// TestProbeLossMeanReusesScratch pins the satellite fix: steady-state probe
// evaluations must reuse the engine-held loss scratch rather than allocate a
// fresh []float64 per call (the model's own forward-pass allocations are out
// of scope here — the test checks the scratch backing array is stable).
func TestProbeLossMeanReusesScratch(t *testing.T) {
	eng, _ := tinyEnv(t, 3, true)
	eng.probeLossMean() // warm the scratch
	if len(eng.lossScratch) != len(eng.Vehicles) {
		t.Fatalf("scratch sized %d, want %d", len(eng.lossScratch), len(eng.Vehicles))
	}
	before := &eng.lossScratch[0]
	for i := 0; i < 10; i++ {
		eng.probeLossMean()
	}
	if &eng.lossScratch[0] != before {
		t.Fatal("probeLossMean reallocated its loss scratch on a steady-state call")
	}
}
