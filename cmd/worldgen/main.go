// Command worldgen generates and inspects the driving world: it prints map
// statistics, renders an ASCII overview of the road network, and reports
// encounter statistics from a freshly recorded mobility trace — useful for
// sanity-checking workload generation before long experiment runs.
//
// Usage:
//
//	worldgen                                # map stats + ASCII render
//	worldgen -trace 3600                    # also record a trace and report encounters
//	worldgen -trace 3600 -trace-out t.lbtc  # save the recording as an LBTC stream
//
// A saved LBTC trace feeds the lbchat commands' -trace-file flag, so one
// recording can drive many runs (loaded resident, or paged through a bounded
// window when it is large).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lbchat/internal/geom"
	"lbchat/internal/simrand"
	"lbchat/internal/trace"
	"lbchat/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	traceTicks := flag.Int("trace", 0, "record a mobility trace of this many 0.5s ticks and report encounter statistics")
	traceOut := flag.String("trace-out", "", "write the recorded trace to this LBTC file (for the lbchat commands' -trace-file)")
	vehicles := flag.Int("vehicles", 8, "expert vehicles for the trace")
	seed := flag.Uint64("seed", 7, "root random seed")
	flag.Parse()

	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		return err
	}
	w, h := m.Bounds()
	crosses := 0
	var roadLen float64
	for _, n := range m.Nodes {
		if len(n.Out) >= 3 {
			crosses++
		}
	}
	for _, e := range m.Edges {
		roadLen += e.Length()
	}
	fmt.Printf("Map: %.0fm x %.0fm, %d nodes (%d intersections), %d directed edges, %.1f km of lanes\n",
		w, h, len(m.Nodes), crosses, len(m.Edges), roadLen/1000)

	fmt.Println(renderASCII(m, 60, 30))

	if *traceTicks <= 0 {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out needs -trace to set the recording length")
		}
		return nil
	}
	wl, err := world.New(m, world.SpawnConfig{
		Experts: *vehicles, BackgroundCars: 50, Pedestrians: 250,
	}, simrand.New(*seed))
	if err != nil {
		return err
	}
	fmt.Printf("Recording %d ticks of mobility for %d vehicles...\n", *traceTicks, *vehicles)
	tr := trace.Record(wl, *traceTicks, 0.5)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		err = tr.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(*traceOut)
			return fmt.Errorf("writing %s: %w", *traceOut, err)
		}
		fmt.Printf("Wrote %d-tick LBTC trace to %s\n", tr.NumTicks(), *traceOut)
	}

	// Encounter statistics at a few ranges.
	for _, rng := range []float64{150, 250, 500} {
		var contactSum float64
		contacts := 0
		for t := 0.0; t < tr.Duration(); t += 30 {
			for a := 0; a < tr.NumVehicles(); a++ {
				for b := a + 1; b < tr.NumVehicles(); b++ {
					if tr.Distance(a, b, t) <= rng {
						contacts++
						contactSum += tr.ContactDuration(a, b, t, rng, 120)
					}
				}
			}
		}
		if contacts > 0 {
			fmt.Printf("range %3.0fm: %4d in-range pair samples, mean remaining contact %.1fs\n",
				rng, contacts, contactSum/float64(contacts))
		} else {
			fmt.Printf("range %3.0fm: no in-range pairs sampled\n", rng)
		}
	}
	return nil
}

// renderASCII draws the road bitmap scaled into a cols×rows character grid.
// Each character cell covers ~30 m while roads are only ~12 m wide, so every
// cell is supersampled on a 3×3 grid to avoid aliasing roads away.
func renderASCII(m *world.Map, cols, rows int) string {
	w, h := m.Bounds()
	var b strings.Builder
	offsets := []float64{0.17, 0.5, 0.83}
	for r := rows - 1; r >= 0; r-- {
		for c := 0; c < cols; c++ {
			road := false
			for _, f := range offsets {
				for _, g := range offsets {
					x := (float64(c) + f) / float64(cols) * w
					y := (float64(r) + g) / float64(rows) * h
					if m.IsRoad(geom.Pt(x, y)) {
						road = true
					}
				}
			}
			if road {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
