// Quickstart: one LbChat chat between two vehicles, narrated from the
// engine's own events.
//
// Two vehicles collect driving data in different parts of the map and train
// locally while out of radio range; then they meet. The engine runs
// Algorithm 2's pairwise exchange — coreset refresh (Algorithm 1), value
// assessment, the φ fit, the Eq. (7) compression choice, the transfers,
// Eq. (8) aggregation and dataset expansion — and the example prints each
// step from the telemetry events the engine emitted, in their order.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"lbchat/internal/bev"
	"lbchat/internal/core"
	"lbchat/internal/geom"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
	"lbchat/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

// The scripted encounter: apart (out of radio range) for apartSeconds, which
// is 400 local training steps each, then 100 m apart for meetSeconds. seed
// drives the world and the engine.
const (
	seed         = 42
	apartSeconds = 800
	meetSeconds  = 60
)

func run() error {
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		return err
	}
	w, err := world.New(m, world.SpawnConfig{Experts: 2, BackgroundCars: 20, Pedestrians: 80}, simrand.New(seed))
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	fmt.Println("Collecting driving data for two vehicles (2 fps)...")
	datasets := world.CollectDataset(w, bev.NewRasterizer(bev.DefaultConfig(), m), cfg.Model.NumWaypoints, 600, 0.5)
	tr := trace.New(1, 2) // A stays at the origin; B is 2 km away, then 100 m
	for t := 0; t < apartSeconds+meetSeconds; t++ {
		gap := 100.0
		if t < apartSeconds {
			gap = 2000
		}
		tr.AppendRow()[1] = geom.Pt(gap, 0)
	}
	sink := telemetry.NewMemorySink()
	cfg.Telemetry = sink
	eng, err := core.NewEngine(cfg, tr, datasets, radio.NewModel(true), nil)
	if err != nil {
		return err
	}
	fmt.Printf("Local training apart for %d s, then the vehicles meet:\n", apartSeconds)
	if err := eng.Run(core.NewLbChat(), apartSeconds+meetSeconds); err != nil {
		return err
	}
	for _, ev := range sink.Events() {
		narrate(ev)
	}
	fmt.Printf("\nAfter the run, A's loss on B's coreset: %.4f\n",
		eng.Vehicles[0].Policy.Loss(eng.Vehicles[1].Core.Items()))
	return nil
}

// name is vehicle i's letter.
func name(i int) string { return "AB"[i : i+1] }

// narrate prints one event of the chat, in the order the engine emitted it;
// the training and contact events around the chat print nothing.
func narrate(ev telemetry.Event) {
	switch ev := ev.(type) {
	case telemetry.CoresetRebuilt:
		fmt.Printf("\nt=%.0fs %s refreshes its coreset (Algorithm 1): |C| = %d\n", ev.Time, name(ev.Vehicle), ev.Size)
	case telemetry.ChatDecision:
		fmt.Printf("\nValue assessment: f(x_A; C_B) = %.4f, f(x_B; C_A) = %.4f\n", ev.LossAonB, ev.LossBonA)
		fmt.Printf("φ_A samples: ψ %.2f → loss on A's coreset %.4f\n", ev.PhiPsiA, ev.PhiLossA)
		fmt.Printf("φ_B samples: ψ %.2f → loss on B's coreset %.4f\n", ev.PhiPsiB, ev.PhiLossB)
		fmt.Printf("Eq. (7) in the %.1f s left: ψ_A = %.2f, ψ_B = %.2f; objective %.4f, gains A ← %.4f, B ← %.4f\n\n",
			ev.Window, ev.PsiA, ev.PsiB, ev.Objective, ev.GainA, ev.GainB)
	case telemetry.CompressionChosen:
		fmt.Printf("%s sends its model at ψ = %.2f (%.1f MB)\n", name(ev.From), ev.Psi, float64(ev.Bytes)/1e6)
	case telemetry.Transfer:
		fmt.Printf("  %s %s → %s: %d of %d bytes in %.2f s\n", ev.Payload, name(ev.From), name(ev.To),
			ev.BytesDelivered, ev.BytesRequested, ev.Elapsed)
	case telemetry.Aggregation:
		fmt.Printf("t=%.0fs Eq. (8) on %s: w_self = %.2f, w_peer = %.2f\n", ev.Time, name(ev.Vehicle), ev.WSelf, ev.WPeer)
	case telemetry.CoresetAbsorbed:
		fmt.Printf("t=%.0fs %s absorbs %d coreset frames into its dataset\n", ev.Time, name(ev.Vehicle), ev.Frames)
	}
}
