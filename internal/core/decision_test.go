package core

import (
	"testing"

	"lbchat/internal/telemetry"
)

// variantEvents runs arm v on a three-vehicle tinyEnv with a memory sink and
// returns the stream.
func variantEvents(t *testing.T, v Variant, duration float64) []telemetry.Event {
	t.Helper()
	sink := telemetry.NewMemorySink()
	eng, _ := tinyEnvWith(t, 3, true, func(c *Config) { c.Telemetry = sink })
	if err := eng.Run(NewLbChatVariant(v), duration); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestChatDecisionPrecedesModelPushes holds each chat_decision to what its
// chat then sends: it comes before its pair's compression_chosen events, at
// the same time; a direction it gives ψ > 0 pushes once at that ψ, and a
// direction at ψ = 0 pushes nothing. SCO and EqualCompression solve no
// Eq. (7) and emit no chat_decision.
func TestChatDecisionPrecedesModelPushes(t *testing.T) {
	var open *telemetry.ChatDecision // the decision of the chat under way
	pushes := map[[2]int]int{}       // compression_chosen per direction of it
	decisions, sent, silent := 0, 0, 0
	for _, ev := range variantEvents(t, fullLbChat, 400) {
		switch ev := ev.(type) {
		case telemetry.ChatDecision:
			if open != nil {
				t.Fatalf("chat_decision %+v before %d<->%d completed", ev, open.A, open.B)
			}
			open = &ev
			decisions++
		case telemetry.CompressionChosen:
			if open == nil || ev.Time != open.Time ||
				[2]int{min(ev.From, ev.To), max(ev.From, ev.To)} != [2]int{open.A, open.B} {
				t.Fatalf("compression_chosen %+v has no chat_decision of its pair before it (open: %+v)", ev, open)
			}
			pushes[[2]int{ev.From, ev.To}]++
			want := open.PsiA
			if ev.From == open.B {
				want = open.PsiB
			}
			if ev.Psi != want {
				t.Errorf("compression_chosen %+v: the decision chose ψA %v, ψB %v", ev, open.PsiA, open.PsiB)
			}
		case telemetry.ChatCompleted:
			if open == nil || ev.A != open.A || ev.B != open.B {
				t.Fatalf("chat_completed %+v without its chat_decision (open: %+v)", ev, open)
			}
			for _, dir := range []struct {
				from, to int
				psi      float64
			}{{open.A, open.B, open.PsiA}, {open.B, open.A, open.PsiB}} {
				want := 0
				if dir.psi > 0 {
					want = 1
					sent++
				} else {
					silent++
				}
				if got := pushes[[2]int{dir.from, dir.to}]; got != want {
					t.Errorf("%d->%d at ψ %v pushed %d compression_chosen, want %d", dir.from, dir.to, dir.psi, got, want)
				}
			}
			if len(open.PhiPsiA) == 0 || len(open.PhiPsiA) != len(open.PhiLossA) || len(open.PhiPsiB) != len(open.PhiLossB) {
				t.Errorf("chat_decision %+v: want the φ samples of both sides", *open)
			}
			open = nil
			clear(pushes)
		}
	}
	t.Logf("%d chat_decision events: %d directions sent, %d at ψ = 0", decisions, sent, silent)
	if sent == 0 || silent == 0 {
		t.Fatalf("%d directions sent, %d at ψ = 0: a check above is vacuous", sent, silent)
	}

	for _, v := range []Variant{SCO, EqualCompression} {
		kinds := map[string]int{}
		for _, ev := range variantEvents(t, v, 400) {
			kinds[ev.Kind()]++
		}
		if kinds[telemetry.KindChatDecision] != 0 {
			t.Errorf("%v emitted %d chat_decision events, want none", v, kinds[telemetry.KindChatDecision])
		}
		if kinds[telemetry.KindChatCompleted] == 0 {
			t.Errorf("%v completed no chat: the check is vacuous", v)
		}
	}
}
