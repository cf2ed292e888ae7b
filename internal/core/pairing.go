package core

import (
	"sort"

	"lbchat/internal/spatial"
)

// CandidatePair is a potential pairwise exchange with its Eq. (5) score.
type CandidatePair struct {
	A, B  int
	Score float64
}

// CandidatePairs enumerates vehicle pairs that are currently able to chat:
// both free (not mid-exchange, past their chat cooldown), present (not
// departed by a churn fault), within radio range, and past the per-pair
// cooldown. score computes the pair's priority; pairs scoring zero or less
// are dropped.
//
// The in-range pairs are the tick's one list (scanInRange): the contact
// scan's when it already ran at this now, listed here otherwise (telemetry
// off, or a call outside a run). Filtering that
// (A, B)-ascending list by a per-vehicle free mask keeps the order of the
// classic double loop over free vehicles, and every pair was confirmed by
// the same distance predicate, so the output — and any randomness score
// draws — is bit-identical to the brute-force double loop (the reference
// oracle in oracle_test.go).
func (e *Engine) CandidatePairs(score func(a, b int) float64) []CandidatePair {
	now := e.now
	if e.inRangeAt != now {
		e.scanInRange()
	}
	free := e.freeMask
	for i, v := range e.Vehicles {
		free[i] = v.BusyUntil <= now && v.NextChatAt <= now && !e.VehicleAway(v.ID)
	}
	var out []CandidatePair
	for _, p := range e.inRange {
		if !free[p.A] || !free[p.B] {
			continue
		}
		if last, ok := e.pairChatAt[p]; ok && now-last < e.Cfg.PairCooldown {
			continue
		}
		if s := score(p.A, p.B); s > 0 {
			out = append(out, CandidatePair{A: p.A, B: p.B, Score: s})
		}
	}
	return out
}

// GreedyMatch selects a maximal set of disjoint pairs in descending score
// order — each vehicle chats with at most one peer at a time, and every
// vehicle prefers its highest-scoring available neighbor, which realizes the
// Eq. (5) exchange-sequence determination across the fleet. Ties break by
// (A, B) for determinism. The vehicle-taken set is engine-held scratch
// keyed by vehicle ID, reused across ticks.
func (e *Engine) GreedyMatch(pairs []CandidatePair) []CandidatePair {
	sorted := append([]CandidatePair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})
	maxID := -1
	for _, p := range sorted {
		if p.A > maxID {
			maxID = p.A
		}
		if p.B > maxID {
			maxID = p.B
		}
	}
	if cap(e.matchTaken) < maxID+1 {
		e.matchTaken = make([]bool, maxID+1)
	}
	taken := e.matchTaken[:maxID+1]
	for i := range taken {
		taken[i] = false
	}
	var out []CandidatePair
	for _, p := range sorted {
		if taken[p.A] || taken[p.B] {
			continue
		}
		taken[p.A] = true
		taken[p.B] = true
		out = append(out, p)
	}
	return out
}

// MarkChatted stamps the pair's cooldown bookkeeping: both vehicles busy
// until busyUntil and cooling down for ChatCooldown after, and the pair —
// in either order — blocked for PairCooldown from now.
func (e *Engine) MarkChatted(a, b int, busyUntil float64) {
	va, vb := e.Vehicles[a], e.Vehicles[b]
	va.BusyUntil = busyUntil
	vb.BusyUntil = busyUntil
	va.NextChatAt = busyUntil + e.Cfg.ChatCooldown
	vb.NextChatAt = busyUntil + e.Cfg.ChatCooldown
	e.pairChatAt[spatial.Pair{A: min(a, b), B: max(a, b)}] = e.now
}
