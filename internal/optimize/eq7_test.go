package optimize

import (
	"math"
	"testing"

	"lbchat/internal/simrand"
)

// phiFlat builds a φ curve with constant loss at every ψ.
func phiFlat(t *testing.T, loss float64) *PhiCurve {
	t.Helper()
	c, err := FitPhi([]float64{0.1, 0.5, 1.0}, []float64{loss, loss, loss})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// phiDecreasing builds a realistic φ: high loss at strong compression,
// approaching base at ψ = 1.
func phiDecreasing(t *testing.T, base float64) *PhiCurve {
	t.Helper()
	c, err := FitPhi(
		[]float64{0.05, 0.2, 0.5, 1.0},
		[]float64{base + 0.4, base + 0.1, base + 0.02, base},
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func baseProblem(t *testing.T) Problem {
	t.Helper()
	return Problem{
		PhiSelf:         phiDecreasing(t, 0.02),
		PhiPeer:         phiDecreasing(t, 0.02),
		LossSelfOnPeer:  0.10, // peer model is much better on its data
		LossPeerOnSelf:  0.10,
		ModelBytes:      52_000_000,
		MinBandwidthBps: 31e6,
		TimeBudget:      15,
		ContactTime:     60,
		LambdaC:         0.0008,
	}
}

func TestFitPhiExcludesZeroPsi(t *testing.T) {
	c, err := FitPhi([]float64{0, 0.5, 1.0}, []float64{0, 0.1, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// The (0,0) placeholder pair must not drag the curve to zero.
	if got := c.Predict(0.01); got < 0.09 {
		t.Errorf("Predict near 0 = %v; the ψ=0 pair leaked in", got)
	}
}

func TestFitPhiNeedsTwoPoints(t *testing.T) {
	if _, err := FitPhi([]float64{0, 1}, []float64{0, 0.1}); err == nil {
		t.Error("single positive-ψ sample accepted")
	}
}

func TestPredictClampsToSampledRange(t *testing.T) {
	c := phiDecreasing(t, 0.02)
	if got, edge := c.Predict(0.0), c.Predict(0.05); got != edge {
		t.Errorf("Predict(0) = %v, want clamp to %v", got, edge)
	}
	if got, edge := c.Predict(5), c.Predict(1); got != edge {
		t.Errorf("Predict(5) = %v, want clamp to %v", got, edge)
	}
}

// randomPhi returns a φ curve fitted to a few random (ψ, loss) samples, or
// nil — a side with no curve — one time in four.
func randomPhi(rng *simrand.Rand) *PhiCurve {
	if rng.Intn(4) == 0 {
		return nil
	}
	n := 2 + rng.Intn(4)
	psis, losses := make([]float64, n), make([]float64, n)
	for i := range psis {
		psis[i] = (float64(i) + rng.Uniform(0.1, 1)) / float64(n)
		losses[i] = rng.Uniform(0, 0.5)
	}
	c, err := FitPhi(psis, losses)
	if err != nil {
		return nil
	}
	return c
}

// randomProblem draws an Eq. (7) instance: zero, ordinary and huge
// bandwidths, contact times below and above the budget, nil φ curves, and
// the default or a coarse ψ grid.
func randomProblem(rng *simrand.Rand) Problem {
	p := Problem{
		PhiSelf:        randomPhi(rng),
		PhiPeer:        randomPhi(rng),
		LossSelfOnPeer: rng.Uniform(0, 0.5),
		LossPeerOnSelf: rng.Uniform(0, 0.5),
		ModelBytes:     1 + rng.Intn(100_000_000),
		TimeBudget:     rng.Uniform(0, 30),
		LambdaC:        []float64{0, rng.Uniform(0, 0.01), 10}[rng.Intn(3)],
	}
	p.MinBandwidthBps = []float64{0, rng.Uniform(1e5, 1e8), 1e15}[rng.Intn(3)]
	if rng.Bernoulli(0.5) {
		p.ContactTime = rng.Uniform(0, p.TimeBudget)
	} else {
		p.ContactTime = p.TimeBudget + rng.Uniform(0, 60)
	}
	if rng.Bernoulli(0.5) {
		p.GridStep = rng.Uniform(0.01, 0.3)
	}
	return p
}

// TestSolveRespectsTimeConstraint is the Eq. (7) property test: for every
// solution Solve returns, the transfer fits the window min(T_B, T_contact),
// both ψ lie in [0, 1], the objective is at least the no-exchange award
// λc·window, and it is exactly its components' sum.
func TestSolveRespectsTimeConstraint(t *testing.T) {
	const problems = 2000
	root := simrand.New(7)
	exchanges := 0
	for i := 0; i < problems; i++ {
		p := randomProblem(root.DeriveIndexed("problem", i))
		sol := Solve(p)
		if sol.PsiSelf > 0 || sol.PsiPeer > 0 {
			exchanges++
		}
		window := math.Min(p.TimeBudget, p.ContactTime)
		if sol.TransferTime > window {
			t.Fatalf("problem %d: transfer time %v exceeds window %v\n%+v", i, sol.TransferTime, window, p)
		}
		if sol.PsiSelf < 0 || sol.PsiSelf > 1 || sol.PsiPeer < 0 || sol.PsiPeer > 1 {
			t.Fatalf("problem %d: ψ out of bounds: %v, %v", i, sol.PsiSelf, sol.PsiPeer)
		}
		if floor := p.LambdaC * window; sol.Objective < floor {
			t.Fatalf("problem %d: objective %v below the no-exchange award %v", i, sol.Objective, floor)
		}
		if want := sol.GainSelf + sol.GainPeer + p.LambdaC*(window-sol.TransferTime); sol.Objective != want {
			t.Fatalf("problem %d: objective %v, components sum to %v", i, sol.Objective, want)
		}
	}
	// The draw must reach the exchanging side, not only the ψ = (0, 0) default.
	if exchanges < problems/5 {
		t.Errorf("only %d of %d problems chose an exchange", exchanges, problems)
	}
}

func TestSolveSendsWhenValuable(t *testing.T) {
	sol := Solve(baseProblem(t))
	if sol.PsiSelf == 0 && sol.PsiPeer == 0 {
		t.Fatalf("no exchange chosen despite large value gaps: %+v", sol)
	}
	if sol.GainSelf <= 0 && sol.GainPeer <= 0 {
		t.Errorf("no positive gain recorded: %+v", sol)
	}
}

func TestSolveDeclinesWorthlessExchange(t *testing.T) {
	p := baseProblem(t)
	// Both models already explain the peer's data better than the peers
	// themselves: no possible gain.
	p.LossSelfOnPeer = 0.001
	p.LossPeerOnSelf = 0.001
	sol := Solve(p)
	if sol.PsiSelf != 0 || sol.PsiPeer != 0 {
		t.Errorf("worthless exchange not declined: ψ=(%v, %v)", sol.PsiSelf, sol.PsiPeer)
	}
}

func TestSolveAsymmetricValue(t *testing.T) {
	p := baseProblem(t)
	// Only the PEER's model is valuable to self; self's model is worthless
	// to the peer.
	p.LossSelfOnPeer = 0.5
	p.LossPeerOnSelf = 0.001
	sol := Solve(p)
	if sol.PsiPeer <= sol.PsiSelf {
		t.Errorf("asymmetric value not reflected: ψSelf=%v ψPeer=%v", sol.PsiSelf, sol.PsiPeer)
	}
}

func TestSolveTightContactLimitsTransfer(t *testing.T) {
	p := baseProblem(t)
	p.ContactTime = 3 // barely any time together
	sol := Solve(p)
	if sol.TransferTime > 3+1e-9 {
		t.Errorf("transfer %vs exceeds 3s contact", sol.TransferTime)
	}
	maxPsi := 3 * p.MinBandwidthBps / 8 / float64(p.ModelBytes)
	if sol.PsiSelf+sol.PsiPeer > maxPsi+0.021 { // one grid step of slack
		t.Errorf("total ψ %v exceeds feasible %v", sol.PsiSelf+sol.PsiPeer, maxPsi)
	}
}

func TestSolveDegenerateInputs(t *testing.T) {
	p := baseProblem(t)
	p.ModelBytes = 0
	sol := Solve(p)
	if sol.PsiSelf != 0 || sol.PsiPeer != 0 {
		t.Error("zero-size model should not be scheduled")
	}
	p = baseProblem(t)
	p.ContactTime = 0
	if sol := Solve(p); sol.PsiSelf != 0 || sol.PsiPeer != 0 {
		t.Error("zero contact should not transfer")
	}
	p = baseProblem(t)
	p.PhiSelf, p.PhiPeer = nil, nil
	if sol := Solve(p); sol.PsiSelf != 0 || sol.PsiPeer != 0 {
		t.Error("nil φ curves should disable gains")
	}
}

func TestSolveObjectiveMatchesComponents(t *testing.T) {
	p := baseProblem(t)
	sol := Solve(p)
	window := math.Min(p.TimeBudget, p.ContactTime)
	want := sol.GainSelf + sol.GainPeer + p.LambdaC*(window-sol.TransferTime)
	if math.Abs(sol.Objective-want) > 1e-9 {
		t.Errorf("objective %v != components %v", sol.Objective, want)
	}
}

func TestSolveLambdaPressure(t *testing.T) {
	// A huge time award must suppress marginal exchanges.
	p := baseProblem(t)
	p.LossSelfOnPeer = 0.05
	p.LossPeerOnSelf = 0.05
	p.LambdaC = 10
	sol := Solve(p)
	if sol.PsiSelf != 0 || sol.PsiPeer != 0 {
		t.Errorf("large λc should force decoupling: %+v", sol)
	}
}

func TestSolveGridStepOverride(t *testing.T) {
	p := baseProblem(t)
	p.GridStep = 0.25 // coarse grid: solutions land on multiples of 0.25
	sol := Solve(p)
	for _, psi := range []float64{sol.PsiSelf, sol.PsiPeer} {
		frac := psi / 0.25
		if math.Abs(frac-math.Round(frac)) > 1e-9 {
			t.Errorf("ψ %v not on the 0.25 grid", psi)
		}
	}
}
