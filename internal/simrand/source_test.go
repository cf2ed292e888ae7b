package simrand

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// oracleSeeds returns the seeds the source is checked on: math/rand's
// normalisation edges (0, ±1, multiples of 2³¹−1 and their neighbours, the
// int64 extremes, the seed 0 stands in for) and random 64-bit seeds like
// the ones Derive hands out.
func oracleSeeds() []int64 {
	seeds := []int64{0, 1, -1, zeroSeed, -zeroSeed, math.MinInt64, math.MinInt64 + 1, math.MaxInt64}
	for k := int64(1); k <= 12; k++ {
		seeds = append(seeds, k*lcgMod, -k*lcgMod, k*lcgMod+1, k*lcgMod-1, -k*lcgMod+1, -k*lcgMod-1)
	}
	seeds = append(seeds, (math.MaxInt64/lcgMod)*lcgMod, (math.MinInt64/lcgMod)*lcgMod)
	r := rand.New(rand.NewSource(2024))
	for len(seeds) < 2048 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// oracleDraws straddles the three places the source changes gear: the last
// closed-form draw (273), the first wrap of the 607-word ring and the
// second.
var oracleDraws = []int{0, 1, 2, 272, 273, 274, 275, 606, 607, 608, 1213, 1214, 1215, 1400}

// checkRaw compares draws Uint64s of the source for seed with math/rand's,
// then one Int63.
func checkRaw(t *testing.T, seed int64, draws int) {
	t.Helper()
	var got source
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for k := 1; k <= draws; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: draw %d is %#x, math/rand's is %#x", seed, k, g, w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("seed %d: Int63 after %d draws is %d, math/rand's is %d", seed, draws, g, w)
	}
}

// TestSourceMatchesMathRand checks the source against rand.NewSource, the
// oracle it replaces: raw draws on both sides of every gear change, then
// every rand.Rand method simrand calls, interleaved so that the methods'
// variable draw counts cross 273, 607 and 1214 at different phases.
func TestSourceMatchesMathRand(t *testing.T) {
	for i, seed := range oracleSeeds() {
		checkRaw(t, seed, oracleDraws[i%len(oracleDraws)])

		got := New(uint64(seed)).rng
		want := rand.New(rand.NewSource(seed))
		calls := 40 + 7*(i%256) // up to ≈ 1 800 calls, ≈ 3 000 draws
		for c := 0; c < calls; c++ {
			var g, w float64
			switch c % 6 {
			case 0:
				g, w = got.Float64(), want.Float64()
			case 1:
				n := 1 + c*c%1000
				g, w = float64(got.Intn(n)), float64(want.Intn(n))
			case 2:
				n := 1<<40 + c // Intn's Int63n path
				g, w = float64(got.Intn(n)), float64(want.Intn(n))
			case 3:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 4:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 5:
				gp, wp := got.Perm(c%9), want.Perm(c%9)
				for j := range wp {
					if gp[j] != wp[j] {
						t.Fatalf("seed %d, call %d: Perm %v, math/rand's %v", seed, c, gp, wp)
					}
				}
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d, call %d (method %d): %v, math/rand's %v", seed, c, c%6, g, w)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(-1), uint16(273))
	f.Add(int64(lcgMod), uint16(274))
	f.Add(int64(math.MinInt64), uint16(608))
	f.Add(int64(7*lcgMod+1), uint16(1215))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkRaw(t, seed, int(draws))
	})
}

// heapDelta returns how many objects and bytes f allocates, the least of
// three tries (the runtime and the test framework allocate now and then);
// prep builds f's input outside the measured window.
func heapDelta(prep func(), f func()) (objects, bytes uint64) {
	objects, bytes = math.MaxUint64, math.MaxUint64
	for try := 0; try < 3; try++ {
		prep()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestShallowStreamAllocatesNoState pins what the closed form buys: a stream
// that draws at most 273 values never holds math/rand's 607-word state, and
// the 274th draw allocates it, once.
func TestShallowStreamAllocatesNoState(t *testing.T) {
	const state = rngLen * 8
	var r *Rand
	shallow := func() {
		r = New(42)
		for k := 0; k < rngTap; k++ {
			r.Float64()
		}
	}
	_, bytes := heapDelta(func() {}, shallow)
	if r.src.vec != nil || bytes >= state {
		t.Fatalf("New and %d draws allocate %d B (state built: %v); the state is %d B",
			rngTap, bytes, r.src.vec != nil, state)
	}
	objects, bytes := heapDelta(shallow, func() { r.Float64() })
	if r.src.vec == nil || objects != 1 || bytes < state {
		t.Fatalf("draw %d allocates %d objects, %d B (state built: %v); want the %d B state, once",
			rngTap+1, objects, bytes, r.src.vec != nil, state)
	}
	if n := testing.AllocsPerRun(100, func() { r.Float64() }); n != 0 {
		t.Errorf("draws after the state is built allocate %v objects each", n)
	}
}

// sink keeps benchmark results live.
var sink float64

// BenchmarkNew seeds a stream and draws twice, as a fleet vehicle's stream
// does, beside math/rand's own source.
func BenchmarkNew(b *testing.B) {
	b.Run("simrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New(uint64(i))
			sink += r.Float64() + r.Float64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			sink += r.Float64() + r.Float64()
		}
	})
}

// BenchmarkDeriveIndexed derives one stream per vehicle index and draws
// twice, beside the same derivation seeding math/rand's source.
func BenchmarkDeriveIndexed(b *testing.B) {
	root := New(1)
	b.Run("simrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := root.DeriveIndexed("vehicle", i)
			sink += r.Float64() + r.Float64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed := deriveSeed(root.seed, "vehicle#"+strconv.Itoa(i))
			r := rand.New(rand.NewSource(int64(seed)))
			sink += r.Float64() + r.Float64()
		}
	})
}
