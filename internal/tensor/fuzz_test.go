package tensor

import "testing"

// FuzzGatherRows drives the gather and the screens with fuzzer-chosen
// widths (1–70 columns), survivor lists (0 to k of B's k rows) and values
// — ±0, ±Inf, NaN and denormals among them, picked byte by byte from
// specials — in the store and the += form. The packed gather must leave
// the generic loop's bits, and the screens must list what a plain loop
// lists.
func FuzzGatherRows(f *testing.F) {
	f.Add(uint8(63), uint8(5), []byte{1, 2, 3, 250, 0, 9, 7, 0, 0, 4}, false)
	f.Add(uint8(9), uint8(15), []byte{6, 6, 6, 0, 1, 0, 1, 2, 2, 200, 201, 202}, true)
	f.Add(uint8(31), uint8(0), []byte{}, true)
	f.Fuzz(func(t *testing.T, width, rows uint8, pick []byte, add bool) {
		n, k := 1+int(width)%70, 1+int(rows)%16
		at := 0
		next := func() byte {
			if len(pick) == 0 {
				return 0
			}
			b := pick[at%len(pick)]
			at++
			return b
		}
		value := func() float64 {
			b := next()
			if int(b) < len(specials) {
				return specials[b]
			}
			return float64(int(b)-128) / 16
		}
		bd := make([]float64, k*n)
		for i := range bd {
			bd[i] = value()
		}
		// Row 0 of A: row p of B survives where its byte is odd; the others
		// hold ±0.
		a := make([]float64, k)
		for p := range a {
			if next()%2 == 1 {
				a[p] = value()
			} else if next()%2 == 1 {
				a[p] = negZero
			}
		}
		var wantIdx []int32
		var wantVal []float64
		for p, v := range a {
			if v != 0 {
				wantIdx, wantVal = append(wantIdx, int32(p)), append(wantVal, v)
			}
		}
		idx, val := make([]int32, k), make([]float64, k)
		cnt := screen(idx, val, a)
		sameList(t, "screen", idx[:cnt], val[:cnt], wantIdx, wantVal)

		c := make([]float64, n)
		for j := range c {
			c[j] = value()
		}
		want := append([]float64(nil), c...)
		gather(c, bd, wantIdx, wantVal, add)
		gatherGeneric(want, bd, wantIdx, wantVal, add)
		sameBits(t, "gather", c, want)

		// The bytes themselves, as a BEV row.
		wantIdx, wantVal = wantIdx[:0], wantVal[:0]
		for i, b := range pick {
			if b != 0 {
				wantIdx, wantVal = append(wantIdx, int32(i)), append(wantVal, float64(b))
			}
		}
		if on := countBytes(pick); on != len(wantIdx) {
			t.Fatalf("countBytes = %d, want %d", on, len(wantIdx))
		}
		room := min(len(pick), len(wantIdx)+3)
		idx, val = make([]int32, room), make([]float64, room)
		cnt = screenBytes(idx, val, pick, len(wantIdx))
		sameList(t, "screenBytes", idx[:cnt], val[:cnt], wantIdx, wantVal)
	})
}
