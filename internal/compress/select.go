package compress

import "math"

// selection is the scratch one vector's top-k cuts share: its non-NaN
// magnitudes. A cut permutes them in place but never changes them as a
// multiset, so one load serves any number of cuts at different k.
type selection struct {
	// n is the length of the loaded vector; n − len(mags) entries were NaN.
	n    int
	mags []float64
}

// load replaces the scratch with the magnitudes of v, reusing its storage.
func (s *selection) load(v []float64) {
	s.n = len(v)
	if cap(s.mags) < len(v) {
		s.mags = make([]float64, len(v))
	}
	mags := s.mags[:len(v)]
	j := 0
	for _, x := range v {
		if m := math.Abs(x); m == m {
			mags[j] = m
			j++
		}
	}
	s.mags = mags[:j]
}

// cut is the selection rule that keeps exactly the k largest magnitudes of
// a vector: an entry is kept when its magnitude is strictly above thr, or
// equals thr while ties are left. Asked in index order, keeps takes the first
// ties entries at the threshold. A NaN thr keeps nothing.
type cut struct {
	thr  float64
	ties int
}

func (c *cut) keeps(m float64) bool {
	if m > c.thr {
		return true
	}
	if m == c.thr && c.ties > 0 {
		c.ties--
		return true
	}
	return false
}

// cut returns the rule for the k largest magnitudes of the loaded vector,
// 0 < k < n. Its thr is the k-th largest magnitude with NaN ranked below
// every number; when that rank falls on a NaN, thr is NaN.
func (s *selection) cut(k int) cut {
	nth := s.n - k - (s.n - len(s.mags)) // ascending rank among the non-NaN
	if nth < 0 {
		return cut{thr: math.NaN()}
	}
	selectNth(s.mags, nth)
	thr := s.mags[nth]
	above := 0
	for _, m := range s.mags[nth+1:] { // all ≥ thr
		if m > thr {
			above++
		}
	}
	return cut{thr, k - above}
}

// sparse builds the top-k Sparse of v, the vector last loaded, in one
// index-ordered pass.
func (s *selection) sparse(v []float64, k int) *Sparse {
	n := len(v)
	if k > n {
		k = n
	}
	sp := &Sparse{Len: n}
	if k <= 0 {
		return sp
	}
	sp.Indices = make([]int, 0, k)
	sp.Values = make([]float64, 0, k)
	if k == n {
		for i, x := range v {
			sp.Indices = append(sp.Indices, i)
			sp.Values = append(sp.Values, x)
		}
		return sp
	}
	c := s.cut(k)
	for i, x := range v {
		if c.keeps(math.Abs(x)) {
			sp.Indices = append(sp.Indices, i)
			sp.Values = append(sp.Values, x)
		}
	}
	return sp
}

// selectNth permutes a, which holds no NaN, so that a[nth] is the value an
// ascending sort would put there, nothing left of it is larger and nothing
// right of it smaller: Hoare's FIND with a median-of-three pivot. Scans stop
// at elements equal to the pivot, so heavy ties still halve the range.
func selectNth(a []float64, nth int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		// a[lo] ≤ pivot ≤ a[hi] bound both scans inside [lo, hi].
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] ≤ pivot ≤ a[i..hi], and anything between j and i equals it.
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}
