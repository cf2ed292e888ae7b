package compress

import "math"

// A magnitude's bucket key is the top bits of its IEEE pattern: the exponent
// and the first keyMantissaBits bits of the mantissa, 16 buckets per binade.
// The pattern of a non-negative double is monotone in its value, so the key
// is too: every magnitude in a higher bucket is larger than every magnitude
// in a lower one.
const (
	keyMantissaBits = 4
	keyShift        = 52 - keyMantissaBits
	numKeys         = 1 << (11 + keyMantissaBits) // +Inf's key is the largest
	infBits         = 0x7FF0000000000000          // patterns above it are NaN
	signBit         = 1 << 63
)

// selection is the scratch one vector's top-k cuts share: its non-NaN
// magnitudes grouped by bucket key in ascending order, each bucket's members
// in no particular order. A cut permutes one bucket in place and never moves
// a magnitude out of it, so one load serves any number of cuts at different k.
type selection struct {
	mags []float64
	// counts is the histogram a load builds. ends, the window of counts from
	// the smallest key the vector uses to its largest, then holds for each
	// of those buckets one past its last magnitude in mags.
	counts *[numKeys]int32
	ends   []int32
}

// load replaces the scratch with the magnitudes of v, reusing its storage:
// one pass counts the keys, one scatters the magnitudes to their buckets.
func (s *selection) load(v []float64) {
	if s.counts == nil {
		s.counts = new([numKeys]int32)
	}
	c := s.counts
	clear(s.ends)
	lo, hi := uint64(numKeys), uint64(0)
	for _, x := range v {
		b := math.Float64bits(x) &^ signBit
		if b > infBits {
			continue
		}
		key := b >> keyShift
		c[key&(numKeys-1)]++
		lo, hi = min(lo, key), max(hi, key)
	}
	if lo > hi { // empty or all NaN
		s.mags, s.ends = s.mags[:0], nil
		return
	}
	ends := c[lo : hi+1]
	var total int32
	for i, cnt := range ends { // each bucket's first slot, for the scatter
		ends[i] = total
		total += cnt
	}
	if cap(s.mags) < int(total) {
		s.mags = make([]float64, len(v))
	}
	mags := s.mags[:total]
	for _, x := range v {
		b := math.Float64bits(x) &^ signBit
		if b > infBits {
			continue
		}
		key := (b >> keyShift) & (numKeys - 1)
		mags[c[key]] = math.Float64frombits(b)
		c[key]++
	}
	s.mags, s.ends = mags, ends
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
// every number; when that rank falls on a NaN, thr is NaN. Only the bucket
// holding that rank is searched: every bucket above it is above thr.
func (s *selection) cut(k int) cut {
	nth := len(s.mags) - k // ascending rank among the non-NaN
	if nth < 0 {
		return cut{thr: math.NaN()}
	}
	// The first bucket that ends past nth holds it.
	b, top := 0, len(s.ends)
	for b < top {
		mid := int(uint(b+top) >> 1)
		if int(s.ends[mid]) > nth {
			top = mid
		} else {
			b = mid + 1
		}
	}
	first, end := 0, int(s.ends[b])
	if b > 0 {
		first = int(s.ends[b-1])
	}
	selectNth(s.mags[first:end], nth-first)
	thr := s.mags[nth]
	above := len(s.mags) - end
	for _, m := range s.mags[nth+1 : end] { // all ≥ thr
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
