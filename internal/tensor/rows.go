package tensor

import "fmt"

// Rows is a sparse matrix held as compressed rows: row i lists its nonzero
// entries, column indices ascending, in Idx[lo:hi] and their values in
// Val[lo:hi], where hi is End[i] and lo is End[i-1] (0 for row 0). A NaN is
// nonzero; −0 is not listed. It is the matrix the gathered-rows kernels
// (MatMulRowsInto, AddMatMulTransARows) read the same bits from as the dense
// kernels read from its dense form: they skip exactly the zeros those skip.
//
// A Rows is built row by row (Reset, then the Append methods and EndRow for
// each row) and reused: its storage grows exactly to what Reset reserves,
// or as the appends need when they outrun it.
type Rows struct {
	Cols int
	Idx  []int32
	Val  []float64
	End  []int32

	// The column lists of AddMatMulTransARows' counting scatter, kept for
	// reuse: the rows listing an entry in each column, ascending, and the
	// entries; column c's list ends at pos[c].
	pos, cidx []int32
	cval      []float64
}

// Reset empties r to no rows of cols columns, with room for entries entries.
func (r *Rows) Reset(cols, entries int) {
	if int64(cols) > 1<<31-1 {
		panic(fmt.Sprintf("tensor: %d columns do not fit an int32 index", cols))
	}
	r.Cols = cols
	r.End = r.End[:0]
	r.Idx, r.Val = r.Idx[:0], r.Val[:0]
	r.room(entries)
}

// NumRows returns the number of rows ended so far.
func (r *Rows) NumRows() int { return len(r.End) }

// row returns row i's column indices and values. Malformed ends panic: the
// row never reaches past the listed entries.
func (r *Rows) row(i int) ([]int32, []float64) {
	lo := int32(0)
	if i > 0 {
		lo = r.End[i-1]
	}
	hi := r.End[i]
	n := len(r.Idx)
	return r.Idx[:n:n][lo:hi], r.Val[:n:n][lo:hi]
}

// room makes space for n more entries, growing the storage to exactly that
// when it is short.
func (r *Rows) room(n int) {
	need := len(r.Idx) + n
	if cap(r.Idx) < need {
		r.Idx = append(make([]int32, 0, need), r.Idx...)
	}
	if cap(r.Val) < need {
		r.Val = append(make([]float64, 0, need), r.Val...)
	}
}

// listed returns the entries of the ended rows.
func (r *Rows) listed() []int32 {
	return r.Idx[:r.rowStart()]
}

// rowStart returns the index of the open row's first entry.
func (r *Rows) rowStart() int {
	if len(r.End) == 0 {
		return 0
	}
	return int(r.End[len(r.End)-1])
}

// CountNonzero returns how many of b's bytes are nonzero: the entries
// AppendBytes(b) lists, for sizing a Reset.
func CountNonzero(b []uint8) int { return countBytes(b) }

// AppendBytes lists the nonzero bytes of b, as float64 values, in the open
// row at columns 0 … len(b)−1, which must be the row's first columns.
func (r *Rows) AppendBytes(b []uint8) {
	if len(b) > r.Cols || len(r.Idx) != r.rowStart() {
		panic(fmt.Sprintf("tensor: %d bytes do not open a row of %d columns", len(b), r.Cols))
	}
	on := countBytes(b)
	r.room(on + 3)
	n := len(r.Idx)
	cnt := screenBytes(r.Idx[n:cap(r.Idx)], r.Val[n:cap(r.Val)], b, on)
	r.Idx, r.Val = r.Idx[:n+cnt], r.Val[:n+cnt]
}

// appendDense lists the nonzero entries of a (a NaN is listed, −0 is not)
// as the open row's columns 0 … len(a)−1, which must be the row's first.
func (r *Rows) appendDense(a []float64) {
	if len(a) > r.Cols || len(r.Idx) != r.rowStart() {
		panic(fmt.Sprintf("tensor: %d values do not open a row of %d columns", len(a), r.Cols))
	}
	r.room(len(a))
	n := len(r.Idx)
	cnt := screen(r.Idx[n:n+len(a)], r.Val[n:n+len(a)], a)
	r.Idx, r.Val = r.Idx[:n+cnt], r.Val[:n+cnt]
}

// AppendValue lists v at column col of the open row if v is nonzero; col must
// lie past the row's last listed column.
func (r *Rows) AppendValue(col int, v float64) {
	if col < 0 || col >= r.Cols || (len(r.Idx) > r.rowStart() && int32(col) <= r.Idx[len(r.Idx)-1]) {
		panic(fmt.Sprintf("tensor: column %d out of order in a row of %d columns", col, r.Cols))
	}
	if v != 0 {
		r.Idx = append(r.Idx, int32(col))
		r.Val = append(r.Val, v)
	}
}

// SetDense makes r list the nonzero entries of the matrix a, row by row.
func (r *Rows) SetDense(a *Dense) {
	rows, cols := mustMatrix(a)
	r.Reset(cols, rows*cols)
	for i := 0; i < rows; i++ {
		r.appendDense(a.data[i*cols : (i+1)*cols])
		r.EndRow()
	}
}

// transA sets (or, when add, adds to) each row c of the Cols×n product in
// cd the gather of column c's entries of r from the rows of B (n columns).
func (r *Rows) transA(cd, bd []float64, n int, add bool) {
	r.columns()
	lo := int32(0)
	for c, hi := range r.pos {
		gather(cd[c*n:(c+1)*n], bd, r.cidx[lo:hi], r.cval[lo:hi], add)
		lo = hi
	}
}

// columns lists r's entries by column — one counting scatter of the rows —
// into r.cidx (the row each came from, ascending) and r.cval, column c's
// list ending at r.pos[c]. A listed column outside Cols panics here, and
// every row index is below NumRows.
func (r *Rows) columns() {
	entries := r.listed()
	r.pos = grown(r.pos, r.Cols)
	clear(r.pos)
	for _, c := range entries {
		r.pos[c]++
	}
	start := int32(0)
	for c, cnt := range r.pos {
		r.pos[c] = start
		start += cnt
	}
	r.cidx, r.cval = grown(r.cidx, len(entries)), grown(r.cval, len(entries))
	for p := range r.NumRows() {
		idx, val := r.row(p)
		for q, c := range idx {
			at := r.pos[c]
			r.cidx[at], r.cval[at] = int32(p), val[q]
			r.pos[c] = at + 1
		}
	}
}

// EndRow closes the open row.
func (r *Rows) EndRow() { r.End = append(r.End, int32(len(r.Idx))) }
