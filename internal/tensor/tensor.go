// Package tensor provides dense float64 matrices and the linear-algebra
// kernels used by every learned model in this repository. Matrices are
// row-major. The package is deliberately small: it implements exactly the
// operations the autodiff engine and the estimators need, with no external
// dependencies.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix of float64 values.
// The zero value is an empty 0x0 matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols, row-major) in a Dense without
// copying. The caller must not alias data afterwards unless it intends
// shared mutation.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix by copying the given rows, which must all have
// equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("tensor: FromRows ragged row %d: %d != %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// RowVector returns a 1 x len(v) matrix copying v.
func RowVector(v []float64) *Dense {
	m := New(1, len(v))
	copy(m.data, v)
	return m
}

// ColVector returns a len(v) x 1 matrix copying v.
func ColVector(v []float64) *Dense {
	m := New(len(v), 1)
	copy(m.data, v)
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Size returns the number of elements.
func (m *Dense) Size() int { return len(m.data) }

// Data returns the underlying row-major backing slice (not a copy).
func (m *Dense) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set writes the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowsView returns the first rows rows of m as a view sharing m's
// storage; the serving hot path uses it to run a partially filled batch
// buffer without copying.
func (m *Dense) RowsView(rows int) *Dense {
	if rows < 0 || rows > m.rows {
		panic(fmt.Sprintf("tensor: RowsView %d of %d rows", rows, m.rows))
	}
	return &Dense{rows: rows, cols: m.cols, data: m.data[:rows*m.cols]}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Reshape returns a view of m with the new shape; rows*cols must equal the
// current element count. The view shares storage with m.
func (m *Dense) Reshape(rows, cols int) *Dense {
	if rows*cols != len(m.data) {
		panic(fmt.Sprintf("tensor: reshape %dx%d incompatible with %d elements", rows, cols, len(m.data)))
	}
	return &Dense{rows: rows, cols: cols, data: m.data}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// MatMul returns a*b. Panics if the inner dimensions disagree.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a*b, overwriting out. out must be a.rows x b.cols
// and must not alias a or b. The default build dispatches to the blocked
// kernel layer (kernels.go); the tensor_noopt build tag pins the reference
// triple loop below.
func MatMulInto(out, a, b *Dense) {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("tensor: matmulInto out %dx%d = %dx%d * %dx%d",
			out.rows, out.cols, a.rows, a.cols, b.rows, b.cols))
	}
	if optimizedKernels {
		pb := packBPooled(b)
		gemmPacked(out, a, &pb, nil, EpNone)
		pb.Release()
		return
	}
	matMulRefInto(out, a, b)
}

// matMulRefInto is the reference matmul: the portable triple loop every
// optimized kernel is differential-tested against (kernels_test.go).
func matMulRefInto(out, a, b *Dense) {
	out.Zero()
	// ikj loop order: streams through b and out rows contiguously.
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulAddInto computes out += a*b without zeroing out first.
func MatMulAddInto(out, a, b *Dense) {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("tensor: matmulAddInto out %dx%d += %dx%d * %dx%d",
			out.rows, out.cols, a.rows, a.cols, b.rows, b.cols))
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTransA returns aᵀ*b without materializing the transpose.
func MatMulTransA(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: matmulTransA %dx%d ᵀ* %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.cols, b.cols)
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransB returns a*bᵀ without materializing the transpose.
func MatMulTransB(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: matmulTransB %dx%d *ᵀ %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// Add returns a+b elementwise.
func Add(a, b *Dense) *Dense {
	sameShape("Add", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Dense) {
	sameShape("AddInPlace", a, b)
	for i, v := range b.data {
		a.data[i] += v
	}
}

// Sub returns a-b elementwise.
func Sub(a, b *Dense) *Dense {
	sameShape("Sub", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Mul returns the elementwise (Hadamard) product a*b.
func Mul(a, b *Dense) *Dense {
	sameShape("Mul", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] *= v
	}
	return out
}

// Scale returns s*a.
func Scale(a *Dense, s float64) *Dense {
	out := a.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// ScaleInto computes out = s*a, overwriting out.
func ScaleInto(out, a *Dense, s float64) {
	sameShape("ScaleInto", out, a)
	for i, v := range a.data {
		out.data[i] = s * v
	}
}

// ScaleInPlace computes a *= s.
func ScaleInPlace(a *Dense, s float64) {
	for i := range a.data {
		a.data[i] *= s
	}
}

// AxpyInPlace computes a += s*b.
func AxpyInPlace(a *Dense, s float64, b *Dense) {
	sameShape("AxpyInPlace", a, b)
	for i, v := range b.data {
		a.data[i] += s * v
	}
}

// AddRowVector returns m with the 1 x cols row vector v added to every row.
func AddRowVector(m, v *Dense) *Dense {
	if v.rows != 1 || v.cols != m.cols {
		panic(fmt.Sprintf("tensor: AddRowVector %dx%d + %dx%d", m.rows, m.cols, v.rows, v.cols))
	}
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j, bv := range v.data {
			row[j] += bv
		}
	}
	return out
}

// AddRowVectorInto computes out = m + v broadcast over rows, overwriting
// out. out may alias m.
func AddRowVectorInto(out, m, v *Dense) {
	sameShape("AddRowVectorInto", out, m)
	if v.rows != 1 || v.cols != m.cols {
		panic(fmt.Sprintf("tensor: AddRowVectorInto %dx%d + %dx%d", m.rows, m.cols, v.rows, v.cols))
	}
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := out.data[i*out.cols : (i+1)*out.cols]
		for j, bv := range v.data {
			dst[j] = src[j] + bv
		}
	}
}

// SumRows returns a 1 x cols row vector holding the column sums of m.
func SumRows(m *Dense) *Dense {
	out := New(1, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// Sum returns the sum of all elements.
func Sum(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// Apply returns a new matrix with f applied to every element.
func Apply(m *Dense, f func(float64) float64) *Dense {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
	return out
}

// ApplyInto computes out[i] = f(m[i]) elementwise, overwriting out. out
// may alias m.
func ApplyInto(out, m *Dense, f func(float64) float64) {
	sameShape("ApplyInto", out, m)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
}

// ConcatCols returns [a | b], the column-wise concatenation.
func ConcatCols(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: ConcatCols %dx%d | %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, a.cols+b.cols)
	ConcatColsInto(out, a, b)
	return out
}

// ConcatColsInto computes out = [a | b], overwriting out. out must not
// alias a or b.
func ConcatColsInto(out, a, b *Dense) {
	if a.rows != b.rows || out.rows != a.rows || out.cols != a.cols+b.cols {
		panic(fmt.Sprintf("tensor: ConcatColsInto out %dx%d = %dx%d | %dx%d",
			out.rows, out.cols, a.rows, a.cols, b.rows, b.cols))
	}
	for i := 0; i < a.rows; i++ {
		copy(out.data[i*out.cols:], a.data[i*a.cols:(i+1)*a.cols])
		copy(out.data[i*out.cols+a.cols:], b.data[i*b.cols:(i+1)*b.cols])
	}
}

// SliceCols returns a copy of columns [from, to) of m.
func SliceCols(m *Dense, from, to int) *Dense {
	if from < 0 || to > m.cols || from > to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", from, to, m.cols))
	}
	out := New(m.rows, to-from)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.cols:(i+1)*out.cols], m.data[i*m.cols+from:i*m.cols+to])
	}
	return out
}

// SliceRows returns a copy of rows [from, to) of m.
func SliceRows(m *Dense, from, to int) *Dense {
	if from < 0 || to > m.rows || from > to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", from, to, m.rows))
	}
	out := New(to-from, m.cols)
	copy(out.data, m.data[from*m.cols:to*m.cols])
	return out
}

// GatherRows returns a new matrix whose i-th row is m's row idx[i].
func GatherRows(m *Dense, idx []int) *Dense {
	out := New(len(idx), m.cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// PrefixSumCols returns the row-wise cumulative sum: out[i,j] = sum_{k<=j} m[i,k].
// This is the Mpsum (prefix-sum matrix) operation from the paper, applied
// directly instead of via a triangular matmul.
func PrefixSumCols(m *Dense) *Dense {
	out := New(m.rows, m.cols)
	PrefixSumColsInto(out, m)
	return out
}

// PrefixSumColsInto computes the row-wise cumulative sum into out,
// overwriting it. out may alias m.
func PrefixSumColsInto(out, m *Dense) {
	sameShape("PrefixSumColsInto", out, m)
	for i := 0; i < m.rows; i++ {
		var acc float64
		in := m.data[i*m.cols : (i+1)*m.cols]
		o := out.data[i*out.cols : (i+1)*out.cols]
		for j, v := range in {
			acc += v
			o[j] = acc
		}
	}
}

// MaxAbs returns the maximum absolute value in m (0 for empty matrices).
func MaxAbs(m *Dense) float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Norm2 returns the Frobenius norm of m.
func Norm2(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// EqualApprox reports whether a and b have the same shape and every pair of
// elements differs by at most tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func HasNaN(m *Dense) bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func sameShape(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
