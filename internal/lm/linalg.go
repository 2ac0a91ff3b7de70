package lm

import (
	"errors"
	"math"
)

// normalEquations assembles JᵀJ (dim×dim, both triangles) and Jᵀr from the
// row-major m×dim Jacobian jac and the residuals r, which hold no ±Inf (the
// driver only keeps residual vectors of finite SSE). It first sanitises jac
// in place: a row whose residual is NaN (a missing observation) and every
// NaN or ±Inf entry become 0. z (length dim) receives each column's first
// non-zero row, m for an all-zero column.
//
// Every cell is the sum of its terms in ascending row order, the order of a
// plain dot product, so the result is bit-identical to that dot product; it
// only starts later. A cell's terms before the first non-zero row of either
// of its columns are products of a finite value and ±0, hence ±0, and
// adding ±0 to a running sum of +0 leaves +0 under round-to-nearest, so
// those terms are skipped. This is where wide LM vectors save: a shock
// strength's column is exactly zero until its occurrence starts. JᵀJ's
// upper triangle is filled four cells of a row at a time, one walk down the
// Jacobian feeding four register accumulators from the earliest start of
// the four (a cell whose own start is later adds only ±0 terms until then);
// the lower triangle is mirrored afterwards.
func normalEquations(jtj, jtr []float64, z []int, jac, r []float64, m, dim int) {
	for i := 0; i < m; i++ {
		row := jac[i*dim : i*dim+dim]
		if ri := r[i]; ri != ri {
			clear(row)
			continue
		}
		for j, d := range row {
			if d-d != 0 { // NaN or ±Inf
				row[j] = 0
			}
		}
	}
	for j := range z {
		ij := j
		for ij < len(jac) && jac[ij] == 0 {
			ij += dim
		}
		z[j] = ij / dim
	}
	for a := 0; a < dim; a++ {
		za := z[a]
		sr := 0.0
		for i, ia := za, za*dim+a; i < m; i, ia = i+1, ia+dim {
			if ri := r[i]; ri == ri {
				sr += jac[ia] * ri
			}
		}
		jtr[a] = sr
		b := a
		for ; b+4 <= dim; b += 4 {
			lo := max(za, min(z[b], z[b+1], z[b+2], z[b+3]))
			var s0, s1, s2, s3 float64
			for ia, ib := lo*dim+a, lo*dim+b; ib+3 < len(jac); ia, ib = ia+dim, ib+dim {
				x, c := jac[ia], jac[ib:ib+4:ib+4]
				s0 += x * c[0]
				s1 += x * c[1]
				s2 += x * c[2]
				s3 += x * c[3]
			}
			cell := jtj[a*dim+b : a*dim+b+4]
			cell[0], cell[1], cell[2], cell[3] = s0, s1, s2, s3
		}
		for ; b < dim; b++ {
			lo := max(za, z[b])
			s := 0.0
			for ia, ib := lo*dim+a, lo*dim+b; ib < len(jac); ia, ib = ia+dim, ib+dim {
				s += jac[ia] * jac[ib]
			}
			jtj[a*dim+b] = s
		}
	}
	for a := 0; a < dim; a++ { // mirror the upper triangle
		for b := 0; b < a; b++ {
			jtj[a*dim+b] = jtj[b*dim+a]
		}
	}
}

// solveSPD solves A·x = b for a symmetric positive-definite matrix A (given
// as row-major n×n) via Cholesky decomposition. A and b are not modified.
// It returns an error when A is not (numerically) positive definite, which
// the LM driver treats as "increase damping and retry".
func solveSPD(a []float64, b []float64, n int) ([]float64, error) {
	x := make([]float64, n)
	if err := solveSPDInto(x, make([]float64, n*n), make([]float64, n), a, b, n); err != nil {
		return nil, err
	}
	return x, nil
}

// solveSPDInto is solveSPD with caller-provided workspace: x receives the
// solution (length n), l is the n×n Cholesky factor scratch and y the
// substitution scratch. The LM driver calls this once per damped trial, so
// reusing the workspace removes three allocations from the innermost loop.
func solveSPDInto(x, l, y, a, b []float64, n int) error {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return errors.New("lm: matrix not positive definite")
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return nil
}
