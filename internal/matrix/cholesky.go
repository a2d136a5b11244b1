package matrix

import (
	"fmt"
	"math"
	"runtime"
)

// Cholesky factorization kernels. The paper's design model is
// demonstrated on LU; the ScaLAPACK reference it builds on [10] covers
// LU, QR and Cholesky, and the authors' earlier hybrid work [22]
// partitions block Cholesky the same way. These kernels back the
// extension application in internal/core.

// Cholesky factors the symmetric positive-definite matrix a in place:
// on return the lower triangle holds L with A = L·Lᵀ. The strict upper
// triangle is left untouched (callers treat the matrix as symmetric).
func Cholesky(a *Dense) error {
	n := checkSquare(a, "Cholesky")
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := a.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 {
			return fmt.Errorf("%w: non-positive pivot %g at %d", ErrSingular, d, j)
		}
		ljj := math.Sqrt(d)
		a.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			ai, aj := a.Row(i), a.Row(j)
			for k := 0; k < j; k++ {
				s -= ai[k] * aj[k]
			}
			a.Set(i, j, s/ljj)
		}
	}
	return nil
}

// Syrk performs the symmetric rank-k update C -= A·Aᵀ on the lower
// triangle of C (the opSYRK task of block Cholesky). A is n×k, C is
// n×n; only C's lower triangle (including the diagonal) is written.
func Syrk(a, c *Dense) {
	n, k := a.Dims()
	cr, cc := c.Dims()
	if cr != n || cc != n {
		panic(fmt.Sprintf("matrix: Syrk C %dx%d for A %dx%d", cr, cc, n, k))
	}
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		ci := c.Row(i)
		for j := 0; j <= i; j++ {
			aj := a.Row(j)
			var s float64
			for l := 0; l < k; l++ {
				s += ai[l] * aj[l]
			}
			ci[j] -= s
		}
	}
}

// TrsmRightLowerT solves X·Lᵀ = B in place for the opTRSM task of block
// Cholesky: B ← B·L⁻ᵀ where L is n×n lower triangular (non-unit
// diagonal) and B is m×n.
func TrsmRightLowerT(l, b *Dense) {
	n := checkSquare(l, "TrsmRightLowerT")
	if b.cols != n {
		panic(fmt.Sprintf("matrix: TrsmRightLowerT B %dx%d vs L %dx%d", b.rows, b.cols, n, n))
	}
	// X·Lᵀ = B  ⇔  for each row x of B: solve Lᵀ from the left on xᵀ,
	// i.e. forward substitution in j with the transposed access.
	for i := 0; i < b.rows; i++ {
		bi := b.Row(i)
		for j := 0; j < n; j++ {
			s := bi[j]
			lj := l.Row(j)
			for k := 0; k < j; k++ {
				s -= bi[k] * lj[k]
			}
			bi[j] = s / lj[j]
		}
	}
}

// BlockCholesky performs a right-looking block Cholesky factorization
// in place with block size bs: factor the diagonal block (opPOTRF),
// solve the panel below it (opTRSM), update the trailing lower triangle
// (opSYRK on diagonal blocks, GEMM elsewhere). It is the sequential
// reference for the distributed hybrid design.
func BlockCholesky(a *Dense, bs int) error {
	n := checkSquare(a, "BlockCholesky")
	if bs <= 0 {
		panic("matrix: BlockCholesky block size must be positive")
	}
	for t := 0; t < n; t += bs {
		nb := min(bs, n-t)
		diag := a.View(t, t, nb, nb)
		if err := Cholesky(diag); err != nil {
			return fmt.Errorf("iteration %d: %w", t/bs, err)
		}
		if t+nb >= n {
			break
		}
		panel := a.View(t+nb, t, n-t-nb, nb)
		TrsmRightLowerT(diag, panel)
		// Trailing update: A22 -= panel · panelᵀ, lower triangle only.
		trail := a.View(t+nb, t+nb, n-t-nb, n-t-nb)
		Syrk(panel, trail)
	}
	return nil
}

// RandomSPD returns a random symmetric positive-definite n×n matrix
// (AᵀA + n·I of a random A, drawn row by row). Only the upper triangle
// of AᵀA is computed, split across GOMAXPROCS goroutines, then
// mirrored; the result has the same bits as Mul(a.Transpose(), a) plus
// n·I for any worker count (see gram.go).
func RandomSPD(n int, rng interface{ Float64() float64 }) *Dense {
	return randomSPD(n, rng, runtime.GOMAXPROCS(0))
}

// randomSPD is RandomSPD with an explicit worker count.
func randomSPD(n int, rng interface{ Float64() float64 }, workers int) *Dense {
	// Draw A in row order straight into its transpose: at[j][i] = A[i][j],
	// so (AᵀA)[i][j] is the dot product of rows i and j of at.
	at := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			at.data[j*n+i] = 2*rng.Float64() - 1
		}
	}
	spd := New(n, n)
	gramUpper(at, spd, workers)
	for i := 0; i < n; i++ {
		row := spd.data[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			spd.data[j*n+i] = row[j]
		}
		row[i] += float64(n)
	}
	return spd
}

// ExtractLower returns the lower triangle (with diagonal) of a as a new
// matrix, zeroing the strict upper part.
func ExtractLower(a *Dense) *Dense {
	n := checkSquare(a, "ExtractLower")
	out := New(n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i)[:i+1], a.Row(i)[:i+1])
	}
	return out
}
