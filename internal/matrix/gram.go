package matrix

import "sync"

// Symmetric Gram kernel behind RandomSPD. It computes only the upper
// triangle of AᵀA, reading A through its transpose so that every entry
// is a dot product of two contiguous rows.
//
// Bit-identity with Gemm: Gemm with beta=0 builds each C[i][j] as one
// sequential sum over l=0..k-1 starting from +0. This kernel keeps
// exactly that chain per element — register blocking over (i, j) and
// l-blocking that parks partial sums in C do not reorder it — and the
// products commute, so C[j][i] has the bits of C[i][j]. Gemm skips
// zero multiplicands; adding their ±0 products instead cannot change a
// finite sum that starts at +0, since it never becomes −0. The l-sum
// must never be reassociated (no split accumulators, pairwise sums or
// explicit FMA); the acc += x*y shape also keeps any compiler FMA
// fusion the same as Gemm's.

const (
	// gramBand is the row height of the register-blocked micro-kernel
	// (4×2 accumulators; a 4×4 block spills on amd64).
	gramBand = 4
	// gramLBlock is the l-block length whose partial sums are carried
	// in C between passes.
	gramLBlock = 256
)

// gramUpper sets the upper triangle (diagonal included) of the n×n
// matrix c to at·atᵀ, where at is n×k; c must be zeroed and compact.
// Entries below the diagonal inside a band's diagonal block are also
// written, with the same bits as their mirror. Row bands are
// interleaved across workers goroutines.
func gramUpper(at, c *Dense, workers int) {
	n := at.rows
	bands := (n + gramBand - 1) / gramBand
	if workers > bands {
		workers = bands
	}
	if workers <= 1 {
		gramBands(at, c, 0, 1)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gramBands(at, c, w, workers)
		}(w)
	}
	wg.Wait()
}

// gramBands computes the bands first, first+step, first+2·step, ...
// of gramUpper: interleaving balances the triangle's shrinking rows.
func gramBands(at, c *Dense, first, step int) {
	n, k := at.rows, at.cols
	for lb := 0; lb < k; lb += gramLBlock {
		le := min(lb+gramLBlock, k)
		for i0 := first * gramBand; i0 < n; i0 += step * gramBand {
			if i0+gramBand <= n {
				gramBand4(at, c, i0, lb, le)
			} else {
				for i := i0; i < n; i++ {
					for j := i; j < n; j++ {
						gramDot(at, c, i, j, lb, le)
					}
				}
			}
		}
	}
}

// gramBand4 adds the l-block [lb, le) of rows i0..i0+3 of at·atᵀ into
// C[i0..i0+3][j] for every j >= i0, two columns at a time.
func gramBand4(at, c *Dense, i0, lb, le int) {
	n, s := c.cols, at.stride
	a0 := at.data[i0*s+lb : i0*s+le]
	a1 := at.data[(i0+1)*s+lb : (i0+1)*s+le][:len(a0)]
	a2 := at.data[(i0+2)*s+lb : (i0+2)*s+le][:len(a0)]
	a3 := at.data[(i0+3)*s+lb : (i0+3)*s+le][:len(a0)]
	c0 := c.data[i0*n : i0*n+n]
	c1 := c.data[(i0+1)*n : (i0+1)*n+n]
	c2 := c.data[(i0+2)*n : (i0+2)*n+n]
	c3 := c.data[(i0+3)*n : (i0+3)*n+n]
	j := i0
	for ; j+1 < n; j += 2 {
		b0 := at.data[j*s+lb : j*s+le][:len(a0)]
		b1 := at.data[(j+1)*s+lb : (j+1)*s+le][:len(a0)]
		s00, s01 := c0[j], c0[j+1]
		s10, s11 := c1[j], c1[j+1]
		s20, s21 := c2[j], c2[j+1]
		s30, s31 := c3[j], c3[j+1]
		for l, x0 := range a0 {
			y0, y1 := b0[l], b1[l]
			x1, x2, x3 := a1[l], a2[l], a3[l]
			s00 += x0 * y0
			s01 += x0 * y1
			s10 += x1 * y0
			s11 += x1 * y1
			s20 += x2 * y0
			s21 += x2 * y1
			s30 += x3 * y0
			s31 += x3 * y1
		}
		c0[j], c0[j+1] = s00, s01
		c1[j], c1[j+1] = s10, s11
		c2[j], c2[j+1] = s20, s21
		c3[j], c3[j+1] = s30, s31
	}
	if j < n {
		for i := i0; i < i0+gramBand; i++ {
			gramDot(at, c, i, j, lb, le)
		}
	}
}

// gramDot adds the l-block [lb, le) of row i of at · row j of at into
// C[i][j]: the scalar edge case of gramBand4.
func gramDot(at, c *Dense, i, j, lb, le int) {
	s := at.stride
	a := at.data[i*s+lb : i*s+le]
	b := at.data[j*s+lb : j*s+le][:len(a)]
	acc := c.data[i*c.cols+j]
	for l, x := range a {
		acc += x * b[l]
	}
	c.data[i*c.cols+j] = acc
}
