package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomSPDOracle is the reference construction RandomSPD replaced: the
// full product Mul(Aᵀ, A) through Gemm plus n·I.
func randomSPDOracle(n int, rng interface{ Float64() float64 }) *Dense {
	a := New(n, n)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
	}
	spd := Mul(a.Transpose(), a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

// requireSameBits fails unless got and want have identical dimensions
// and bit-identical elements.
func requireSameBits(t *testing.T, got, want *Dense) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("dims %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i := 0; i < got.rows; i++ {
		for j := 0; j < got.cols; j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("(%d,%d) = %v (%#x), want %v (%#x)", i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

func TestRandomSPDBitIdenticalToGemm(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 5, 63, 64, 65, 255, 257, 1024}
	seeds := []int64{1, 2, 7}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, n := range sizes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				want := randomSPDOracle(n, rand.New(rand.NewSource(seed)))
				got := RandomSPD(n, rand.New(rand.NewSource(seed)))
				requireSameBits(t, got, want)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if math.Float64bits(got.At(i, j)) != math.Float64bits(got.At(j, i)) {
							t.Fatalf("(%d,%d) and (%d,%d) differ in bits", i, j, j, i)
						}
					}
				}
			})
		}
	}
}

func TestRandomSPDWorkerCountIndependent(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{3, 4, 5, 63, 65, 257} {
		for _, workers := range []int{1, 2, 3, procs, n} {
			got := randomSPD(n, rand.New(rand.NewSource(int64(n))), workers)
			want := randomSPDOracle(n, rand.New(rand.NewSource(int64(n))))
			requireSameBits(t, got, want)
		}
	}
}

func TestRandomSPDZeroDraws(t *testing.T) {
	// Draws of exactly 0.5 make A entries of 0, the case Gemm's kernel
	// skips; the Gram kernel adds their signed-zero products instead.
	vals := []float64{0.5, 0.25, 0.5, 0.75, 0.5, 0.5, 0.1, 0.5, 0.9}
	src := func() *seq { return &seq{vals: vals} }
	for _, n := range []int{3, 5, 9} {
		requireSameBits(t, randomSPD(n, src(), 2), randomSPDOracle(n, src()))
	}
}

// seq replays vals cyclically as a Float64 source.
type seq struct {
	vals []float64
	i    int
}

func (s *seq) Float64() float64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}
