package lm

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// normalCase is one draw of the normal-equations property: an m×dim
// Jacobian whose columns each start with a random zero prefix (of +0 and
// −0, the whole column in some draws) and hold NaN, ±Inf, −0 and exact
// zeros among their values, and residuals with NaN (missing) rows.
type normalCase struct {
	M, Dim int
	Jac, R []float64
}

func (normalCase) Generate(r *rand.Rand, _ int) reflect.Value {
	m, dim := 1+r.Intn(130), 1+r.Intn(40)
	c := normalCase{M: m, Dim: dim, Jac: make([]float64, m*dim), R: make([]float64, m)}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, -1e-300, 1e300}
	for j := 0; j < dim; j++ {
		prefix := r.Intn(m + 1)
		if r.Intn(8) == 0 {
			prefix = m // all-zero column
		}
		for i := 0; i < m; i++ {
			v := 0.0
			switch {
			case i < prefix:
				if r.Intn(2) == 0 {
					v = math.Copysign(0, -1)
				}
			case r.Intn(12) == 0:
				v = specials[r.Intn(len(specials))]
			default:
				v = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
			}
			c.Jac[i*dim+j] = v
		}
	}
	for i := range c.R {
		switch r.Intn(10) {
		case 0:
			c.R[i] = math.NaN()
		case 1:
			c.R[i] = math.Copysign(0, -1)
		default:
			c.R[i] = r.NormFloat64() * 10
		}
	}
	return reflect.ValueOf(c)
}

// referenceNormalEquations is the plain definition: zero the rows of NaN
// residuals and every non-finite entry, then sum each cell over all rows in
// ascending order.
func referenceNormalEquations(jac, r []float64, m, dim int) (clean, jtj, jtr []float64) {
	clean = append([]float64(nil), jac...)
	for i := 0; i < m; i++ {
		for j := 0; j < dim; j++ {
			d := clean[i*dim+j]
			if math.IsNaN(r[i]) || math.IsNaN(d) || math.IsInf(d, 0) {
				clean[i*dim+j] = 0
			}
		}
	}
	jtj, jtr = make([]float64, dim*dim), make([]float64, dim)
	for a := 0; a < dim; a++ {
		for i := 0; i < m; i++ {
			if !math.IsNaN(r[i]) {
				jtr[a] += clean[i*dim+a] * r[i]
			}
		}
		for b := 0; b < dim; b++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += clean[i*dim+a] * clean[i*dim+b]
			}
			jtj[a*dim+b] = s
		}
	}
	return clean, jtj, jtr
}

// sameBits compares by math.Float64bits, so +0 and −0 differ, except that
// every NaN equals every other: a NaN's sign and payload depend on which
// operand the compiled code puts first, and no caller reads them.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// normalEquations skips each cell's terms before the first non-zero row of
// its columns and fills four cells per walk; neither may move a bit of the
// plain ascending-row sums, for every remainder of the four-cell blocks and
// whatever the Jacobian holds.
func TestNormalEquationsMatchReference(t *testing.T) {
	prop := func(c normalCase) bool {
		clean, wantJtJ, wantJtr := referenceNormalEquations(c.Jac, c.R, c.M, c.Dim)
		jac := append([]float64(nil), c.Jac...)
		jtj, jtr := make([]float64, c.Dim*c.Dim), make([]float64, c.Dim)
		z := make([]int, c.Dim)
		normalEquations(jtj, jtr, z, jac, c.R, c.M, c.Dim)
		for j, zj := range z {
			first := c.M
			for i := 0; i < c.M; i++ {
				if clean[i*c.Dim+j] != 0 {
					first = i
					break
				}
			}
			if zj != first {
				t.Logf("m %d dim %d: z[%d] = %d, want %d", c.M, c.Dim, j, zj, first)
				return false
			}
		}
		return sameBits(jac, clean) && sameBits(jtj, wantJtJ) && sameBits(jtr, wantJtr)
	}
	cfg := &quick.Config{MaxCount: 600, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// wideInto is a 60-residual, 12-parameter problem whose columns 2–11 are
// zero before ticks 5j, the shape of a shock candidate's strength lanes:
// r_t = p0·exp(−p1·t/60) + Σ_{j≥2, t≥5j} p_j − obs_t.
func wideInto(dst, p []float64) []float64 {
	const m = 60
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	r := dst[:m]
	for t := range r {
		v := p[0] * math.Exp(-p[1]*float64(t)/m)
		for j := 2; j < len(p) && t >= 5*j; j++ {
			v += p[j]
		}
		obs := 3*math.Exp(-0.7*float64(t)/m) + 0.2*math.Sin(float64(t))
		r[t] = v - obs
	}
	return r
}

func wideJac(jac, p []float64) {
	const m = 60
	dim := len(p)
	for t := 0; t < m; t++ {
		e := math.Exp(-p[1] * float64(t) / m)
		row := jac[t*dim : t*dim+dim]
		row[0] = e
		row[1] = -p[0] * float64(t) / m * e
		for j := 2; j < dim; j++ {
			row[j] = 0
			if t >= 5*j {
				row[j] = 1
			}
		}
	}
}

// poisonWorkspaces fills every buffer of every idle workspace, to its
// capacity, with NaN, so a run that read a buffer before writing it would
// show it.
func poisonWorkspaces() {
	var held []*workspace
	for len(workspaces) > 0 {
		held = append(held, <-workspaces)
	}
	for _, ws := range held {
		for _, b := range [][]float64{ws.p, ws.pTrial, ws.delta, ws.jtr, ws.cholY,
			ws.jtj, ws.damped, ws.cholL, ws.jac, ws.resid[0], ws.resid[1], ws.resid[2]} {
			b = b[:cap(b)]
			for i := range b {
				b[i] = math.NaN()
			}
		}
		z := ws.z[:cap(ws.z)]
		for i := range z {
			z[i] = -1
		}
		putWorkspace(ws)
	}
}

func sameResult(a, b Result) bool {
	return sameBits(a.Params, b.Params) && math.Float64bits(a.SSE) == math.Float64bits(b.SSE) &&
		a.Iterations == b.Iterations && a.Converged == b.Converged && a.Stalled == b.Stalled
}

// FitInto's scratch comes from a pool shared by every run, so a run must
// not depend on what the runs before it left there: a wide run, a narrow
// one and the wide one again give the same bits, on either Jacobian path,
// even with every idle buffer poisoned in between.
func TestFitIntoIndependentOfPriorRuns(t *testing.T) {
	p0 := []float64{1, 0.2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	for _, jac := range []JacobianFunc{nil, wideJac} {
		wide := func() Result {
			res, err := FitInto(wideInto, p0, Options{MaxIter: 40, Jacobian: jac})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		poisonWorkspaces()
		first := wide()
		poisonWorkspaces()
		if _, err := FitInto(rosenbrockInto, []float64{-1.2, 1}, Options{MaxIter: 30}); err != nil {
			t.Fatal(err)
		}
		poisonWorkspaces()
		if again := wide(); !sameResult(first, again) {
			t.Fatalf("analytic=%v: wide run %+v, after a narrow run %+v", jac != nil, first, again)
		}
		if first.Iterations < 2 {
			t.Fatalf("analytic=%v: the wide run needs several iterations, took %d", jac != nil, first.Iterations)
		}
	}
}

// A repeat FitInto of the same shape takes all its scratch from the pool:
// the one allocation left is its Result's Params.
func TestFitIntoReusesScratch(t *testing.T) {
	p0 := []float64{-1.2, 1}
	run := func() {
		if _, err := FitInto(rosenbrockInto, p0, Options{MaxIter: 60}); err != nil {
			t.Fatalf("FitInto: %v", err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 1 {
		t.Fatalf("a repeat run allocates %.0f times, want 1 (its Params)", allocs)
	}
}

// Runs on several goroutines at once share the pool: each must still get
// the bits it gets alone.
func TestFitIntoConcurrentRunsShareThePool(t *testing.T) {
	p0 := []float64{1, 0.2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	wideOpts := Options{MaxIter: 40, Jacobian: wideJac}
	wantWide, err := FitInto(wideInto, p0, wideOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantNarrow, err := FitInto(rosenbrockInto, []float64{-1.2, 1}, Options{MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if (g+k)%2 == 0 {
					if got, err := FitInto(wideInto, p0, wideOpts); err != nil || !sameResult(got, wantWide) {
						t.Errorf("goroutine %d: wide run %+v (%v), alone %+v", g, got, err, wantWide)
						return
					}
				} else if got, err := FitInto(rosenbrockInto, []float64{-1.2, 1},
					Options{MaxIter: 30}); err != nil || !sameResult(got, wantNarrow) {
					t.Errorf("goroutine %d: narrow run %+v (%v), alone %+v", g, got, err, wantNarrow)
					return
				}
			}
		}()
	}
	wg.Wait()
}
