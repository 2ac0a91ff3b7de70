// Package lm implements the Levenberg–Marquardt algorithm for non-linear
// least squares, the optimiser named by the Δ-SPOT paper (its reference [4],
// Levenberg 1944). It is written for the shape of problem the fitters
// produce: a handful of bounded parameters, residual vectors of a few
// hundred to a few thousand entries, and objective functions that are full
// SIV simulations. Jacobians come from a caller-supplied analytic
// JacobianFunc when Options.Jacobian is set (one sensitivity pass per
// iteration), and from forward finite differences otherwise (p+1 residual
// evaluations per iteration) — the FD path doubles as the cross-check
// oracle for analytic implementations.
package lm

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ResidualFunc evaluates the residual vector r(p) for parameters p. The
// returned slice must have constant length across calls; NaN entries are
// treated as missing observations and contribute zero to the objective and
// Jacobian.
type ResidualFunc func(p []float64) []float64

// ResidualIntoFunc evaluates r(p) into a caller-provided buffer. The
// contract mirrors the residualsInto helpers in the fitters: when dst has
// sufficient capacity the function must write into it and return dst[:m];
// when dst is nil or too small it must allocate and return a fresh slice —
// never a view of internal state shared across calls. FitInto relies on
// this to hold the current, probe, and trial residual vectors in three
// distinct buffers, so an implementation that returns the same backing
// array on every call would corrupt the Jacobian.
type ResidualIntoFunc func(dst, p []float64) []float64

// JacobianFunc fills jac — row-major m×dim, m the residual length and dim
// the parameter count — with the analytic Jacobian ∂r_i/∂p_j at p. The
// buffer is caller-owned and sized; every entry must be written. Entries in
// rows whose residual is NaN (missing observations) and non-finite entries
// (overflowed sensitivities of explosive trajectories) are zeroed by the
// driver after the call, so implementations need no special handling for
// either.
type JacobianFunc func(jac, p []float64)

// Options configures a Fit run. The zero value selects sensible defaults.
type Options struct {
	MaxIter   int       // maximum outer iterations (default 100)
	Tol       float64   // relative SSE improvement tolerance (default 1e-8)
	Lambda0   float64   // initial damping factor (default 1e-3)
	LambdaUp  float64   // damping multiplier on rejection (default 10)
	LambdaDn  float64   // damping divisor on acceptance (default 10)
	Lower     []float64 // optional per-parameter lower bounds
	Upper     []float64 // optional per-parameter upper bounds
	FDStep    float64   // relative finite-difference step (default 1e-6)
	MaxLambda float64   // damping ceiling before giving up (default 1e10)

	// Jacobian, when non-nil, supplies the analytic Jacobian of the
	// residuals and replaces the forward-difference probes entirely: one
	// call per iteration instead of dim probe evaluations. FDStep is then
	// unused.
	Jacobian JacobianFunc

	// Ctx, when non-nil, is checked at the top of every outer iteration:
	// once it is done Fit stops and returns the best parameters found so
	// far together with an error wrapping ctx.Err(). An objective function
	// is a full simulation, so this bounds cancel-to-stop latency by one
	// LM iteration (one Jacobian plus the damped trial steps).
	Ctx context.Context
}

// Result reports the outcome of a Fit run.
type Result struct {
	Params     []float64 // best parameters found
	SSE        float64   // sum of squared residuals at Params
	Iterations int       // outer iterations performed
	Converged  bool      // true if the relative-improvement tolerance was reached
	// Stalled is true when the damping loop hit MaxLambda without finding
	// an improving step: the search stopped at a (possibly bounded) local
	// minimum or on a pathological surface, not because the tolerance was
	// met. Converged and Stalled are mutually exclusive; both false means
	// MaxIter ran out while steps were still improving.
	Stalled bool
}

func (o *Options) fill(dim int) error {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.Lambda0 <= 0 {
		o.Lambda0 = 1e-3
	}
	if o.LambdaUp <= 1 {
		o.LambdaUp = 10
	}
	if o.LambdaDn <= 1 {
		o.LambdaDn = 10
	}
	if o.FDStep <= 0 {
		o.FDStep = 1e-6
	}
	if o.MaxLambda <= 0 {
		o.MaxLambda = 1e10
	}
	if o.Lower != nil && len(o.Lower) != dim {
		return errors.New("lm: Lower bound length mismatch")
	}
	if o.Upper != nil && len(o.Upper) != dim {
		return errors.New("lm: Upper bound length mismatch")
	}
	return nil
}

// sse sums squared residuals; NaN entries are missing observations and
// contribute zero, while an Inf entry drives the sum to +Inf so the damped
// step that produced it is rejected like any other worse trial.
func sse(r []float64) float64 {
	s := 0.0
	for _, v := range r {
		if math.IsNaN(v) {
			continue
		}
		if math.IsInf(v, 0) {
			return math.Inf(1)
		}
		s += v * v
	}
	return s
}

func (o *Options) clamp(p []float64) {
	for i := range p {
		if o.Lower != nil && p[i] < o.Lower[i] {
			p[i] = o.Lower[i]
		}
		if o.Upper != nil && p[i] > o.Upper[i] {
			p[i] = o.Upper[i]
		}
	}
}

// Fit minimises ‖r(p)‖² starting from p0. p0 is not modified. Bounds, when
// provided, are enforced by projection after each accepted step and during
// Jacobian evaluation.
func Fit(f ResidualFunc, p0 []float64, opts Options) (Result, error) {
	return fitCore(func(_, p []float64) []float64 { return f(p) }, p0, opts)
}

// FitInto is Fit over a buffer-reusing residual function: the driver owns
// three residual buffers (current, Jacobian probe, damped trial) and passes
// them back to f, so a well-behaved f makes the whole run allocate a fixed
// amount of memory independent of the iteration count. The driver's
// buffers are reused from run to run, so a repeat run no larger than an
// earlier one allocates only its Result's Params. The search itself is
// identical to Fit's — same steps, same results.
func FitInto(f ResidualIntoFunc, p0 []float64, opts Options) (Result, error) {
	return fitCore(f, p0, opts)
}

// workspace is fitCore's scratch: the parameter, Jacobian, normal-equation,
// Cholesky and residual buffers of one run. A run takes one from the pool,
// sizes it to its own residual length m and parameter count dim (a buffer
// is reallocated only when it is too small) and hands it back, so a
// schedule of many short LM runs, like the global fit's screened and
// polished starts, reuses the buffers of the runs before it. Every buffer
// is written before it is read within a run, so nothing carries over.
type workspace struct {
	p, pTrial, delta, jtr, cholY []float64    // dim
	jtj, damped, cholL           []float64    // dim×dim
	jac                          []float64    // m×dim, row-major
	resid                        [3][]float64 // m: current, probe and trial residuals
	z                            []int        // dim: each Jacobian column's first non-zero row
}

// workspaces holds the idle workspaces. It is a buffered channel rather
// than a sync.Pool because a sync.Pool may drop any Put (under the race
// detector it drops one in four on purpose), which would make whether a
// repeat run allocates a matter of chance. Its 16 slots cover the LM runs
// a process has in flight at once (a fit runs 4 workers by default, and a
// server runs a few fits side by side) and bound what idle workspaces
// keep: one sized for the widest problem the fitters build, 576 ticks by
// about 120 parameters, holds under 1 MB. A workspace returned to a full
// pool is left to the collector.
var workspaces = make(chan *workspace, 16)

func getWorkspace() *workspace {
	select {
	case ws := <-workspaces:
		return ws
	default:
		return new(workspace)
	}
}

func putWorkspace(ws *workspace) {
	select {
	case workspaces <- ws:
	default:
	}
}

// size fits every buffer but p to an m×dim problem.
func (ws *workspace) size(m, dim int) {
	ws.pTrial = grow(ws.pTrial, dim)
	ws.delta = grow(ws.delta, dim)
	ws.jtr = grow(ws.jtr, dim)
	ws.cholY = grow(ws.cholY, dim)
	ws.jtj = grow(ws.jtj, dim*dim)
	ws.damped = grow(ws.damped, dim*dim)
	ws.cholL = grow(ws.cholL, dim*dim)
	ws.jac = grow(ws.jac, m*dim)
	for k := range ws.resid {
		ws.resid[k] = grow(ws.resid[k], m)
	}
	if cap(ws.z) < dim {
		ws.z = make([]int, dim)
	}
	ws.z = ws.z[:dim]
}

// grow returns b resliced to length n, or a fresh slice when b is too small.
func grow(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func fitCore(f ResidualIntoFunc, p0 []float64, opts Options) (Result, error) {
	dim := len(p0)
	if dim == 0 {
		return Result{}, errors.New("lm: empty parameter vector")
	}
	if err := opts.fill(dim); err != nil {
		return Result{}, err
	}

	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.p = append(ws.p[:0], p0...)
	p := ws.p
	opts.clamp(p)
	r := f(ws.resid[0], p)
	m := len(r)
	if m == 0 {
		return Result{}, errors.New("lm: empty residual vector")
	}
	cur := sse(r)
	if math.IsInf(cur, 0) || math.IsNaN(cur) {
		// A non-finite starting cost gives the damped steps nothing to
		// improve against; report it so multi-start callers can skip this
		// start instead of looping on rejected trials.
		return Result{Params: append([]float64(nil), p...), SSE: cur},
			errors.New("lm: non-finite cost at initial parameters")
	}

	lambda := opts.Lambda0
	ws.size(m, dim)
	jac, jtj, jtr := ws.jac, ws.jtj, ws.jtr
	pTrial, damped, delta, cholL, cholY := ws.pTrial, ws.damped, ws.delta, ws.cholL, ws.cholY
	probeBuf, trialBuf := ws.resid[1], ws.resid[2]

	res := Result{Params: append([]float64(nil), p...), SSE: cur}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				res.Params = append(res.Params[:0], p...)
				res.SSE = cur
				return res, fmt.Errorf("lm: stopped after %d iterations: %w",
					res.Iterations, err)
			}
		}
		res.Iterations = iter + 1

		if opts.Jacobian != nil {
			// Analytic Jacobian: one sensitivity pass replaces the dim
			// probe evaluations below; normalEquations zeroes its
			// missing-row and non-finite entries.
			opts.Jacobian(jac, p)
		} else {
			// Forward-difference Jacobian of the residuals.
			for j := 0; j < dim; j++ {
				h := opts.FDStep * math.Abs(p[j])
				if h == 0 {
					h = opts.FDStep
				}
				// Step inside the bounds if a bound is active.
				pj := p[j] + h
				if opts.Upper != nil && pj > opts.Upper[j] {
					pj = p[j] - h
					h = -h
				}
				// The flipped (backward) probe must respect Lower too: with a
				// tightly bounded or pinned parameter (hi−lo smaller than the
				// step) the unclamped probe would evaluate f outside the box the
				// caller promised it. Clamp the probe and recompute the step
				// from the value actually probed; when the box leaves no room at
				// all, the parameter is immovable — record a zero gradient
				// column instead of probing.
				if opts.Lower != nil && pj < opts.Lower[j] {
					pj = opts.Lower[j]
					h = pj - p[j]
					if h == 0 {
						for i := 0; i < m; i++ {
							jac[i*dim+j] = 0
						}
						continue
					}
				}
				saved := p[j]
				p[j] = pj
				rj := f(probeBuf, p)
				p[j] = saved
				if len(rj) != m {
					return res, errors.New("lm: residual length changed between calls")
				}
				// A NaN residual on either side (missing observation) or a
				// probe that blew up to ±Inf leaves a non-finite entry,
				// which says nothing about the local slope; normalEquations
				// records it as missing.
				inv := 1 / h
				for i := 0; i < m; i++ {
					jac[i*dim+j] = (rj[i] - r[i]) * inv
				}
			}
		}

		// Normal equations: (JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr.
		normalEquations(jtj, jtr, ws.z, jac, r, m, dim)

		improved := false
		for lambda <= opts.MaxLambda {
			copy(damped, jtj)
			for a := 0; a < dim; a++ {
				d := jtj[a*dim+a]
				if d == 0 {
					d = 1e-12
				}
				damped[a*dim+a] = d * (1 + lambda)
			}
			if err := solveSPDInto(delta, cholL, cholY, damped, jtr, dim); err != nil {
				lambda *= opts.LambdaUp
				continue
			}
			finite := true
			for a := 0; a < dim; a++ {
				if math.IsInf(delta[a], 0) || math.IsNaN(delta[a]) {
					finite = false
					break
				}
			}
			if !finite {
				lambda *= opts.LambdaUp
				continue
			}
			for a := 0; a < dim; a++ {
				pTrial[a] = p[a] - delta[a]
			}
			opts.clamp(pTrial)
			rTrial := f(trialBuf, pTrial)
			trial := sse(rTrial)
			if trial < cur && !math.IsNaN(trial) {
				rel := (cur - trial) / math.Max(cur, 1e-300)
				copy(p, pTrial)
				// Swap rather than copy: the accepted trial becomes the
				// current residual vector and the old one becomes the next
				// trial's scratch. (With an allocating f the swapped-in
				// buffer is simply the freshly returned slice.)
				r, trialBuf = rTrial, r
				cur = trial
				lambda /= opts.LambdaDn
				if lambda < 1e-12 {
					lambda = 1e-12
				}
				improved = true
				if rel < opts.Tol {
					res.Converged = true
				}
				break
			}
			lambda *= opts.LambdaUp
		}
		if !improved {
			// Damping hit MaxLambda without an improving step: the search is
			// stuck at a (possibly bounded) minimum or on a pathological
			// surface. This used to be reported as Converged; it is a
			// different outcome and callers watching fit health need to
			// tell them apart.
			res.Stalled = true
			break
		}
		if res.Converged {
			break
		}
	}
	res.Params = append(res.Params[:0], p...)
	res.SSE = cur
	return res, nil
}
