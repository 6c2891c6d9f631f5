package core

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// GenericERM is Mechanism PRIVINCERM (Section 3): the generic transformation of
// a private batch ERM algorithm into a private incremental one. The batch
// algorithm is invoked only every τ timesteps on the prefix observed so far,
// with the per-invocation privacy budget derived from the total (ε, δ) budget
// by advanced composition over the T/τ invocations (the exact split used in
// the proof of Theorem 3.1). Between invocations the previous estimate is
// replayed, trading a staleness term of at most τ·L·‖C‖ against the reduced
// privacy noise.
//
// The implementation amortizes the mechanism in two orthogonal ways:
//
//   - Sufficient statistics. When the loss satisfies loss.AsQuadratic (squared
//     loss, optionally ridge-regularized), the history is never retained:
//     Observe folds each clamped point into O(d²) moment statistics
//     (erm.QuadraticStats) with a rank-one update, and each τ-boundary solve
//     runs over the statistics in O(d²·iterations) — independent of the
//     stream length. Checkpoints are O(d²) too.
//   - Lazy boundary solves. A solve scheduled at a τ boundary is deferred to
//     the next Estimate. The solve noise is counter-keyed (a pure function of
//     the mechanism key, the invocation index k = t/τ, and the iteration), so
//     deferral — or outright skipping, when a later boundary supersedes an
//     unread one — produces the exact estimate sequence eager execution
//     would. Privacy is unaffected: the adversary observes at most the same
//     set of solve outputs, each computed on the same prefix with the same
//     per-call budget.
//
// Non-quadratic losses fall back to retained history. Unbounded by default;
// GenericOptions.HistoryCap bounds retention with a ring buffer over the most
// recent points, in which case each boundary solve runs eagerly over the
// window (deferring would let the points it must see get evicted) and
// approximates the full-prefix solve by a sliding-window solve.
type GenericERM struct {
	f       loss.Function
	c       constraint.Set
	privacy dp.Params
	perCall dp.Params
	horizon int
	tau     int

	batchOpts erm.PrivateBatchOptions
	key       int64
	solver    *erm.Solver

	t       int
	current vec.Vector

	// Quadratic sufficient-statistics path.
	quad    bool
	stats   *erm.QuadraticStats
	pend    *erm.QuadraticStats
	pendSet bool
	pendInv uint64
	xbuf    vec.Vector

	// History fallback path.
	historyCap int
	history    []loss.Point
	ring       *pointRing
	scratch    []loss.Point
	pendN      int
}

// GenericOptions configures GenericERM.
type GenericOptions struct {
	// Tau is the recomputation period τ. When zero it is chosen automatically
	// from the loss's convexity properties via TauForLoss.
	Tau int
	// Batch configures the private batch ERM black box.
	Batch erm.PrivateBatchOptions
	// HistoryCap bounds the retained history for losses without quadratic
	// sufficient statistics: when positive, only the most recent HistoryCap
	// clamped points are kept in a ring buffer and each τ-boundary solve runs
	// over that window instead of the full prefix. Zero or negative retains
	// the full history. Quadratic losses ignore the cap — they retain O(d²)
	// statistics and no history at all.
	HistoryCap int
}

// TauConvex returns the recomputation period τ = ⌈(Td)^{1/3} / ε^{2/3}⌉ used by
// Theorem 3.1 part 1 for general convex losses. The result is clamped to
// [1, T].
func TauConvex(horizon, dim int, epsilon float64) int {
	tau := int(math.Ceil(math.Cbrt(float64(horizon)*float64(dim)) / math.Pow(epsilon, 2.0/3.0)))
	return clampTau(tau, horizon)
}

// TauStronglyConvex returns τ = ⌈ √d·L / (ν^{1/2} ε ‖C‖^{1/2}) ⌉ used by
// Theorem 3.1 part 2 for ν-strongly convex losses, clamped to [1, T].
func TauStronglyConvex(horizon, dim int, lipschitz, nu, epsilon, diameter float64) int {
	if nu <= 0 || diameter <= 0 {
		return clampTau(horizon, horizon)
	}
	tau := int(math.Ceil(math.Sqrt(float64(dim)) * lipschitz / (math.Sqrt(nu) * epsilon * math.Sqrt(diameter))))
	return clampTau(tau, horizon)
}

// TauWidthBased returns τ = ⌈ √T·w(C)·C_ℓ^{1/4} / ((L‖C‖)^{1/4} ε^{1/2}) ⌉ used
// by Theorem 3.1 part 3 when the batch black box exploits constraint-set
// geometry (Talwar et al.), clamped to [1, T].
func TauWidthBased(horizon int, width, curvature, lipschitz, diameter, epsilon float64) int {
	denom := math.Pow(lipschitz*diameter, 0.25) * math.Sqrt(epsilon)
	if denom <= 0 {
		return clampTau(horizon, horizon)
	}
	tau := int(math.Ceil(math.Sqrt(float64(horizon)) * width * math.Pow(curvature, 0.25) / denom))
	return clampTau(tau, horizon)
}

func clampTau(tau, horizon int) int {
	if tau < 1 {
		return 1
	}
	if tau > horizon {
		return horizon
	}
	return tau
}

// TauForLoss picks τ automatically: the strongly convex rule when the loss has
// a positive strong-convexity modulus over C, otherwise the general convex rule.
func TauForLoss(f loss.Function, c constraint.Set, horizon int, p dp.Params) int {
	lip := f.Lipschitz(c, 1, 1)
	if nu := f.StrongConvexity(c, 1, 1); nu > 0 {
		return TauStronglyConvex(horizon, c.Dim(), lip, nu, p.Epsilon, c.Diameter())
	}
	return TauConvex(horizon, c.Dim(), p.Epsilon)
}

// NewGenericERM returns Mechanism PRIVINCERM for the given loss, constraint
// set, total privacy budget and stream horizon T. The source seeds the
// mechanism's noise key (derived once at construction; the source itself is
// not retained).
func NewGenericERM(f loss.Function, c constraint.Set, p dp.Params, horizon int, src *randx.Source, opts GenericOptions) (*GenericERM, error) {
	if f == nil || c == nil {
		return nil, errors.New("core: nil loss or constraint set")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("core: horizon must be positive, got %d", horizon)
	}
	if src == nil {
		return nil, errors.New("core: nil randomness source")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tau := opts.Tau
	if tau <= 0 {
		tau = TauForLoss(f, c, horizon, p)
	}
	tau = clampTau(tau, horizon)
	calls := horizon / tau
	if calls < 1 {
		calls = 1
	}
	perCall, err := dp.PerInvocationAdvanced(p, calls)
	if err != nil {
		return nil, err
	}
	d := c.Dim()
	g := &GenericERM{
		f:         f,
		c:         c,
		privacy:   p,
		perCall:   perCall,
		horizon:   horizon,
		tau:       tau,
		batchOpts: opts.Batch,
		key:       src.DeriveKey(),
		solver:    erm.NewSolver(c),
		current:   c.Project(vec.NewVector(d)),
	}
	if _, _, ok := loss.AsQuadratic(f); ok {
		g.quad = true
		g.stats = erm.NewQuadraticStats(d)
		g.pend = erm.NewQuadraticStats(d)
		g.xbuf = vec.NewVector(d)
	} else if opts.HistoryCap > 0 {
		g.historyCap = opts.HistoryCap
		g.ring = newPointRing(opts.HistoryCap, d)
		g.scratch = make([]loss.Point, 0, opts.HistoryCap)
	}
	return g, nil
}

// Name implements Estimator.
func (g *GenericERM) Name() string { return "priv-inc-erm" }

// Tau returns the recomputation period in use.
func (g *GenericERM) Tau() int { return g.tau }

// PerCallPrivacy returns the per-invocation budget handed to the batch solver.
func (g *GenericERM) PerCallPrivacy() dp.Params { return g.perCall }

// Observe implements Estimator. On the quadratic path the point is folded into
// the sufficient statistics in O(d²) with no allocation; a τ boundary snapshots
// the statistics and defers the solve to the next Estimate (a later boundary
// overwrites an unread snapshot, which skips the superseded solve entirely).
// On the history fallback the point is appended (or pushed into the ring), and
// a boundary either schedules a lazy prefix solve (uncapped) or solves the
// window eagerly (capped, since deferral would let window points get evicted).
func (g *GenericERM) Observe(p loss.Point) error {
	if g.t >= g.horizon {
		return ErrStreamFull
	}
	g.t++
	switch {
	case g.quad:
		y := clampInto(g.xbuf, p.X, p.Y)
		g.stats.Add(g.xbuf, y)
		if g.t%g.tau == 0 {
			g.pend.CopyFrom(g.stats)
			g.pendInv = uint64(g.t / g.tau)
			g.pendSet = true
		}
	case g.ring != nil:
		g.ring.push(p)
		if g.t%g.tau == 0 {
			g.scratch = g.ring.appendTo(g.scratch[:0])
			theta, err := g.solver.SolveHistory(g.f, g.scratch, g.perCall, g.key, uint64(g.t/g.tau), g.batchOpts)
			if err != nil {
				return err
			}
			g.current = theta
		}
	default:
		g.history = append(g.history, clampPoint(p))
		if g.t%g.tau == 0 {
			g.pendN = g.t
			g.pendInv = uint64(g.t / g.tau)
			g.pendSet = true
		}
	}
	return nil
}

// ObserveBatch implements Estimator. The horizon check is hoisted so an
// oversized batch is rejected whole; each τ-boundary inside the batch still
// schedules (or, on the capped fallback, runs) its solve exactly as a scalar
// Observe loop would.
func (g *GenericERM) ObserveBatch(ps []loss.Point) error {
	if g.t+len(ps) > g.horizon {
		return ErrStreamFull
	}
	for _, p := range ps {
		if err := g.Observe(p); err != nil {
			return err
		}
	}
	return nil
}

// Estimate implements Estimator: it runs the deferred boundary solve, if one
// is pending, and returns the resulting estimate. Because the solve noise is
// keyed by (mechanism key, invocation index), the result is bit-identical to
// what an eager solve at the boundary would have produced, regardless of how
// many timesteps passed in between or how many earlier snapshots were
// superseded unread.
func (g *GenericERM) Estimate() (vec.Vector, error) {
	if g.pendSet {
		var theta vec.Vector
		var err error
		if g.quad {
			theta, err = g.solver.SolveStats(g.f, g.pend, g.perCall, g.key, g.pendInv, g.batchOpts)
		} else {
			theta, err = g.solver.SolveHistory(g.f, g.history[:g.pendN], g.perCall, g.key, g.pendInv, g.batchOpts)
		}
		if err != nil {
			return nil, err
		}
		g.current = theta
		g.pendSet = false
	}
	return g.current.Clone(), nil
}

// Len implements Estimator.
func (g *GenericERM) Len() int { return g.t }

// Privacy implements Estimator.
func (g *GenericERM) Privacy() dp.Params { return g.privacy }

// StateBytes reports the retained per-stream memory of the mechanism: the
// sufficient statistics (both live and snapshot) on the quadratic path, or the
// retained history buffers on the fallback path, plus the current estimate.
// The serving pool surfaces the aggregate in PoolStats.
func (g *GenericERM) StateBytes() int {
	b := 8 * len(g.current)
	switch {
	case g.quad:
		b += g.stats.Bytes() + g.pend.Bytes()
	case g.ring != nil:
		b += g.ring.bytes()
	default:
		b += pointsBytes(g.history)
	}
	return b
}

// pointsBytes approximates the retained memory of a clamped-point slice: one
// d-vector and one response per point.
func pointsBytes(pts []loss.Point) int {
	if len(pts) == 0 {
		return 0
	}
	return len(pts) * (8*len(pts[0].X) + 8)
}

// pointRing is a fixed-capacity ring of clamped points. Slot vectors are
// allocated once and reused, so pushing is allocation-free.
type pointRing struct {
	slots []loss.Point
	start int
	n     int
}

func newPointRing(capacity, dim int) *pointRing {
	r := &pointRing{slots: make([]loss.Point, capacity)}
	for i := range r.slots {
		r.slots[i].X = vec.NewVector(dim)
	}
	return r
}

// push clamps p into the next slot, evicting the oldest point when full.
func (r *pointRing) push(p loss.Point) {
	var slot *loss.Point
	if r.n < len(r.slots) {
		slot = &r.slots[(r.start+r.n)%len(r.slots)]
		r.n++
	} else {
		slot = &r.slots[r.start]
		r.start = (r.start + 1) % len(r.slots)
	}
	slot.Y = clampInto(slot.X, p.X, p.Y)
}

// appendTo appends the window oldest→newest to dst and returns it. The
// returned points alias the ring slots; they are valid until the next push.
func (r *pointRing) appendTo(dst []loss.Point) []loss.Point {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.slots[(r.start+i)%len(r.slots)])
	}
	return dst
}

func (r *pointRing) len() int { return r.n }

// bytes reports the allocated slot memory.
func (r *pointRing) bytes() int { return pointsBytes(r.slots) }

// ExcessRiskBoundConvex returns the leading term of the Theorem 3.1 part 1
// excess-risk bound (Td)^{1/3}·L‖C‖·log^{5/2}(1/δ)/ε^{2/3}, capped at the
// trivial bound T·L‖C‖. The experiments use it to annotate the predicted
// versus measured shapes.
func ExcessRiskBoundConvex(horizon, dim int, lipschitz, diameter float64, p dp.Params) float64 {
	trivial := float64(horizon) * lipschitz * diameter
	if p.Delta <= 0 || p.Delta >= 1 {
		return trivial
	}
	b := math.Cbrt(float64(horizon)*float64(dim)) * lipschitz * diameter *
		math.Pow(math.Log(1/p.Delta), 2.5) / math.Pow(p.Epsilon, 2.0/3.0)
	return math.Min(b, trivial)
}
