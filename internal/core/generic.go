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
// It is the package's one PRIVINCERM engine, and three constructors fix its
// schedule and budget:
//
//   - NewGenericERM: τ from the options or TauForLoss, any convex loss;
//   - NewNaiveRecompute: the naive baseline of Section 1, the same mechanism
//     with τ = 1 (a private re-solve on every prefix, the budget split over
//     all T steps, hence an extra ≈ √T factor in excess risk);
//   - NewMultiOutcome: the PRIMO-style engine, k least-squares outcomes over
//     one shared feature stream, the budget split per outcome first and per
//     boundary second, outcome i keyed by SubKey(key, i).
//
// The implementation amortizes the mechanism in two orthogonal ways:
//
//   - Sufficient statistics. When the loss satisfies loss.AsQuadratic (squared
//     loss, optionally ridge-regularized), the history is never retained:
//     clamped rows are folded four at a time into O(d²) moment statistics
//     (erm.MultiStats, one Gram matrix shared by the k outcomes), to the bits
//     of one rank-one update per row, and each τ-boundary solve runs over the statistics in O(d²·iterations) —
//     independent of the stream length. Checkpoints are O(d² + k·d) too.
//   - Lazy boundary solves. A solve scheduled at a τ boundary is deferred to
//     the next read of its outcome. The solve noise is counter-keyed (a pure
//     function of the outcome key, the invocation index k = t/τ, and the
//     iteration), so deferral — or outright skipping, when a later boundary
//     supersedes an unread one — produces the exact estimate sequence eager
//     execution would. Privacy is unaffected: the adversary observes at most
//     the same set of solve outputs, each computed on the same prefix with
//     the same per-call budget.
//
// Non-quadratic losses (single outcome only) fall back to retained history.
// Unbounded by default; GenericOptions.HistoryCap bounds retention with a ring
// buffer over the most recent points, in which case each boundary solve
// approximates the full-prefix solve by a sliding-window solve.
//
// The pending boundary is materialized only when the next row would destroy
// it and does not start a new boundary itself: the statistics are copied into
// a snapshot, the ring's window is solved on the spot, and the full history
// needs nothing (it keeps the prefix). With τ = 1 every row starts a new
// boundary, so nothing is ever copied or solved early.
type GenericERM struct {
	name    string
	f       loss.Function
	c       constraint.Set
	perCall dp.Params
	horizon int
	tau     int
	k       int

	batchOpts erm.PrivateBatchOptions
	key       int64
	// subKeys keys outcome i's solves by SubKey(key, i); otherwise the single
	// outcome solves under key itself.
	subKeys bool
	solver  *erm.Solver

	t int
	// pendInv is the invocation index t/τ of the last boundary reached
	// (0 = none yet). Outcome i is stale while solvedInv[i] < pendInv;
	// current[i] is its last published estimate.
	pendInv   uint64
	solvedInv []uint64
	current   []vec.Vector

	// Sufficient-statistics prefix: the live statistics and the pending
	// boundary's snapshot (nil when τ = 1, which never needs one).
	stats *erm.MultiStats
	snap  *erm.MultiStats

	// History prefix: the ring of the last historyCap points, or the full
	// clamped history when uncapped.
	historyCap int
	history    []loss.Point
	ring       *pointRing
	scratch    []loss.Point
}

// GenericOptions configures the PRIVINCERM engine.
type GenericOptions struct {
	// Tau is the recomputation period τ. When zero it is chosen automatically
	// from the loss's convexity properties via TauForLoss. NewNaiveRecompute
	// ignores it (τ = 1).
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

// checkArgs validates the arguments every PRIVINCERM constructor shares.
func checkArgs(f loss.Function, c constraint.Set, p dp.Params, horizon int, src *randx.Source) error {
	if f == nil || c == nil {
		return errors.New("core: nil loss or constraint set")
	}
	if horizon <= 0 {
		return fmt.Errorf("core: horizon must be positive, got %d", horizon)
	}
	if src == nil {
		return errors.New("core: nil randomness source")
	}
	return p.Validate()
}

// NewGenericERM returns Mechanism PRIVINCERM for the given loss, constraint
// set, total privacy budget and stream horizon T. The source seeds the
// mechanism's noise key (derived once at construction; the source itself is
// not retained).
func NewGenericERM(f loss.Function, c constraint.Set, p dp.Params, horizon int, src *randx.Source, opts GenericOptions) (*GenericERM, error) {
	if err := checkArgs(f, c, p, horizon, src); err != nil {
		return nil, err
	}
	tau := opts.Tau
	if tau <= 0 {
		tau = TauForLoss(f, c, horizon, p)
	}
	return newEngine("priv-inc-erm", f, c, 1, p, p, tau, horizon, src, opts)
}

// NewNaiveRecompute returns the naive recompute-every-step mechanism with
// stream horizon T: PRIVINCERM with τ = 1, so each timestep's estimate is a
// private solve over the whole prefix under a per-step budget split across
// all T steps. Its excess risk carries an extra ≈ √T factor relative to the
// batch bound, which experiment E5 demonstrates against NewGenericERM.
func NewNaiveRecompute(f loss.Function, c constraint.Set, p dp.Params, horizon int, src *randx.Source, opts GenericOptions) (*GenericERM, error) {
	if err := checkArgs(f, c, p, horizon, src); err != nil {
		return nil, err
	}
	return newEngine("naive-recompute", f, c, 1, p, p, 1, horizon, src, opts)
}

// NewMultiOutcome returns the multi-outcome engine for k least-squares
// outcomes over constraint set c with total budget p and stream horizon T.
// The total budget is split across the k outcomes by advanced composition,
// and each outcome's share across its T/τ boundary solves; outcome i's solves
// are keyed by SubKey(key, i). The source seeds the mechanism's noise key
// (derived once; the source is not retained).
func NewMultiOutcome(c constraint.Set, outcomes int, p dp.Params, horizon int, src *randx.Source, opts GenericOptions) (*GenericERM, error) {
	if outcomes < 1 {
		return nil, fmt.Errorf("core: outcome count must be at least 1, got %d", outcomes)
	}
	f := loss.Squared{}
	if err := checkArgs(f, c, p, horizon, src); err != nil {
		return nil, err
	}
	perOutcome, err := dp.PerInvocationAdvanced(p, outcomes)
	if err != nil {
		return nil, err
	}
	tau := opts.Tau
	if tau <= 0 {
		tau = TauForLoss(f, c, horizon, perOutcome)
	}
	g, err := newEngine("multi-outcome", f, c, outcomes, p, perOutcome, tau, horizon, src, opts)
	if err != nil {
		return nil, err
	}
	g.subKeys = true
	return g, nil
}

// newEngine builds the engine for k outcomes with period τ, splitting each
// outcome's budget perOutcome across its T/τ boundary solves.
func newEngine(name string, f loss.Function, c constraint.Set, k int, p, perOutcome dp.Params, tau, horizon int, src *randx.Source, opts GenericOptions) (*GenericERM, error) {
	tau = clampTau(tau, horizon)
	calls := horizon / tau
	if calls < 1 {
		calls = 1
	}
	perCall, err := dp.PerInvocationAdvanced(perOutcome, calls)
	if err != nil {
		return nil, err
	}
	d := c.Dim()
	g := &GenericERM{
		name:      name,
		f:         f,
		c:         c,
		perCall:   perCall,
		horizon:   horizon,
		tau:       tau,
		k:         k,
		batchOpts: opts.Batch,
		key:       src.DeriveKey(),
		solver:    erm.NewSolver(c),
		solvedInv: make([]uint64, k),
		current:   make([]vec.Vector, k),
	}
	for i := range g.current {
		g.current[i] = vec.NewVector(d)
		c.ProjectInto(g.current[i], g.current[i], nil)
	}
	if _, _, ok := loss.AsQuadratic(f); ok {
		g.stats = erm.NewMultiStats(d, k)
		if tau > 1 {
			g.snap = erm.NewMultiStats(d, k)
		}
	} else if opts.HistoryCap > 0 {
		g.historyCap = opts.HistoryCap
		g.ring = newPointRing(opts.HistoryCap, d)
		g.scratch = make([]loss.Point, 0, opts.HistoryCap)
	}
	return g, nil
}

// Name implements Estimator.
func (g *GenericERM) Name() string { return g.name }

// Outcomes returns k.
func (g *GenericERM) Outcomes() int { return g.k }

// Tau returns the recomputation period in use.
func (g *GenericERM) Tau() int { return g.tau }

// PerCallPrivacy returns the per-invocation budget handed to the batch solver.
func (g *GenericERM) PerCallPrivacy() dp.Params { return g.perCall }

// ObserveRows implements Estimator: rows×d covariates and rows×k responses,
// each row consuming one timestep of the shared horizon. The horizon check
// is hoisted so an oversized batch is rejected whole.
func (g *GenericERM) ObserveRows(xs, ys []float64) error {
	d := g.c.Dim()
	rows, err := batchRows(xs, ys, d, g.k)
	if err != nil {
		return err
	}
	if g.t+rows > g.horizon {
		return ErrStreamFull
	}
	if g.stats != nil {
		g.foldStats(xs, ys)
		return nil
	}
	for r := 0; r < rows; r++ {
		p := loss.Point{X: xs[r*d : (r+1)*d], Y: ys[r]}
		if g.ring == nil {
			g.history = append(g.history, clampPoint(p))
		} else {
			if g.mustKeepBoundary() {
				if err := g.refresh(0); err != nil {
					return err
				}
			}
			g.ring.push(p)
		}
		g.step()
	}
	return nil
}

// foldStats folds a batch into the statistics: each covariate clamped into
// the unit ball and each response into [-1, 1], straight into the
// statistics' row stage, which folds four rows at a time. Before a row that
// mustKeepBoundary flags, the staged rows fold and the statistics are copied
// into the snapshot.
func (g *GenericERM) foldStats(xs, ys []float64) {
	d := g.c.Dim()
	st := g.stats.Stage()
	for r := 0; r < len(ys)/g.k; r++ {
		if g.mustKeepBoundary() {
			st.Flush()
			g.snap.CopyFrom(g.stats)
		}
		x, yb := st.Next()
		clampInto(x, xs[r*d:(r+1)*d], 0)
		for i, y := range ys[r*g.k : (r+1)*g.k] {
			yb[i] = clampY(y)
		}
		g.step()
	}
	st.Release()
}

// step advances the stream by the row just taken. A τ boundary only
// advances pendInv; the solve waits for a read or for mustKeepBoundary.
func (g *GenericERM) step() {
	g.t++
	if g.t%g.tau == 0 {
		g.pendInv = uint64(g.t / g.tau)
	}
}

// mustKeepBoundary reports, before a row is taken, whether that row would
// destroy a pending boundary's live prefix without starting a new boundary
// itself. The boundary must then be materialized first: the statistics
// copied into the snapshot, or the ring's window solved now. The full
// history keeps the prefix and needs nothing.
func (g *GenericERM) mustKeepBoundary() bool {
	return g.t == int(g.pendInv)*g.tau && (g.t+1)%g.tau != 0 && g.pending()
}

// pending reports whether some outcome has not solved the last boundary.
func (g *GenericERM) pending() bool {
	for _, s := range g.solvedInv {
		if s < g.pendInv {
			return true
		}
	}
	return false
}

// outcomeKey is the noise key of outcome i's solves.
func (g *GenericERM) outcomeKey(i int) int64 {
	if g.subKeys {
		return randx.SubKey(g.key, uint64(i))
	}
	return g.key
}

// refresh runs outcome i's deferred solve of the pending boundary: over the
// live statistics while the boundary is still live and over the snapshot
// once rows have moved past it, over the ring's window, or over the history
// prefix up to the boundary.
func (g *GenericERM) refresh(i int) error {
	inv := g.pendInv
	var theta vec.Vector
	var err error
	switch {
	case g.stats != nil:
		stats := g.stats
		if g.t != int(inv)*g.tau {
			stats = g.snap
		}
		theta, err = g.solver.SolveStats(g.f, stats, i, g.perCall, g.outcomeKey(i), inv, g.batchOpts)
	case g.ring != nil:
		g.scratch = g.ring.appendTo(g.scratch[:0])
		theta, err = g.solver.SolveHistory(g.f, g.scratch, g.perCall, g.outcomeKey(i), inv, g.batchOpts)
	default:
		theta, err = g.solver.SolveHistory(g.f, g.history[:int(inv)*g.tau], g.perCall, g.outcomeKey(i), inv, g.batchOpts)
	}
	if err != nil {
		return err
	}
	g.current[i] = theta
	g.solvedInv[i] = inv
	return nil
}

// EstimateOutcome returns outcome i's current private estimate, running its
// deferred boundary solve first if it is stale. Because the solve is keyed by
// (outcome key, invocation index), the result is bit-identical to what an
// eager solve at the boundary would have produced, regardless of when — or
// in what outcome order — the estimates are read.
func (g *GenericERM) EstimateOutcome(i int) (vec.Vector, error) {
	if i < 0 || i >= g.k {
		return nil, fmt.Errorf("core: outcome index %d outside [0, %d)", i, g.k)
	}
	if g.solvedInv[i] < g.pendInv {
		if err := g.refresh(i); err != nil {
			return nil, err
		}
	}
	return g.current[i].Clone(), nil
}

// Estimate implements Estimator: outcome 0's estimate.
func (g *GenericERM) Estimate() (vec.Vector, error) { return g.EstimateOutcome(0) }

// Len implements Estimator: the number of rows observed (each row carries k
// responses but consumes one timestep of the shared horizon).
func (g *GenericERM) Len() int { return g.t }

// StateBytes reports the retained per-stream memory of the mechanism: the
// live and snapshot statistics, or the retained history buffers, plus the k
// memoized estimates. The serving pool surfaces the aggregate in PoolStats.
func (g *GenericERM) StateBytes() int {
	b := 0
	for _, cur := range g.current {
		b += 8 * len(cur)
	}
	switch {
	case g.stats != nil:
		b += g.stats.Bytes()
		if g.snap != nil {
			b += g.snap.Bytes()
		}
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
