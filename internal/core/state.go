package core

import (
	"errors"
	"fmt"

	"privreg/internal/codec"
	"privreg/internal/loss"
	"privreg/internal/sketch"
	"privreg/internal/vec"
)

// This file implements checkpoint/restore for every mechanism in the package.
//
// The contract (documented on Estimator.MarshalBinary) is construct-then-
// restore: a checkpoint captures only the *mutable* state of a mechanism —
// observation counts, private accumulators, warm-start iterates, randomness
// positions — while the immutable structure (constraint set, loss, privacy
// budget, horizon, options) is re-created by constructing an estimator with
// the same configuration before calling UnmarshalBinary. Structural values
// embedded in each blob (mechanism name, dimensions, horizon) are verified on
// restore so a configuration mismatch fails loudly instead of corrupting
// state. Randomness positions are (seed, draw-count) pairs (randx.State), so a
// restored mechanism draws exactly the noise the uninterrupted run would have.

// coreStateVersion is the checkpoint format version of TrivialConstant.
// Version 2 accompanies the counter-keyed v2 formats of the continual-sum
// blobs; version-1 blobs are rejected at the version byte rather than
// misparsed.
const coreStateVersion = 2

// regStateVersion is the checkpoint format version of the regression
// mechanisms GradientRegression, ProjectedRegression and
// RobustProjectedRegression. Version 3 carries the second-moment tree over
// svec(x xᵀ), d(d+1)/2 floats per level. Version-2 blobs, whose second-moment
// tree ran over the dense d² outer product, are rejected at the version byte
// rather than migrated.
const regStateVersion = 3

// slowStateVersion is the checkpoint format version of every mechanism backed
// by erm.MultiStats: the PRIVINCERM engine (generic-erm, naive-recompute,
// multi-outcome) and NonPrivateIncremental. Version 4 is the one-engine
// format: k outcomes with a solved-invocation watermark each, one pending
// boundary, and a snapshot only when rows have moved past an unsolved
// boundary. Older blobs — version-3 slow-path, version-1 multi-outcome and
// version-2 nonprivate ones — are rejected at the version byte rather than
// misparsed.
const slowStateVersion = 4

func writeHistory(w *codec.Writer, history []loss.Point) {
	w.Int(len(history))
	for _, p := range history {
		w.F64s(p.X)
		w.F64(p.Y)
	}
}

func readHistory(r *codec.Reader, dim, maxLen int) []loss.Point {
	n := r.Int()
	if r.Err() != nil {
		return nil
	}
	if n < 0 || n > maxLen {
		r.Fail(fmt.Errorf("core: checkpoint history length %d outside [0, %d]", n, maxLen))
		return nil
	}
	out := make([]loss.Point, 0, n)
	for i := 0; i < n; i++ {
		x := r.F64s()
		y := r.F64()
		if r.Err() != nil {
			return nil
		}
		if len(x) != dim {
			r.Fail(fmt.Errorf("core: checkpoint history element %d has dimension %d, want %d", i, len(x), dim))
			return nil
		}
		out = append(out, loss.Point{X: vec.Vector(x), Y: y})
	}
	return out
}

// --- TrivialConstant ---

// MarshalBinary implements Estimator: the only mutable state is the count.
func (t *TrivialConstant) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.Version(coreStateVersion)
	w.String(t.Name())
	w.Int(t.n)
	return w.Bytes(), nil
}

// UnmarshalBinary implements Estimator.
func (t *TrivialConstant) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	r.Version(coreStateVersion)
	r.ExpectString("mechanism", t.Name())
	n := r.Int()
	if err := r.Finish(); err != nil {
		return err
	}
	if n < 0 {
		return errors.New("core: corrupt checkpoint (negative count)")
	}
	t.n = n
	return nil
}

// --- NonPrivateIncremental ---

// MarshalBinary implements Estimator: the sufficient statistics are the state.
func (n *NonPrivateIncremental) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.Version(slowStateVersion)
	w.String(n.Name())
	blob, err := n.stats.MarshalState()
	if err != nil {
		return nil, err
	}
	w.Blob(blob)
	return w.Bytes(), nil
}

// UnmarshalBinary implements Estimator. The solution memo is not part of the
// checkpoint; the next Estimate recomputes it (deterministically) from the
// restored statistics.
func (n *NonPrivateIncremental) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	r.Version(slowStateVersion)
	r.ExpectString("mechanism", n.Name())
	blob := r.Blob()
	if err := r.Finish(); err != nil {
		return err
	}
	n.sol, n.solN = nil, -1
	return n.stats.UnmarshalState(blob)
}

// --- GenericERM ---

// MarshalBinary implements Estimator: the noise key, the row count, the
// pending boundary, each outcome's memoized estimate and solved-invocation
// watermark, the prefix representation (O(d² + k·d) statistics blob, window,
// or full history), and — when rows have moved past a boundary some outcome
// has not solved — the boundary's snapshot. Serializing the snapshot instead
// of resolving it keeps Marshal read-only; the restored mechanism runs the
// solve at its next read with the same key and invocation index, producing
// the bits the uninterrupted run would.
func (g *GenericERM) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.Version(slowStateVersion)
	w.String(g.name)
	w.Int(g.c.Dim())
	w.Int(g.horizon)
	w.Int(g.tau)
	w.Int(g.k)
	w.Int(g.historyCap)
	w.Bool(g.stats != nil)
	w.I64(g.key)
	w.Int(g.t)
	w.U64(g.pendInv)
	for i := range g.current {
		w.F64s(g.current[i])
		w.U64(g.solvedInv[i])
	}
	switch {
	case g.stats != nil:
		blob, err := g.stats.MarshalState()
		if err != nil {
			return nil, err
		}
		w.Blob(blob)
		snap := g.pending() && g.t != int(g.pendInv)*g.tau
		w.Bool(snap)
		if snap {
			blob, err := g.snap.MarshalState()
			if err != nil {
				return nil, err
			}
			w.Blob(blob)
		}
	case g.ring != nil:
		writeHistory(&w, g.ring.appendTo(nil))
	default:
		writeHistory(&w, g.history)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements Estimator. The noise key travels in the
// checkpoint (like the sketch spec of ProjectedRegression), so a mechanism
// restored under a different seed still continues bit-identically. The
// pending boundary must match the stream: a boundary past t/τ, a watermark
// past the boundary, or a snapshot of the wrong prefix would make a later
// solve reuse an invocation's noise key on different data, so each is
// rejected.
func (g *GenericERM) UnmarshalBinary(data []byte) error {
	d := g.c.Dim()
	r := codec.NewReader(data)
	r.Version(slowStateVersion)
	r.ExpectString("mechanism", g.name)
	r.ExpectInt("dimension", d)
	r.ExpectInt("horizon", g.horizon)
	r.ExpectInt("recomputation period", g.tau)
	r.ExpectInt("outcome count", g.k)
	r.ExpectInt("history cap", g.historyCap)
	quad := r.Bool()
	key := r.I64()
	t := r.Int()
	pendInv := r.U64()
	current := make([]vec.Vector, g.k)
	solved := make([]uint64, g.k)
	for i := range current {
		current[i] = r.F64s()
		solved[i] = r.U64()
	}
	if r.Err() == nil && quad != (g.stats != nil) {
		return errors.New("core: checkpoint storage mode does not match the configured loss")
	}
	var statsBlob, snapBlob []byte
	var points []loss.Point
	hasSnap := false
	switch {
	case g.stats != nil:
		statsBlob = r.Blob()
		if hasSnap = r.Bool(); hasSnap {
			snapBlob = r.Blob()
		}
	case g.ring != nil:
		points = readHistory(r, d, g.historyCap)
	default:
		points = readHistory(r, d, g.horizon)
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if t < 0 || t > g.horizon {
		return errors.New("core: corrupt checkpoint")
	}
	if pendInv != uint64(t/g.tau) {
		return fmt.Errorf("core: corrupt checkpoint: pending boundary %d is not the stream's last boundary %d", pendInv, t/g.tau)
	}
	pending := false
	for i := range current {
		if len(current[i]) != d {
			return errors.New("core: corrupt checkpoint")
		}
		if solved[i] > pendInv {
			return fmt.Errorf("core: corrupt checkpoint: outcome %d solved invocation %d past the pending boundary %d", i, solved[i], pendInv)
		}
		pending = pending || solved[i] < pendInv
	}
	boundary := int(pendInv) * g.tau
	if pending && t != boundary && !hasSnap && (g.stats != nil || g.ring != nil) {
		return fmt.Errorf("core: corrupt checkpoint: pending boundary %d at t=%d has no snapshot", pendInv, t)
	}
	switch {
	case g.stats != nil:
		if err := g.stats.UnmarshalState(statsBlob); err != nil {
			return err
		}
		if g.stats.Len() != t {
			return errors.New("core: checkpoint statistics count disagrees with timestep")
		}
		if hasSnap {
			if !pending || t == boundary {
				return errors.New("core: corrupt checkpoint: snapshot without a superseded pending boundary")
			}
			if err := g.snap.UnmarshalState(snapBlob); err != nil {
				return err
			}
			if g.snap.Len() != boundary {
				return fmt.Errorf("core: corrupt checkpoint: boundary snapshot holds %d rows, boundary %d needs %d", g.snap.Len(), pendInv, boundary)
			}
		}
	case g.ring != nil:
		if len(points) != minInt(t, g.historyCap) {
			return errors.New("core: corrupt checkpoint")
		}
		g.ring = newPointRing(g.historyCap, d)
		for _, p := range points {
			g.ring.push(p)
		}
	default:
		if len(points) != t {
			return errors.New("core: corrupt checkpoint")
		}
		g.history = points
	}
	g.key = key
	g.t = t
	g.pendInv = pendInv
	g.current = current
	g.solvedInv = solved
	return nil
}

// minInt is the smaller of two ints.
func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- GradientRegression ---

// MarshalBinary implements Estimator: both Tree Mechanism states (which carry
// their own noise keys) plus the warm-start iterate and the estimate memo.
// The memo must travel with the checkpoint: with warm starts enabled a cache
// hit returns the memo while a memo-less restored instance would re-run the
// optimizer from the serialized warm-start iterate — a different (if equally
// valid) vector, breaking restore-vs-uninterrupted bit-identity for repeated
// same-timestep estimates.
func (g *GradientRegression) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.Version(regStateVersion)
	w.String(g.Name())
	w.Int(g.d)
	w.Int(g.horizon)
	w.Int(g.n)
	w.F64s(g.prev)
	w.Int(g.estN)
	w.F64s(g.estCache)
	xy, err := g.sumXY.MarshalState()
	if err != nil {
		return nil, err
	}
	w.Blob(xy)
	xxt, err := g.sumXXT.MarshalState()
	if err != nil {
		return nil, err
	}
	w.Blob(xxt)
	return w.Bytes(), nil
}

// UnmarshalBinary implements Estimator.
func (g *GradientRegression) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	r.Version(regStateVersion)
	r.ExpectString("mechanism", g.Name())
	r.ExpectInt("dimension", g.d)
	r.ExpectInt("horizon", g.horizon)
	n := r.Int()
	prev := r.F64s()
	estN := r.Int()
	estCache := r.F64s()
	xy := r.Blob()
	xxt := r.Blob()
	if err := r.Finish(); err != nil {
		return err
	}
	if n < 0 || len(prev) != g.d {
		return errors.New("core: corrupt checkpoint")
	}
	if len(estCache) != 0 && (len(estCache) != g.d || estN < 0 || estN > n) {
		return errors.New("core: corrupt checkpoint estimate memo")
	}
	if err := g.sumXY.UnmarshalState(xy); err != nil {
		return fmt.Errorf("core: restoring first-moment sum: %w", err)
	}
	if err := g.sumXXT.UnmarshalState(xxt); err != nil {
		return fmt.Errorf("core: restoring second-moment sum: %w", err)
	}
	g.n = n
	g.prev = vec.Vector(prev)
	if len(estCache) == 0 {
		g.estCache = nil
		g.estN = -1
	} else {
		g.estCache = vec.Vector(estCache)
		g.estN = estN
	}
	return nil
}

// --- ProjectedRegression ---

// MarshalBinary implements Estimator: the sketch spec (backend + shape + seed,
// the transform's entire serializable state), both projected-space Tree
// Mechanism states, the warm-start iterates in both spaces, and the estimate
// memo (required for bit-identity of repeated same-timestep estimates across
// a restore; see GradientRegression.MarshalBinary).
func (r *ProjectedRegression) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.Version(regStateVersion)
	w.String(r.Name())
	w.Int(r.d)
	w.Int(r.m)
	w.Int(r.horizon)
	w.Int(int(r.sketchSpec.Backend))
	w.I64(r.sketchSpec.Seed)
	w.Int(r.n)
	w.F64s(r.prevProj)
	w.F64s(r.prevLift)
	w.Int(r.estN)
	w.F64s(r.estCache)
	xy, err := r.sumXY.MarshalState()
	if err != nil {
		return nil, err
	}
	w.Blob(xy)
	xxt, err := r.sumXXT.MarshalState()
	if err != nil {
		return nil, err
	}
	w.Blob(xxt)
	return w.Bytes(), nil
}

// UnmarshalBinary implements Estimator. When the checkpointed sketch spec
// differs from the constructed one (an estimator restored under a different
// seed), the transform — and, when it depends on the transform, the projected
// optimization domain — is rebuilt from the spec so the restored mechanism
// projects covariates exactly as the checkpointed one did.
func (r *ProjectedRegression) UnmarshalBinary(data []byte) error {
	rd := codec.NewReader(data)
	rd.Version(regStateVersion)
	rd.ExpectString("mechanism", r.Name())
	rd.ExpectInt("dimension", r.d)
	rd.ExpectInt("projection dimension", r.m)
	rd.ExpectInt("horizon", r.horizon)
	spec := sketch.Spec{
		Backend:   sketch.Backend(rd.Int()),
		OutputDim: r.m,
		InputDim:  r.d,
		Seed:      rd.I64(),
	}
	n := rd.Int()
	prevProj := rd.F64s()
	prevLift := rd.F64s()
	estN := rd.Int()
	estCache := rd.F64s()
	xy := rd.Blob()
	xxt := rd.Blob()
	if err := rd.Finish(); err != nil {
		return err
	}
	if n < 0 || len(prevProj) != r.m || len(prevLift) != r.d {
		return errors.New("core: corrupt checkpoint")
	}
	if len(estCache) != 0 && (len(estCache) != r.d || estN < 0 || estN > n) {
		return errors.New("core: corrupt checkpoint estimate memo")
	}
	if spec != r.sketchSpec {
		projector, err := spec.New()
		if err != nil {
			return fmt.Errorf("core: rebuilding sketch from checkpoint spec: %w", err)
		}
		r.projector = projector
		r.sketchSpec = spec
		if r.opts.ExactImage {
			// The optimization domain — and the gradient-error scale derived
			// from its diameter — follow the rebuilt transform, so the restored
			// estimator optimizes exactly as the checkpointed one did.
			r.projSet = projector.ImageSet(r.c, r.gamma)
			r.gradErr = r.gradientErrorScale()
		}
	}
	if err := r.sumXY.UnmarshalState(xy); err != nil {
		return fmt.Errorf("core: restoring first-moment sum: %w", err)
	}
	if err := r.sumXXT.UnmarshalState(xxt); err != nil {
		return fmt.Errorf("core: restoring second-moment sum: %w", err)
	}
	r.n = n
	r.prevProj = vec.Vector(prevProj)
	r.prevLift = vec.Vector(prevLift)
	if len(estCache) == 0 {
		r.estCache = nil
		r.estN = -1
	} else {
		r.estCache = vec.Vector(estCache)
		r.estN = estN
	}
	return nil
}

// --- RobustProjectedRegression ---

// MarshalBinary implements Estimator: the inner mechanism's checkpoint plus
// the dropped-point count. The oracle is code, not state; the restoring
// instance supplies its own.
func (r *RobustProjectedRegression) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.Version(regStateVersion)
	w.String(r.Name())
	inner, err := r.inner.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(inner)
	w.Int(r.dropped)
	return w.Bytes(), nil
}

// UnmarshalBinary implements Estimator.
func (r *RobustProjectedRegression) UnmarshalBinary(data []byte) error {
	rd := codec.NewReader(data)
	rd.Version(regStateVersion)
	rd.ExpectString("mechanism", r.Name())
	inner := rd.Blob()
	dropped := rd.Int()
	if err := rd.Finish(); err != nil {
		return err
	}
	if dropped < 0 {
		return errors.New("core: corrupt checkpoint (negative dropped count)")
	}
	if err := r.inner.UnmarshalBinary(inner); err != nil {
		return err
	}
	r.dropped = dropped
	return nil
}
