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
// The contract (documented on Estimator.AppendState) is construct-then-
// restore: a checkpoint captures only the *mutable* state of a mechanism —
// observation counts, private accumulators, warm-start iterates, randomness
// positions — while the immutable structure (constraint set, loss, privacy
// budget, horizon, options) is re-created by constructing an estimator with
// the same configuration before calling UnmarshalBinary. Structural values
// embedded in each blob (mechanism name, dimensions, horizon) are verified on
// restore so a configuration mismatch fails loudly instead of corrupting
// state. Noise is counter-keyed — a pure function of a key the checkpoint
// carries and a node or timestep index — so a restored mechanism draws exactly
// the noise the uninterrupted run would have.

// regStateVersion is the checkpoint format version of the regression
// mechanisms GradientRegression and ProjectedRegression (with or without a
// domain oracle). Version 4 is the one-core format: a header, then the
// private-moment core's section over the svec(v vᵀ) second-moment tree. A
// version-4 gradient blob is laid out as version 3 was; a projected one no
// longer carries the lifted iterate, and the robust variant's dropped count
// sits in its header instead of wrapping a nested projected blob. Version-3
// and version-2 blobs (the latter with a dense d² second-moment tree) are
// rejected at the version byte rather than migrated.
const regStateVersion = 4

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

// --- NonPrivateIncremental ---

// AppendState implements Estimator: the sufficient statistics are the state.
func (n *NonPrivateIncremental) AppendState(w *codec.Writer) {
	w.Version(slowStateVersion)
	w.String(n.Name())
	w.Nested(n.stats)
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

// AppendState implements Estimator: the noise key, the row count, the
// pending boundary, each outcome's memoized estimate and solved-invocation
// watermark, the prefix representation (O(d² + k·d) statistics blob, window,
// or full history), and — when rows have moved past a boundary some outcome
// has not solved — the boundary's snapshot. Serializing the snapshot instead
// of resolving it keeps Marshal read-only; the restored mechanism runs the
// solve at its next read with the same key and invocation index, producing
// the bits the uninterrupted run would.
func (g *GenericERM) AppendState(w *codec.Writer) {
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
		w.Nested(g.stats)
		snap := g.pending() && g.t != int(g.pendInv)*g.tau
		w.Bool(snap)
		if snap {
			w.Nested(g.snap)
		}
	case g.ring != nil:
		writeHistory(w, g.ring.appendTo(nil))
	default:
		writeHistory(w, g.history)
	}
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
		if len(points) != min(t, g.historyCap) {
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

// --- GradientRegression ---

// AppendState implements Estimator: the header and the private-moment
// core's section (see privateMoments.appendMoments).
func (g *GradientRegression) AppendState(w *codec.Writer) {
	w.Version(regStateVersion)
	w.String(g.Name())
	w.Int(g.inDim)
	w.Int(g.horizon)
	g.appendMoments(w)
}

// UnmarshalBinary implements Estimator.
func (g *GradientRegression) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	r.Version(regStateVersion)
	r.ExpectString("mechanism", g.Name())
	r.ExpectInt("dimension", g.inDim)
	r.ExpectInt("horizon", g.horizon)
	s := readMoments(r)
	if err := r.Finish(); err != nil {
		return err
	}
	return g.restore(s)
}

// --- ProjectedRegression ---

// AppendState implements Estimator: the sketch spec (backend + shape + seed,
// the transform's entire serializable state), the oracle's dropped-point
// count, and the private-moment core's section in the projected space. The
// oracle is code, not state; the restoring instance supplies its own.
func (r *ProjectedRegression) AppendState(w *codec.Writer) {
	w.Version(regStateVersion)
	w.String(r.Name())
	w.Int(r.inDim)
	w.Int(r.m)
	w.Int(r.horizon)
	w.Int(int(r.sketchSpec.Backend))
	w.I64(r.sketchSpec.Seed)
	w.Int(r.dropped)
	r.appendMoments(w)
}

// UnmarshalBinary implements Estimator. When the checkpointed sketch spec
// differs from the constructed one (an estimator restored under a different
// seed), the transform — and, when it depends on the transform, the projected
// optimization domain with the gradient-error scale derived from its
// diameter — is rebuilt from the spec, so the restored mechanism projects
// covariates and optimizes exactly as the checkpointed one did.
func (r *ProjectedRegression) UnmarshalBinary(data []byte) error {
	rd := codec.NewReader(data)
	rd.Version(regStateVersion)
	rd.ExpectString("mechanism", r.Name())
	rd.ExpectInt("dimension", r.inDim)
	rd.ExpectInt("projection dimension", r.m)
	rd.ExpectInt("horizon", r.horizon)
	spec := sketch.Spec{
		Backend:   sketch.Backend(rd.Int()),
		OutputDim: r.m,
		InputDim:  r.inDim,
		Seed:      rd.I64(),
	}
	dropped := rd.Int()
	s := readMoments(rd)
	if err := rd.Finish(); err != nil {
		return err
	}
	if dropped < 0 || dropped > s.n {
		return errors.New("core: corrupt checkpoint (dropped count outside [0, n])")
	}
	projector := r.projector
	if spec != r.sketchSpec {
		var err error
		if projector, err = spec.New(); err != nil {
			return fmt.Errorf("core: rebuilding sketch from checkpoint spec: %w", err)
		}
	}
	if err := r.restore(s); err != nil {
		return err
	}
	if spec != r.sketchSpec {
		r.projector, r.sketchSpec = projector, spec
		r.setDomain(r.projectedDomain(projector))
	}
	r.dropped = dropped
	return nil
}
