package core

import (
	"strings"
	"testing"

	"privreg/internal/codec"
	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// This file is the audit of the amortized slow-path engine: an independent
// reference implementation recomputes every estimate from scratch — clamped
// raw-point log, fresh sufficient statistics or history slice, one keyed solve
// with the invocation index the mechanism should have used — and a property
// test drives generic-erm and naive-recompute through randomly interleaved
// one-row/multi-row ObserveRows/Estimate/checkpoint/restore sequences, requiring
// bit-identical agreement at every read. A stale memo, a mis-keyed deferred
// solve, a ring that evicts the wrong point, or a checkpoint that drops the
// pending snapshot all show up as exact mismatches.

// slowVariant is one mechanism × loss × retention configuration under audit.
type slowVariant struct {
	name  string
	f     loss.Function
	cap   int
	naive bool
}

func slowVariants() []slowVariant {
	return []slowVariant{
		{"generic-quadratic", loss.Squared{}, 0, false},
		{"generic-ridge", loss.L2Regularized{Base: loss.Squared{}, Lambda: 0.1}, 0, false},
		{"generic-logistic", loss.Logistic{}, 0, false},
		{"generic-logistic-capped", loss.Logistic{}, 12, false},
		{"naive-quadratic", loss.Squared{}, 0, true},
		{"naive-logistic", loss.Logistic{}, 0, true},
		{"naive-logistic-capped", loss.Logistic{}, 12, true},
	}
}

const (
	slowDim     = 3
	slowHorizon = 48
	slowTau     = 8
)

func slowBatchOpts() erm.PrivateBatchOptions { return erm.PrivateBatchOptions{Iterations: 12} }

func buildSlow(t *testing.T, v slowVariant, cons constraint.Set, seed int64) Estimator {
	t.Helper()
	if v.naive {
		mech, err := NewNaiveRecompute(v.f, cons, privacy(), slowHorizon, randx.NewSource(seed),
			GenericOptions{Batch: slowBatchOpts(), HistoryCap: v.cap})
		if err != nil {
			t.Fatal(err)
		}
		return mech
	}
	mech, err := NewGenericERM(v.f, cons, privacy(), slowHorizon, randx.NewSource(seed),
		GenericOptions{Tau: slowTau, Batch: slowBatchOpts(), HistoryCap: v.cap})
	if err != nil {
		t.Fatal(err)
	}
	return mech
}

// refSlowEstimate recomputes, from first principles, the estimate the
// mechanism must publish after t observations: pick the invocation index the
// mechanism's schedule assigns to time t (the last τ boundary for GenericERM,
// t itself for naive-recompute), take the corresponding clamped prefix (or its
// trailing window under a history cap), and run one keyed solve over it —
// through freshly folded sufficient statistics when the loss is quadratic,
// through the raw points otherwise.
func refSlowEstimate(t *testing.T, v slowVariant, cons constraint.Set, clamped []loss.Point, n int, key int64, per dp.Params) vec.Vector {
	t.Helper()
	var inv int
	if v.naive {
		inv = n
	} else {
		inv = n / slowTau
	}
	if inv == 0 {
		origin := vec.NewVector(cons.Dim())
		cons.ProjectInto(origin, origin, nil)
		return origin
	}
	prefixLen := inv
	if !v.naive {
		prefixLen = inv * slowTau
	}
	prefix := clamped[:prefixLen]
	if v.cap > 0 && len(prefix) > v.cap {
		prefix = prefix[len(prefix)-v.cap:]
	}
	if _, _, ok := loss.AsQuadratic(v.f); ok {
		stats := erm.NewMultiStats(cons.Dim(), 1)
		for _, p := range prefix {
			stats.AddRows(p.X, []float64{p.Y})
		}
		theta, err := erm.NewSolver(cons).SolveStats(v.f, stats, 0, per, key, uint64(inv), slowBatchOpts())
		if err != nil {
			t.Fatal(err)
		}
		return theta
	}
	theta, err := erm.NewSolver(cons).SolveHistory(v.f, prefix, per, key, uint64(inv), slowBatchOpts())
	if err != nil {
		t.Fatal(err)
	}
	return theta
}

// perBudget recomputes the per-solve budget the mechanism derives at
// construction.
func perBudget(t *testing.T, v slowVariant) dp.Params {
	t.Helper()
	calls := slowHorizon
	if !v.naive {
		calls = slowHorizon / slowTau
	}
	per, err := dp.PerInvocationAdvanced(privacy(), calls)
	if err != nil {
		t.Fatal(err)
	}
	return per
}

// TestSlowPathInterleavedOpsMatchReference drives random interleavings of
// scalar observes, batch observes, estimate reads, and mid-stream checkpoint/
// restore (into instances built with different seeds) and requires every
// published estimate to equal the reference bit-for-bit. Deferred τ-boundary
// solves, superseded-and-skipped solves, dirty-flag staleness, ring eviction,
// and pending-snapshot serialization are all exercised by the interleaving.
func TestSlowPathInterleavedOpsMatchReference(t *testing.T) {
	for _, v := range slowVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cons := constraint.NewL2Ball(slowDim, 1)
			per := perBudget(t, v)
			for trial := 0; trial < 4; trial++ {
				seed := int64(100*trial + 7)
				key := randx.NewSource(seed).DeriveKey()
				mech := buildSlow(t, v, cons, seed)
				driver := randx.NewSource(int64(5000*trial + 31))
				var clamped []loss.Point

				nextPoint := func() loss.Point {
					x := vec.Vector(driver.NormalVector(slowDim, 0.8))
					y := driver.Normal(0, 0.7)
					return loss.Point{X: x, Y: y}
				}
				check := func(label string) {
					t.Helper()
					got, err := mech.Estimate()
					if err != nil {
						t.Fatal(err)
					}
					want := refSlowEstimate(t, v, cons, clamped, len(clamped), key, per)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d %s at t=%d coord %d: mechanism %v != reference %v",
								trial, label, len(clamped), i, got[i], want[i])
						}
					}
				}

				for len(clamped) < slowHorizon {
					switch driver.Intn(6) {
					case 0, 1: // one-row observe, estimate unread
						p := nextPoint()
						clamped = append(clamped, clampPoint(p))
						if err := observe(mech, p); err != nil {
							t.Fatal(err)
						}
					case 2: // batch observe crossing (possibly several) boundaries
						n := 1 + driver.Intn(10)
						if room := slowHorizon - len(clamped); n > room {
							n = room
						}
						ps := make([]loss.Point, n)
						for i := range ps {
							ps[i] = nextPoint()
							clamped = append(clamped, clampPoint(ps[i]))
						}
						if err := observePoints(mech, ps); err != nil {
							t.Fatal(err)
						}
					case 3: // estimate read
						check("Estimate")
					case 4: // repeated read: the memo must hold
						check("Estimate")
						check("repeat Estimate")
					case 5: // checkpoint, restore into a differently seeded instance
						blob := codec.Encode(mech)
						restored := buildSlow(t, v, cons, seed+9000)
						if err := restored.UnmarshalBinary(blob); err != nil {
							t.Fatal(err)
						}
						mech = restored
						check("post-restore Estimate")
					}
				}
				check("final Estimate")
				if mech.Len() != slowHorizon {
					t.Fatalf("Len = %d, want %d", mech.Len(), slowHorizon)
				}
			}
		})
	}
}

// TestSlowPathCheckpointSizeConstantForQuadratic pins the tentpole memory
// claim: on the sufficient-statistics path the checkpoint is O(d²) and must
// not grow with the stream, while a logistic (history-backed) GenericERM grows
// linearly and a capped one stops growing at the cap.
func TestSlowPathCheckpointSizeConstantForQuadratic(t *testing.T) {
	cons := constraint.NewL2Ball(slowDim, 1)
	sizeAt := func(v slowVariant, n int) int {
		mech := buildSlow(t, v, cons, 3)
		driver := randx.NewSource(77)
		for i := 0; i < n; i++ {
			p := loss.Point{X: vec.Vector(driver.NormalVector(slowDim, 0.5)), Y: driver.Normal(0, 0.5)}
			if err := observe(mech, p); err != nil {
				t.Fatal(err)
			}
		}
		blob := codec.Encode(mech)
		return len(blob)
	}
	for _, v := range []slowVariant{
		{"generic-quadratic", loss.Squared{}, 0, false},
		{"naive-quadratic", loss.Squared{}, 0, true},
	} {
		small, large := sizeAt(v, slowTau), sizeAt(v, slowHorizon)
		if small != large {
			t.Fatalf("%s: checkpoint grew with the stream: %d -> %d bytes", v.name, small, large)
		}
	}
	uncapped := slowVariant{"generic-logistic", loss.Logistic{}, 0, false}
	if small, large := sizeAt(uncapped, slowTau), sizeAt(uncapped, slowHorizon); small >= large {
		t.Fatalf("history-backed checkpoint should grow: %d -> %d bytes", small, large)
	}
	capped := slowVariant{"generic-logistic-capped", loss.Logistic{}, 12, false}
	if at2cap, atHorizon := sizeAt(capped, 24), sizeAt(capped, slowHorizon); at2cap != atHorizon {
		t.Fatalf("capped checkpoint should stop growing at the cap: %d -> %d bytes", at2cap, atHorizon)
	}
}

// TestSlowPathStateBytes sanity-checks the retained-memory accounting: the
// quadratic paths stay flat as the stream grows, the uncapped history path
// grows, and the capped path is bounded by the ring allocation.
func TestSlowPathStateBytes(t *testing.T) {
	cons := constraint.NewL2Ball(slowDim, 1)
	grow := func(v slowVariant, n int) int {
		mech := buildSlow(t, v, cons, 3)
		sb, ok := mech.(interface{ StateBytes() int })
		if !ok {
			t.Fatalf("%s does not report StateBytes", v.name)
		}
		driver := randx.NewSource(78)
		for i := 0; i < n; i++ {
			p := loss.Point{X: vec.Vector(driver.NormalVector(slowDim, 0.5)), Y: driver.Normal(0, 0.5)}
			if err := observe(mech, p); err != nil {
				t.Fatal(err)
			}
		}
		return sb.StateBytes()
	}
	quad := slowVariant{"generic-quadratic", loss.Squared{}, 0, false}
	if a, b := grow(quad, 8), grow(quad, slowHorizon); a != b || a == 0 {
		t.Fatalf("quadratic StateBytes should be positive and flat: %d -> %d", a, b)
	}
	hist := slowVariant{"naive-logistic", loss.Logistic{}, 0, true}
	if a, b := grow(hist, 8), grow(hist, slowHorizon); a >= b {
		t.Fatalf("history StateBytes should grow: %d -> %d", a, b)
	}
	capped := slowVariant{"naive-logistic-capped", loss.Logistic{}, 12, true}
	if a, b := grow(capped, 24), grow(capped, slowHorizon); a != b {
		t.Fatalf("capped StateBytes should be flat past the cap: %d -> %d", a, b)
	}
}

// TestSlowPathRejectsOldCheckpointVersion pins the format bumps: blobs of
// every earlier format of the MultiStats-backed mechanisms — the version-2
// pre-amortization slow path, the version-3 two-engine slow path, the
// version-1 multi-outcome engine and the version-2 nonprivate baseline — must
// be rejected at the version byte. The old formats are rebuilt field by
// field; an old single-outcome statistics blob with n = 1 would otherwise
// parse as a MultiStats blob with k = 1.
func TestSlowPathRejectsOldCheckpointVersion(t *testing.T) {
	cons := constraint.NewL2Ball(slowDim, 1)
	oldQuadStats := func(w *codec.Writer) {
		var s codec.Writer
		s.Version(1)
		s.Int(slowDim)
		s.Int(1)
		s.F64s(make([]float64, slowDim*(slowDim+1)/2))
		s.F64s(make([]float64, slowDim))
		s.F64(0)
		w.Blob(s.Bytes())
	}
	multi, err := NewMultiOutcome(cons, 1, privacy(), slowHorizon, randx.NewSource(5),
		GenericOptions{Tau: slowTau, Batch: slowBatchOpts()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mech Estimator
		blob func(w *codec.Writer)
	}{
		{"generic-v2", buildSlow(t, slowVariant{"generic", loss.Squared{}, 0, false}, cons, 5), func(w *codec.Writer) {
			w.Version(2)
			w.String("priv-inc-erm")
		}},
		{"naive-v2", buildSlow(t, slowVariant{"naive", loss.Squared{}, 0, true}, cons, 5), func(w *codec.Writer) {
			w.Version(2)
			w.String("naive-recompute")
		}},
		{"generic-v3", buildSlow(t, slowVariant{"generic", loss.Squared{}, 0, false}, cons, 5), func(w *codec.Writer) {
			w.Version(3)
			w.String("priv-inc-erm")
			w.Int(slowDim)
			w.Int(slowHorizon)
			w.Int(slowTau)
			w.Int(0)
			w.Bool(true)
			w.I64(1)
			w.Int(1)
			w.F64s(make([]float64, slowDim))
			oldQuadStats(w)
			w.Bool(false)
		}},
		{"multi-outcome-v1", multi, func(w *codec.Writer) {
			w.Version(1)
			w.String("multi-outcome")
			w.Int(slowDim)
			w.Int(slowHorizon)
			w.Int(slowTau)
			w.Int(1)
			w.I64(1)
			w.Int(0)
			w.F64s(make([]float64, slowDim))
			w.U64(0)
			stats := codec.Encode(erm.NewMultiStats(slowDim, 1))
			w.Blob(stats)
			w.U64(0)
		}},
		{"nonprivate-v2", NewNonPrivateIncremental(cons, 0), func(w *codec.Writer) {
			w.Version(2)
			w.String("exact-incremental")
			var ls codec.Writer
			ls.Version(1)
			ls.Int(slowDim)
			ls.Int(1)
			ls.F64s(make([]float64, slowDim*slowDim))
			ls.F64s(make([]float64, slowDim))
			ls.F64(0)
			w.Blob(ls.Bytes())
		}},
	} {
		var w codec.Writer
		tc.blob(&w)
		err := tc.mech.UnmarshalBinary(w.Bytes())
		if err == nil {
			t.Fatalf("%s: old checkpoint should be rejected", tc.name)
		}
		if !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s: rejection should name the version, got %v", tc.name, err)
		}
	}
}

// TestSlowPathRejectsMismatchedPendingBoundary pins the restore validation of
// the pending boundary. A blob reaches a node from its peers during cluster
// handoff, and a boundary that does not match the stream would make the
// mechanism solve at an invocation index a later real boundary reuses on
// different data — one noise key on two datasets. Each hand-built blob breaks
// one rule; the control blob, built the same way, must restore.
func TestSlowPathRejectsMismatchedPendingBoundary(t *testing.T) {
	cons := constraint.NewL2Ball(slowDim, 1)
	statsBlob := func(n int) []byte {
		s := erm.NewMultiStats(slowDim, 1)
		x := vec.NewVector(slowDim)
		x[0] = 0.5
		for i := 0; i < n; i++ {
			s.AddRows(x, []float64{0.25})
		}
		blob := codec.Encode(s)
		return blob
	}
	// snap < 0 writes no snapshot.
	blob := func(rows int, pendInv, solved uint64, snap int) []byte {
		var w codec.Writer
		w.Version(slowStateVersion)
		w.String("priv-inc-erm")
		w.Int(slowDim)
		w.Int(slowHorizon)
		w.Int(slowTau)
		w.Int(1)
		w.Int(0)
		w.Bool(true)
		w.I64(1)
		w.Int(rows)
		w.U64(pendInv)
		w.F64s(make([]float64, slowDim))
		w.U64(solved)
		w.Blob(statsBlob(rows))
		w.Bool(snap >= 0)
		if snap >= 0 {
			w.Blob(statsBlob(snap))
		}
		return w.Bytes()
	}
	build := func() Estimator {
		return buildSlow(t, slowVariant{"generic", loss.Squared{}, 0, false}, cons, 5)
	}
	if err := build().UnmarshalBinary(blob(slowTau+2, 1, 0, slowTau)); err != nil {
		t.Fatalf("control blob (boundary 1 pending behind its snapshot) rejected: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"boundary ahead of t/tau", "pending boundary 2 is not", blob(slowTau, 2, 0, -1)},
		{"snapshot of the wrong prefix", "snapshot holds", blob(slowTau+2, 1, 0, slowTau+1)},
		{"outcome solved past the boundary", "solved invocation 2", blob(slowTau, 1, 2, -1)},
		{"live boundary behind t", "has no snapshot", blob(slowTau+2, 1, 0, -1)},
	} {
		err := build().UnmarshalBinary(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want an error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}
