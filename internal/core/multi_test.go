package core

import (
	"math"
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

// This file audits the multi-outcome engine against an independent reference:
// for every outcome, a from-scratch recomputation folds the clamped row log
// into fresh single-outcome MultiStats and runs one keyed solve with the
// invocation index the mechanism's schedule assigns — and the property test
// drives the mechanism through randomly interleaved row observes, flat-batch
// observes, per-outcome estimate reads (in random outcome order, including
// rounds that read only a subset), and mid-stream checkpoint/restore into
// differently-seeded instances, requiring bitwise agreement at every read.

const (
	multiDim     = 3
	multiK       = 4
	multiHorizon = 48
	multiTau     = 8
)

func multiBatchOpts() erm.PrivateBatchOptions { return erm.PrivateBatchOptions{Iterations: 12} }

func buildMulti(t *testing.T, cons constraint.Set, seed int64) *GenericERM {
	t.Helper()
	m, err := NewMultiOutcome(cons, multiK, privacy(), multiHorizon, randx.NewSource(seed),
		GenericOptions{Tau: multiTau, Batch: multiBatchOpts()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// multiRow is one clamped row of the reference log.
type multiRow struct {
	x  vec.Vector
	ys []float64
}

func clampMultiRow(x vec.Vector, ys []float64) multiRow {
	cx := x.Clone()
	clampInto(cx, x, 0)
	cys := make([]float64, len(ys))
	for i, y := range ys {
		if y > 1 {
			y = 1
		} else if y < -1 {
			y = -1
		}
		cys[i] = y
	}
	return multiRow{x: cx, ys: cys}
}

// multiPerCall recomputes the budget split the mechanism derives at
// construction: total → per outcome (advanced composition over k) → per
// boundary solve (advanced composition over T/τ).
func multiPerCall(t *testing.T) dp.Params {
	t.Helper()
	perOutcome, err := dp.PerInvocationAdvanced(privacy(), multiK)
	if err != nil {
		t.Fatal(err)
	}
	perCall, err := dp.PerInvocationAdvanced(perOutcome, multiHorizon/multiTau)
	if err != nil {
		t.Fatal(err)
	}
	return perCall
}

// refMultiEstimate recomputes outcome i's estimate after n rows from first
// principles: fold the clamped prefix up to the last τ boundary into fresh
// single-outcome statistics for that outcome and run one solve keyed by
// (SubKey(key, i), boundary index).
func refMultiEstimate(t *testing.T, cons constraint.Set, rows []multiRow, outcome int, key int64, per dp.Params) vec.Vector {
	t.Helper()
	inv := len(rows) / multiTau
	if inv == 0 {
		origin := vec.NewVector(cons.Dim())
		cons.ProjectInto(origin, origin, nil)
		return origin
	}
	stats := erm.NewMultiStats(cons.Dim(), 1)
	for _, r := range rows[:inv*multiTau] {
		stats.AddRows(r.x, r.ys[outcome:outcome+1])
	}
	theta, err := erm.NewSolver(cons).SolveStats(loss.Squared{}, stats, 0, per,
		randx.SubKey(key, uint64(outcome)), uint64(inv), multiBatchOpts())
	if err != nil {
		t.Fatal(err)
	}
	return theta
}

// TestMultiOutcomeInterleavedOpsMatchReference is the bitwise audit of the
// shared-statistics engine. Lazy per-outcome solves, memo staleness across τ
// boundaries, outcomes left unread across several boundaries (superseded
// snapshots), flat-batch folding, and pending-snapshot serialization are all
// exercised by the interleaving; any divergence from the independent
// reference is an exact mismatch.
func TestMultiOutcomeInterleavedOpsMatchReference(t *testing.T) {
	cons := constraint.NewL2Ball(multiDim, 1)
	per := multiPerCall(t)
	for trial := 0; trial < 4; trial++ {
		seed := int64(100*trial + 7)
		key := randx.NewSource(seed).DeriveKey()
		mech := buildMulti(t, cons, seed)
		driver := randx.NewSource(int64(5000*trial + 31))
		var rows []multiRow

		nextRow := func() (vec.Vector, []float64) {
			x := vec.Vector(driver.NormalVector(multiDim, 0.8))
			ys := make([]float64, multiK)
			for i := range ys {
				ys[i] = driver.Normal(0, 0.7)
			}
			return x, ys
		}
		checkOutcome := func(label string, i int) {
			t.Helper()
			got, err := mech.EstimateOutcome(i)
			if err != nil {
				t.Fatal(err)
			}
			want := refMultiEstimate(t, cons, rows, i, key, per)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("trial %d %s outcome %d at t=%d coord %d: mechanism %v != reference %v",
						trial, label, i, len(rows), c, got[c], want[c])
				}
			}
		}

		for len(rows) < multiHorizon {
			switch driver.Intn(6) {
			case 0, 1: // row observe, estimates unread
				x, ys := nextRow()
				rows = append(rows, clampMultiRow(x, ys))
				if err := mech.ObserveRows(x, ys); err != nil {
					t.Fatal(err)
				}
			case 2: // flat batch crossing (possibly several) boundaries
				n := 1 + driver.Intn(10)
				if room := multiHorizon - len(rows); n > room {
					n = room
				}
				xs := make([]float64, 0, n*multiDim)
				ys := make([]float64, 0, n*multiK)
				for j := 0; j < n; j++ {
					x, ry := nextRow()
					rows = append(rows, clampMultiRow(x, ry))
					xs = append(xs, x...)
					ys = append(ys, ry...)
				}
				if err := mech.ObserveRows(xs, ys); err != nil {
					t.Fatal(err)
				}
			case 3: // read a random subset of outcomes, in random order
				for _, i := range driver.Perm(multiK)[:1+driver.Intn(multiK)] {
					checkOutcome("EstimateOutcome", i)
				}
			case 4: // repeated read: the per-outcome memo must hold
				i := driver.Intn(multiK)
				checkOutcome("EstimateOutcome", i)
				checkOutcome("repeat EstimateOutcome", i)
			case 5: // checkpoint, restore into a differently seeded instance
				blob := codec.Encode(mech)
				restored := buildMulti(t, cons, seed+9000)
				if err := restored.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				mech = restored
				for i := 0; i < multiK; i++ {
					checkOutcome("post-restore EstimateOutcome", i)
				}
			}
		}
		for i := 0; i < multiK; i++ {
			checkOutcome("final EstimateOutcome", i)
		}
		if mech.Len() != multiHorizon {
			t.Fatalf("Len = %d, want %d", mech.Len(), multiHorizon)
		}
	}
}

// TestMultiOutcomeScalarPathDegenerates pins the Estimator-interface contract:
// one-response rows and Estimate work on a k=1 mechanism, and rows that are
// not whole k-response rows are rejected on wider ones.
func TestMultiOutcomeScalarPathDegenerates(t *testing.T) {
	cons := constraint.NewL2Ball(multiDim, 1)
	single, err := NewMultiOutcome(cons, 1, privacy(), multiHorizon, randx.NewSource(3),
		GenericOptions{Tau: multiTau, Batch: multiBatchOpts()})
	if err != nil {
		t.Fatal(err)
	}
	p := loss.Point{X: vec.NewVector(multiDim), Y: 0.5}
	p.X[0] = 0.3
	if err := observe(single, p); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Estimate(); err != nil {
		t.Fatal(err)
	}
	wide := buildMulti(t, cons, 3)
	if err := observe(wide, p); err == nil {
		t.Fatal("a one-response row on a k=4 mechanism should be rejected")
	}
	if err := wide.ObserveRows(p.X[1:], make([]float64, multiK)); err == nil {
		t.Fatal("a short covariate on a k=4 mechanism should be rejected")
	}
	if wide.Len() != 0 {
		t.Fatalf("rejected rows were consumed: Len = %d", wide.Len())
	}
	if _, err := wide.EstimateOutcome(multiK); err == nil {
		t.Fatal("out-of-range outcome index should be rejected")
	}
}

// TestMultiOutcomeCheckpointFlatInT pins the checkpoint memory claim: the blob
// is O(d² + k·d) and must not grow with the stream.
func TestMultiOutcomeCheckpointFlatInT(t *testing.T) {
	cons := constraint.NewL2Ball(multiDim, 1)
	sizeAt := func(n int) int {
		mech := buildMulti(t, cons, 3)
		driver := randx.NewSource(77)
		for i := 0; i < n; i++ {
			x := vec.Vector(driver.NormalVector(multiDim, 0.5))
			ys := make([]float64, multiK)
			for j := range ys {
				ys[j] = driver.Normal(0, 0.5)
			}
			if err := mech.ObserveRows(x, ys); err != nil {
				t.Fatal(err)
			}
		}
		blob := codec.Encode(mech)
		return len(blob)
	}
	if small, large := sizeAt(multiTau), sizeAt(multiHorizon); small != large {
		t.Fatalf("checkpoint grew with the stream: %d -> %d bytes", small, large)
	}
}

// TestMultiOutcomeRejectsWrongShape pins the restore validation: a checkpoint
// of a different outcome count or version must be rejected loudly.
func TestMultiOutcomeRejectsWrongShape(t *testing.T) {
	cons := constraint.NewL2Ball(multiDim, 1)
	mech := buildMulti(t, cons, 5)
	var w codec.Writer
	w.Version(99)
	w.String(mech.Name())
	if err := mech.UnmarshalBinary(w.Bytes()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version should be rejected with a version error, got %v", err)
	}
	other, err := NewMultiOutcome(cons, multiK+1, privacy(), multiHorizon, randx.NewSource(5),
		GenericOptions{Tau: multiTau, Batch: multiBatchOpts()})
	if err != nil {
		t.Fatal(err)
	}
	blob := codec.Encode(other)
	if err := mech.UnmarshalBinary(blob); err == nil {
		t.Fatal("checkpoint with a different outcome count should be rejected")
	}
}

// TestMultiOutcomeBatchMatchesRowByRowAtEveryBoundaryOffset feeds one batch
// whose τ boundaries fall at every offset mod 4 of the four-row fold, with
// each boundary left unread so the rows after it force a snapshot, and
// requires the checkpoint bytes and every outcome's estimate to equal those
// of the same rows observed one at a time.
func TestMultiOutcomeBatchMatchesRowByRowAtEveryBoundaryOffset(t *testing.T) {
	cons := constraint.NewL2Ball(5, 1)
	for _, tau := range []int{4, 5, 6, 7} {
		for lead := 0; lead < 4; lead++ {
			build := func() *GenericERM {
				m, err := NewMultiOutcome(cons, multiK, privacy(), 256, randx.NewSource(int64(tau)),
					GenericOptions{Tau: tau, Batch: multiBatchOpts()})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			driver := randx.NewSource(int64(10*tau + lead))
			const rows = 24
			xs := driver.NormalVector((lead+rows)*5, 0.8)
			ys := driver.NormalVector((lead+rows)*multiK, 0.7)
			batched, single := build(), build()
			for r := 0; r < lead+rows; r++ {
				if err := single.ObserveRows(xs[r*5:(r+1)*5], ys[r*multiK:(r+1)*multiK]); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < lead; r++ {
				if err := batched.ObserveRows(xs[r*5:(r+1)*5], ys[r*multiK:(r+1)*multiK]); err != nil {
					t.Fatal(err)
				}
			}
			if err := batched.ObserveRows(xs[lead*5:], ys[lead*multiK:]); err != nil {
				t.Fatal(err)
			}
			if string(codec.Encode(batched)) != string(codec.Encode(single)) {
				t.Fatalf("τ=%d lead=%d: batched checkpoint differs from row-by-row", tau, lead)
			}
			for i := 0; i < multiK; i++ {
				got, err := batched.EstimateOutcome(i)
				if err != nil {
					t.Fatal(err)
				}
				want, err := single.EstimateOutcome(i)
				if err != nil {
					t.Fatal(err)
				}
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Fatalf("τ=%d lead=%d outcome %d coord %d: batched %v, row-by-row %v", tau, lead, i, c, got[c], want[c])
					}
				}
			}
		}
	}
}
