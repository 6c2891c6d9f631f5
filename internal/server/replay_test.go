package server

import (
	"reflect"
	"testing"

	"privreg/internal/wire"
)

// bufferedBatch is the replay entry acceptReplicate buffers for a Replicate
// frame carrying xs (rows of dim covariates) and ys at offset start.
func bufferedBatch(t testing.TB, start int64, dim int, xs, ys []float64) replayEntry {
	t.Helper()
	var b wire.Builder
	wire.AppendReplicate(&b, 1, 1, "s", uint64(start), dim, xs, ys)
	_, payload, _, err := wire.DecodeFrame(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.ParseReplicate(payload, dim)
	if err != nil {
		t.Fatal(err)
	}
	return replayEntry{start: start, rows: rep.RowBlock.Clone()}
}

// TestReplayBufferClearsDroppedSlots reads the replay buffer's backing array
// after the trim to maxReplayEntries and after a prune: the slots the slice
// moved past or vacated must be zero, so the dropped batches' row bytes are
// not kept reachable.
func TestReplayBufferClearsDroppedSlots(t *testing.T) {
	entries := make([]replayEntry, maxReplayEntries, maxReplayEntries+8)
	for i := range entries {
		entries[i] = bufferedBatch(t, int64(i), 2, []float64{1, 2}, []float64{3})
	}
	backing := entries[:cap(entries)]
	entries = appendReplay(entries, bufferedBatch(t, maxReplayEntries, 2, []float64{4, 5}, []float64{6}))
	if len(entries) != maxReplayEntries || entries[0].start != 1 || entries[len(entries)-1].start != maxReplayEntries {
		t.Fatalf("trimmed buffer holds %d entries from offset %d to %d", len(entries), entries[0].start, entries[len(entries)-1].start)
	}
	if !reflect.ValueOf(backing[0]).IsZero() {
		t.Fatal("the entry trimmed off the front is still reachable through the backing array")
	}

	cs := &clusterState{replay: map[string][]replayEntry{"s": entries}}
	cs.pruneReplay("s", maxReplayEntries-2)
	kept := cs.replay["s"]
	if len(kept) != 3 || kept[0].start != maxReplayEntries-2 {
		t.Fatalf("prune kept %d entries from offset %d, want 3 from %d", len(kept), kept[0].start, maxReplayEntries-2)
	}
	for i, e := range entries[len(kept):] {
		if !reflect.ValueOf(e).IsZero() {
			t.Fatalf("pruned slot %d is still set after the prune", len(kept)+i)
		}
	}
}

// TestPromotedStandbyReplaysToOwnerBits ships multi-row k=4 batches to a
// standby as buffered row bytes, promotes it, and requires every outcome's
// estimate on the promoted node to equal the owner's bits.
func TestPromotedStandbyReplaysToOwnerBits(t *testing.T) {
	spec := testSpec()
	spec.Mechanism, spec.Outcomes = "multi-outcome", 4
	nodes := startCluster(t, []string{"a", "b", "c"}, func(_ int, cfg *Config) {
		cfg.Spec = spec
		cfg.Cluster.Replicas = 2
	})
	standby, owner := nodes[0], nodes[2]
	cur := standby.s.cl.Ring()
	next, err := cur.Remove(owner.node.ID)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, id := range clusterStreams(400) {
		if cur.Owner(id).ID == owner.node.ID && next.Owner(id).ID == standby.node.ID && len(ids) < 3 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no stream moves from the owner to the standby")
	}
	c := dialWire(t, owner.node.WireAddr)
	const batches = 5
	for _, id := range ids {
		off := 0
		for b := 0; b < batches; b++ {
			var xs, ys []float64
			for j := off; j < off+1+3*b%7; j++ {
				x, y := SyntheticPointMulti(id, j, spec.Dim, spec.Outcomes)
				xs, ys = append(xs, x...), append(ys, y...)
			}
			if _, _, err := c.Observe(id, xs, ys); err != nil {
				t.Fatal(err)
			}
			off += len(ys) / spec.Outcomes
		}
		standby.s.cl.replayMu.Lock()
		buffered := len(standby.s.cl.replay[id])
		standby.s.cl.replayMu.Unlock()
		if buffered != batches {
			t.Fatalf("standby buffered %d batches of %s, want %d", buffered, id, batches)
		}
	}

	standby.s.cl.adoptPromoting(next)
	for _, id := range ids {
		wantLen, _ := owner.s.pool.LenOK(id)
		if gotLen, _ := standby.s.pool.LenOK(id); gotLen != wantLen {
			t.Fatalf("%s: promoted standby holds %d rows, owner %d", id, gotLen, wantLen)
		}
		for o := 0; o < spec.Outcomes; o++ {
			want, err := owner.s.pool.EstimateOutcome(id, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := standby.s.pool.EstimateOutcome(id, o)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s outcome %d: promoted standby %v, owner %v", id, o, got, want)
			}
		}
	}
}
