package cluster

import (
	"fmt"
	"testing"
	"time"
)

// Membership tests drive the detector with a synthetic clock — there is no
// time.Sleep anywhere in this file; every timeout "elapses" by calling Tick
// with a later timestamp.

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func testConfig() DetectorConfig {
	return DetectorConfig{
		Self:             "a",
		ProbeInterval:    time.Second,
		ProbeTimeout:     500 * time.Millisecond,
		SuspicionTimeout: 3 * time.Second,
	}
}

func kinds(events []Event) []EventKind {
	out := make([]EventKind, len(events))
	for i, e := range events {
		out[i] = e.Kind
	}
	return out
}

// TestProbeRoundRobin: probes start one per interval, cycling over peers in
// sorted order, and an ack keeps everyone alive.
func TestProbeRoundRobin(t *testing.T) {
	d := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	var probed []string
	now := t0
	for i := 0; i < 4; i++ {
		now = now.Add(time.Second)
		actions, events := d.Tick(now)
		if len(events) != 0 {
			t.Fatalf("tick %d: unexpected events %v", i, kinds(events))
		}
		if len(actions) != 1 || actions[0].Kind != ActionPing {
			t.Fatalf("tick %d: actions = %+v, want one ping", i, actions)
		}
		probed = append(probed, actions[0].Target)
		d.HandleAck(actions[0].Target, now)
	}
	want := []string{"b", "c", "b", "c"}
	for i := range want {
		if probed[i] != want[i] {
			t.Fatalf("probe order = %v, want %v", probed, want)
		}
	}
	for _, id := range []string{"b", "c"} {
		if s, _ := d.State(id); s != StateAlive {
			t.Errorf("state(%s) = %s, want alive", id, s)
		}
	}
}

// TestDirectTimeoutEscalatesToIndirect: a missed direct probe produces a
// ping-req through the other alive member, not an immediate suspicion.
func TestDirectTimeoutEscalatesToIndirect(t *testing.T) {
	d := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	now := t0.Add(time.Second)
	actions, _ := d.Tick(now) // ping b
	if len(actions) != 1 || actions[0].Target != "b" {
		t.Fatalf("first tick actions = %+v, want ping b", actions)
	}

	now = now.Add(500 * time.Millisecond) // direct probe times out
	actions, events := d.Tick(now)
	if len(events) != 0 {
		t.Fatalf("unexpected events %v before indirect probing", kinds(events))
	}
	if len(actions) != 1 || actions[0].Kind != ActionPingReq || actions[0].Target != "b" {
		t.Fatalf("actions = %+v, want ping-req for b", actions)
	}
	if len(actions[0].Proxies) != 1 || actions[0].Proxies[0] != "c" {
		t.Fatalf("proxies = %v, want [c]", actions[0].Proxies)
	}
	if s, _ := d.State("b"); s != StateAlive {
		t.Fatalf("state(b) = %s before indirect timeout, want alive", s)
	}

	// A proxy-relayed ack clears the probe with no suspicion.
	d.HandleAck("b", now.Add(100*time.Millisecond))
	_, events = d.Tick(now.Add(time.Second))
	for _, e := range events {
		if e.Kind == EventSuspected {
			t.Fatalf("b suspected despite indirect ack")
		}
	}
}

// suspectB walks a fresh detector through the full probe → indirect →
// suspect sequence for member b and returns the detector, the suspicion
// time, and the suspicion event.
func suspectB(t *testing.T) (*Detector, time.Time) {
	t.Helper()
	d := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	now := t0.Add(time.Second)
	d.Tick(now)                           // ping b
	now = now.Add(500 * time.Millisecond) // direct timeout
	d.Tick(now)                           // ping-req via c
	now = now.Add(500 * time.Millisecond) // indirect timeout
	_, events := d.Tick(now)
	if len(events) != 1 || events[0].Kind != EventSuspected || events[0].ID != "b" {
		t.Fatalf("events = %+v, want b suspected", events)
	}
	if s, _ := d.State("b"); s != StateSuspect {
		t.Fatalf("state(b) = %s, want suspect", s)
	}
	// The suspicion tick also started the next round-robin probe (of c);
	// ack it so only b's fate is in play for the caller.
	d.HandleAck("c", now)
	return d, now
}

// TestSuspicionTimesOutToDead: an unrefuted suspicion becomes a death after
// exactly the suspicion timeout.
func TestSuspicionTimesOutToDead(t *testing.T) {
	d, suspected := suspectB(t)
	// One tick just before the timeout: still suspect.
	_, events := d.Tick(suspected.Add(3*time.Second - time.Millisecond))
	for _, e := range events {
		if e.Kind == EventDead {
			t.Fatalf("b died before the suspicion timeout")
		}
	}
	_, events = d.Tick(suspected.Add(3 * time.Second))
	var dead bool
	for _, e := range events {
		if e.Kind == EventDead && e.ID == "b" {
			dead = true
		}
	}
	if !dead {
		t.Fatalf("events = %+v, want b dead", events)
	}
	if s, _ := d.State("b"); s != StateDead {
		t.Fatalf("state(b) = %s, want dead", s)
	}
}

// TestRefutationByIncarnationBump: gossip claiming b alive at a higher
// incarnation clears the suspicion — the false positive costs nothing.
func TestRefutationByIncarnationBump(t *testing.T) {
	d, suspected := suspectB(t)
	events := d.HandleGossip("c", []MemberInfo{{ID: "b", State: StateAlive, Incarnation: 1}}, suspected.Add(time.Second))
	var refuted bool
	for _, e := range events {
		if e.Kind == EventRefuted && e.ID == "b" {
			refuted = true
		}
	}
	if !refuted {
		t.Fatalf("events = %+v, want b refuted", events)
	}
	if s, _ := d.State("b"); s != StateAlive {
		t.Fatalf("state(b) = %s after refutation, want alive", s)
	}
	// The old suspicion must not still ripen into a death.
	_, events = d.Tick(suspected.Add(10 * time.Second))
	for _, e := range events {
		if e.Kind == EventDead {
			t.Fatalf("b died after refutation: %+v", events)
		}
	}
}

// TestSameIncarnationAliveDoesNotRefute: per SWIM, suspicion at incarnation
// i is only overridden by alive at i+1 or higher — stale "alive" gossip
// cannot mask a real failure.
func TestSameIncarnationAliveDoesNotRefute(t *testing.T) {
	d, suspected := suspectB(t)
	d.HandleGossip("c", []MemberInfo{{ID: "b", State: StateAlive, Incarnation: 0}}, suspected.Add(time.Second))
	if s, _ := d.State("b"); s != StateSuspect {
		t.Fatalf("state(b) = %s after same-incarnation alive gossip, want still suspect", s)
	}
}

// TestFirsthandAckRefutes: the suspecting node itself hearing an ack clears
// the suspicion immediately (it verified liveness firsthand).
func TestFirsthandAckRefutes(t *testing.T) {
	d, suspected := suspectB(t)
	events := d.HandleAck("b", suspected.Add(time.Second))
	if len(events) != 1 || events[0].Kind != EventRefuted {
		t.Fatalf("events = %+v, want refuted", events)
	}
	if s, _ := d.State("b"); s != StateAlive {
		t.Fatalf("state(b) = %s, want alive", s)
	}
}

// TestSelfRefutation: hearing your own suspicion bumps your incarnation so
// the refutation can spread; the bumped number rides the next gossip.
func TestSelfRefutation(t *testing.T) {
	d := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	events := d.HandleGossip("b", []MemberInfo{{ID: "a", State: StateSuspect, Incarnation: 0}}, t0.Add(time.Second))
	var bumped bool
	for _, e := range events {
		if e.Kind == EventSelfRefuted && e.Incarnation == 1 {
			bumped = true
		}
	}
	if !bumped {
		t.Fatalf("events = %+v, want self-refuted at incarnation 1", events)
	}
	if d.Incarnation() != 1 {
		t.Fatalf("incarnation = %d, want 1", d.Incarnation())
	}
	for _, m := range d.Gossip() {
		if m.ID == "a" && (m.State != StateAlive || m.Incarnation != 1) {
			t.Fatalf("self gossip entry = %+v, want alive@1", m)
		}
	}
	// Stale suspicion at the old incarnation no longer bumps again.
	d.HandleGossip("c", []MemberInfo{{ID: "a", State: StateSuspect, Incarnation: 0}}, t0.Add(2*time.Second))
	if d.Incarnation() != 1 {
		t.Fatalf("incarnation = %d after stale suspicion, want still 1", d.Incarnation())
	}
}

// TestGossipSpreadsSuspicionAndDeath: a node that never probed the victim
// adopts the suspicion (starting its own timeout) and the death.
func TestGossipSpreadsSuspicionAndDeath(t *testing.T) {
	d := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	now := t0.Add(time.Second)
	events := d.HandleGossip("c", []MemberInfo{{ID: "b", State: StateSuspect, Incarnation: 0}}, now)
	if len(events) != 1 || events[0].Kind != EventSuspected {
		t.Fatalf("events = %+v, want b suspected via gossip", events)
	}
	// The adopted suspicion ripens locally too.
	_, events = d.Tick(now.Add(3 * time.Second))
	var dead bool
	for _, e := range events {
		if e.Kind == EventDead && e.ID == "b" {
			dead = true
		}
	}
	if !dead {
		t.Fatalf("adopted suspicion did not ripen: %+v", events)
	}

	// Death gossip is adopted exactly once.
	d2 := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	events = d2.HandleGossip("c", []MemberInfo{{ID: "b", State: StateDead, Incarnation: 0}}, now)
	if len(events) != 1 || events[0].Kind != EventDead {
		t.Fatalf("events = %+v, want b dead via gossip", events)
	}
	if events = d2.HandleGossip("c", []MemberInfo{{ID: "b", State: StateDead, Incarnation: 0}}, now); len(events) != 0 {
		t.Fatalf("repeated death gossip re-emitted: %+v", events)
	}
}

// TestDeadIsStickyUntilRejoin: stale alive gossip cannot resurrect a dead
// member; a deliberate rejoin with a higher incarnation can — in the
// detector only, never in the ring (that takes the explicit join flow).
func TestDeadIsStickyUntilRejoin(t *testing.T) {
	d := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	d.HandleGossip("c", []MemberInfo{{ID: "b", State: StateDead, Incarnation: 0}}, t0)
	d.HandleGossip("c", []MemberInfo{{ID: "b", State: StateAlive, Incarnation: 0}}, t0.Add(time.Second))
	if s, _ := d.State("b"); s != StateDead {
		t.Fatalf("state(b) = %s after stale alive gossip, want dead", s)
	}
	events := d.HandleGossip("b", []MemberInfo{{ID: "b", State: StateAlive, Incarnation: 3}}, t0.Add(2*time.Second))
	var joined bool
	for _, e := range events {
		if e.Kind == EventJoined && e.ID == "b" {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("events = %+v, want b rejoined", events)
	}
	if s, _ := d.State("b"); s != StateAlive {
		t.Fatalf("state(b) = %s after rejoin, want alive", s)
	}
}

// TestLeftMembersAreNeverSuspected: a graceful departure is terminal — no
// probes, no suspicion, no death, no promotion.
func TestLeftMembersAreNeverSuspected(t *testing.T) {
	d := NewDetector(testConfig(), []string{"a", "b", "c"}, t0)
	d.MarkLeft("b")
	now := t0
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		actions, events := d.Tick(now)
		for _, a := range actions {
			if a.Target == "b" {
				t.Fatalf("left member probed: %+v", a)
			}
			d.HandleAck(a.Target, now)
		}
		for _, e := range events {
			if e.ID == "b" {
				t.Fatalf("left member produced event %+v", e)
			}
		}
	}
}

// TestTwoNodeClusterSuspectsWithoutProxies: with no third node to relay an
// indirect probe, the direct timeout alone escalates to suspicion.
func TestTwoNodeClusterSuspectsWithoutProxies(t *testing.T) {
	d := NewDetector(testConfig(), []string{"a", "b"}, t0)
	now := t0.Add(time.Second)
	d.Tick(now) // ping b
	now = now.Add(500 * time.Millisecond)
	_, events := d.Tick(now)
	if len(events) != 1 || events[0].Kind != EventSuspected || events[0].ID != "b" {
		t.Fatalf("events = %+v, want b suspected directly (no proxies)", events)
	}
}

// TestPartitionFlapNeverDoubleOwns is the partition-flap test: a node that
// is suspected and refuted leaves the ring untouched (no ownership change at
// all), and a node that is declared dead, removed, and later resurrects in
// the detector still owns nothing under the promoted ring — on every ring
// version, each stream has exactly one owner, and after the death transition
// the flapping node is never among them until an explicit ring re-add.
func TestPartitionFlapNeverDoubleOwns(t *testing.T) {
	members := []Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	ring, err := New(1, members, 2, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]string, 40)
	for i := range streams {
		streams[i] = fmt.Sprintf("stream-%d", i)
	}
	ownersV1 := make(map[string]string, len(streams))
	for _, id := range streams {
		ownersV1[id] = ring.Owner(id).ID
	}

	// Phase 1: b is suspected, then refuted by incarnation bump. No ring
	// transition may happen — refutation is exactly the "do nothing" path.
	d, suspected := suspectB(t)
	d.HandleGossip("c", []MemberInfo{{ID: "b", State: StateAlive, Incarnation: 1}}, suspected.Add(time.Second))
	_, events := d.Tick(suspected.Add(10 * time.Second))
	for _, e := range events {
		if e.Kind == EventDead {
			t.Fatalf("refuted suspicion still produced a death: %+v", e)
		}
	}
	for _, id := range streams {
		if got := ring.Owner(id).ID; got != ownersV1[id] {
			t.Fatalf("owner of %s changed without a ring transition", id)
		}
	}

	// Phase 2: b really dies. Every survivor computes Remove("b")
	// independently; determinism of New means they converge on identical
	// ownership with exactly one owner per stream, never b.
	d2, suspected2 := suspectB(t)
	_, events = d2.Tick(suspected2.Add(3 * time.Second))
	if len(events) != 1 || events[0].Kind != EventDead || events[0].ID != "b" {
		t.Fatalf("events = %+v, want b dead", events)
	}
	ringA, err := ring.Remove("b") // survivor a's computation
	if err != nil {
		t.Fatal(err)
	}
	ringC, err := ring.Remove("b") // survivor c's computation
	if err != nil {
		t.Fatal(err)
	}
	if ringA.Version() != 2 || ringC.Version() != 2 {
		t.Fatalf("successor ring versions = %d, %d, want 2", ringA.Version(), ringC.Version())
	}
	for _, id := range streams {
		oa, oc := ringA.Owner(id).ID, ringC.Owner(id).ID
		if oa != oc {
			t.Fatalf("survivors disagree on owner of %s: %s vs %s", id, oa, oc)
		}
		if oa == "b" {
			t.Fatalf("dead node still owns %s under ring v2", id)
		}
		// The promoted owner is the stream's old first successor — the node
		// that already holds the warm standby copy.
		if ownersV1[id] == "b" {
			succs := ring.Successors(id, 2)
			if len(succs) < 2 || succs[1].ID != oa {
				t.Fatalf("promoted owner of %s is %s, want old standby %v", id, oa, succs)
			}
		}
	}

	// Phase 3: b resurrects in the detector (rejoin with higher
	// incarnation). The ring is untouched by detector state — b owns
	// nothing until an explicit ring re-add, so there is no moment where
	// two rings both claim b as an owner of a promoted stream.
	d2.HandleGossip("b", []MemberInfo{{ID: "b", State: StateAlive, Incarnation: 5}}, suspected2.Add(4*time.Second))
	if s, _ := d2.State("b"); s != StateAlive {
		t.Fatalf("state(b) = %s after rejoin gossip, want alive", s)
	}
	for _, id := range streams {
		if ringA.Owner(id).ID == "b" {
			t.Fatalf("resurrected member owns %s without rejoining the ring", id)
		}
	}
	rejoined, err := ringA.Add(Node{ID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if rejoined.Version() != 3 {
		t.Fatalf("rejoin ring version = %d, want 3", rejoined.Version())
	}
	for _, id := range streams {
		if rejoined.Owner(id).ID == "" {
			t.Fatalf("stream %s has no owner after rejoin", id)
		}
	}
}
