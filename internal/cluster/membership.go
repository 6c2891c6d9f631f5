// membership.go is the SWIM-style failure detector (Das et al., "SWIM:
// Scalable Weakly-consistent Infection-style Process Group Membership
// Protocol"): each node periodically probes one peer directly, escalates a
// missed ack to an indirect probe through k proxies, and only then suspects
// the peer; a suspect that stays silent for the suspicion timeout is
// declared dead. Incarnation numbers make suspicion refutable — a suspected
// node that hears about its own suspicion bumps its incarnation and gossips
// "alive" with the higher number, which overrides the suspicion everywhere —
// so one dropped packet does not amputate a healthy node.
//
// The Detector is a pure state machine: no goroutines, no timers, no I/O.
// Time enters exclusively as arguments (Tick(now), HandleAck(id, now), …)
// and network effects leave as Action values the caller executes, which is
// what lets the full suspect/refute/promote cycle run under test with a
// synthetic clock and zero sleeps. The server wraps it with a real ticker
// and the wire transport's Ping/PingReq/Gossip frames.
//
// The caller must serialize access; the Detector does no locking.
package cluster

import (
	"fmt"
	"sort"
	"time"
)

// MemberState is what the detector believes about one member.
type MemberState uint8

const (
	// StateAlive: answering probes, or not yet doubted.
	StateAlive MemberState = 1
	// StateSuspect: missed a direct and an indirect probe; the suspicion
	// timeout is running and the member can still refute.
	StateSuspect MemberState = 2
	// StateDead: suspicion expired unrefuted, or another node confirmed the
	// death. Terminal except for an explicit rejoin with a higher
	// incarnation.
	StateDead MemberState = 3
	// StateLeft: departed gracefully (ring handoff completed); never
	// suspected, never promoted over.
	StateLeft MemberState = 4
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MemberInfo is one row of a gossiped membership table.
type MemberInfo struct {
	ID          string
	State       MemberState
	Incarnation uint64
}

// Member is the introspection view of one member: the gossiped facts plus
// the local evidence behind them.
type Member struct {
	MemberInfo
	// LastAck is when this node last heard from the member firsthand (an
	// ack, or gossip sent by the member itself); zero if never.
	LastAck time.Time
	// SuspectedAt is when the running suspicion started; zero unless
	// suspect.
	SuspectedAt time.Time
}

// ActionKind says what the caller should send.
type ActionKind uint8

const (
	// ActionPing: send a direct probe to Target; report an ack via
	// HandleAck(Target, now).
	ActionPing ActionKind = 1
	// ActionPingReq: ask each of Proxies to probe Target; report a
	// successful proxied probe via HandleAck(Target, now).
	ActionPingReq ActionKind = 2
)

// Action is a network effect the detector wants performed.
type Action struct {
	Kind    ActionKind
	Target  string
	Proxies []string // for ActionPingReq
}

// EventKind classifies a membership transition.
type EventKind uint8

const (
	// EventSuspected: a member missed direct and indirect probes (or a peer
	// gossiped its suspicion); the suspicion timeout is running.
	EventSuspected EventKind = 1
	// EventRefuted: a suspicion was cleared — firsthand ack, or gossip with
	// a higher incarnation — without any ring change.
	EventRefuted EventKind = 2
	// EventDead: the suspicion timeout expired unrefuted (or a peer
	// confirmed the death). The caller should remove the member from the
	// ring and promote standbys.
	EventDead EventKind = 3
	// EventJoined: a member appeared, or a dead member resurrected with a
	// higher incarnation. Ring re-admission stays explicit (the join flow);
	// the detector only tracks liveness.
	EventJoined EventKind = 4
	// EventLeft: a member departed gracefully.
	EventLeft EventKind = 5
	// EventSelfRefuted: this node heard itself suspected or declared dead
	// and bumped its own incarnation; the bumped table spreads with the
	// next probes.
	EventSelfRefuted EventKind = 6
)

func (k EventKind) String() string {
	switch k {
	case EventSuspected:
		return "suspected"
	case EventRefuted:
		return "refuted"
	case EventDead:
		return "dead"
	case EventJoined:
		return "joined"
	case EventLeft:
		return "left"
	case EventSelfRefuted:
		return "self-refuted"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one membership transition, in the order it happened.
type Event struct {
	Kind        EventKind
	ID          string
	Incarnation uint64
}

// DetectorConfig are the detector's timing parameters.
type DetectorConfig struct {
	// Self is this node's ID; it is gossiped as alive with the current
	// incarnation and never probed.
	Self string
	// ProbeInterval is how often a new direct probe starts (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout is how long each probe stage (direct, then indirect) may
	// run before escalating (default ProbeInterval/2). A member is
	// suspected after 2×ProbeTimeout of silence.
	ProbeTimeout time.Duration
	// SuspicionTimeout is how long a suspect may stay silent before it is
	// declared dead (default 3×ProbeInterval). This bounds the
	// unavailability window after an unclean death; the false-positive rate
	// rises as it shrinks.
	SuspicionTimeout time.Duration
}

// indirectProxies is k, the number of peers asked to probe on this node's
// behalf before suspicion.
const indirectProxies = 2

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval / 2
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = 3 * c.ProbeInterval
	}
	return c
}

type memberRec struct {
	state       MemberState
	incarnation uint64
	lastAck     time.Time
	suspectedAt time.Time
}

// probeState is the one probe in flight (SWIM probes one member per
// interval).
type probeState struct {
	target   string
	sentAt   time.Time
	indirect bool // escalated to ping-req
}

// Detector is the failure-detector state machine. Zero value is not usable;
// construct with NewDetector. Not safe for concurrent use.
type Detector struct {
	cfg         DetectorConfig
	incarnation uint64 // self
	members     map[string]*memberRec
	order       []string // sorted member IDs, the round-robin probe schedule
	probeIdx    int
	lastProbe   time.Time
	probe       *probeState
}

// NewDetector builds a detector for Self plus peers, all initially alive at
// incarnation 0 with now as their last-heard time (a boot grace period: a
// member must stay silent a full probe cycle before doubt begins).
func NewDetector(cfg DetectorConfig, peers []string, now time.Time) *Detector {
	d := &Detector{
		cfg:       cfg.withDefaults(),
		members:   make(map[string]*memberRec),
		lastProbe: now,
	}
	for _, id := range peers {
		if id == d.cfg.Self || id == "" {
			continue
		}
		d.members[id] = &memberRec{state: StateAlive, lastAck: now}
	}
	d.reorder()
	return d
}

func (d *Detector) reorder() {
	d.order = d.order[:0]
	for id := range d.members {
		d.order = append(d.order, id)
	}
	sort.Strings(d.order)
}

// Incarnation returns this node's current incarnation number.
func (d *Detector) Incarnation() uint64 { return d.incarnation }

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// Add introduces a member (a join), or resurrects a dead/left one.
func (d *Detector) Add(id string, now time.Time) {
	if id == d.cfg.Self || id == "" {
		return
	}
	rec, ok := d.members[id]
	if !ok {
		d.members[id] = &memberRec{state: StateAlive, lastAck: now}
		d.reorder()
		return
	}
	if rec.state != StateAlive {
		rec.state = StateAlive
		rec.lastAck = now
		rec.suspectedAt = time.Time{}
	}
}

// MarkLeft records a graceful departure: the member is no longer probed,
// never suspected, and its death never declared (there is nothing to
// promote — it handed its streams off before leaving).
func (d *Detector) MarkLeft(id string) {
	if rec, ok := d.members[id]; ok {
		rec.state = StateLeft
		rec.suspectedAt = time.Time{}
		if d.probe != nil && d.probe.target == id {
			d.probe = nil
		}
	}
}

// State returns the detector's belief about id (self is always alive).
func (d *Detector) State(id string) (MemberState, bool) {
	if id == d.cfg.Self {
		return StateAlive, true
	}
	rec, ok := d.members[id]
	if !ok {
		return 0, false
	}
	return rec.state, true
}

// Members returns the introspection view, sorted by ID, self included.
func (d *Detector) Members() []Member {
	out := make([]Member, 0, len(d.members)+1)
	out = append(out, Member{MemberInfo: MemberInfo{ID: d.cfg.Self, State: StateAlive, Incarnation: d.incarnation}})
	for _, id := range d.order {
		rec := d.members[id]
		out = append(out, Member{
			MemberInfo:  MemberInfo{ID: id, State: rec.state, Incarnation: rec.incarnation},
			LastAck:     rec.lastAck,
			SuspectedAt: rec.suspectedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Gossip returns the table to piggyback on outgoing probes and acks: every
// member's state and incarnation, plus self as alive. Sorted for
// determinism.
func (d *Detector) Gossip() []MemberInfo {
	out := make([]MemberInfo, 0, len(d.members)+1)
	out = append(out, MemberInfo{ID: d.cfg.Self, State: StateAlive, Incarnation: d.incarnation})
	for _, id := range d.order {
		rec := d.members[id]
		out = append(out, MemberInfo{ID: id, State: rec.state, Incarnation: rec.incarnation})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// probeable reports whether a member should be probed: alive members (the
// steady state) and suspects (a probe ack is the fastest refutation).
func probeable(s MemberState) bool { return s == StateAlive || s == StateSuspect }

// nextTarget advances the round-robin schedule to the next probeable member.
func (d *Detector) nextTarget() (string, bool) {
	for i := 0; i < len(d.order); i++ {
		id := d.order[d.probeIdx%len(d.order)]
		d.probeIdx++
		if probeable(d.members[id].state) {
			return id, true
		}
	}
	return "", false
}

// proxies picks up to indirectProxies alive members other than target to
// carry an indirect probe.
func (d *Detector) proxies(target string) []string {
	var out []string
	for _, id := range d.order {
		if id == target || d.members[id].state != StateAlive {
			continue
		}
		out = append(out, id)
		if len(out) == indirectProxies {
			break
		}
	}
	return out
}

// Tick advances the state machine to now: expires suspicions into deaths,
// escalates or concludes the in-flight probe, and starts the next probe when
// the interval has elapsed. The returned actions are probes for the caller
// to send; events are transitions that happened.
func (d *Detector) Tick(now time.Time) ([]Action, []Event) {
	var actions []Action
	var events []Event

	// Suspicions that outlived the timeout become deaths, in ID order so
	// event streams are deterministic under test.
	for _, id := range d.order {
		rec := d.members[id]
		if rec.state == StateSuspect && now.Sub(rec.suspectedAt) >= d.cfg.SuspicionTimeout {
			rec.state = StateDead
			rec.suspectedAt = time.Time{}
			events = append(events, Event{Kind: EventDead, ID: id, Incarnation: rec.incarnation})
			if d.probe != nil && d.probe.target == id {
				d.probe = nil
			}
		}
	}

	// Escalate or conclude the in-flight probe.
	if p := d.probe; p != nil && now.Sub(p.sentAt) >= d.cfg.ProbeTimeout {
		rec := d.members[p.target]
		switch {
		case rec == nil || !probeable(rec.state):
			d.probe = nil
		case !p.indirect:
			if proxies := d.proxies(p.target); len(proxies) > 0 {
				p.indirect = true
				p.sentAt = now
				actions = append(actions, Action{Kind: ActionPingReq, Target: p.target, Proxies: proxies})
				break
			}
			// No proxy available (two-node cluster, or everyone else is
			// down): suspicion rests on the direct probe alone.
			fallthrough
		default:
			if rec.state == StateAlive {
				rec.state = StateSuspect
				rec.suspectedAt = now
				events = append(events, Event{Kind: EventSuspected, ID: p.target, Incarnation: rec.incarnation})
			}
			d.probe = nil
		}
	}

	// Start the next probe when the interval has elapsed and no probe is in
	// flight.
	if d.probe == nil && now.Sub(d.lastProbe) >= d.cfg.ProbeInterval {
		if target, ok := d.nextTarget(); ok {
			d.probe = &probeState{target: target, sentAt: now}
			d.lastProbe = now
			actions = append(actions, Action{Kind: ActionPing, Target: target})
		}
	}
	return actions, events
}

// HandleAck records firsthand evidence that id is alive at now: a direct
// probe ack, or a proxy's confirmation that id answered. Firsthand evidence
// clears a local suspicion immediately (this node verified liveness itself);
// peers holding the same suspicion still need the incarnation-bump
// refutation to spread via gossip.
func (d *Detector) HandleAck(id string, now time.Time) []Event {
	rec, ok := d.members[id]
	if !ok {
		return nil
	}
	rec.lastAck = now
	if d.probe != nil && d.probe.target == id {
		d.probe = nil
	}
	if rec.state == StateSuspect {
		rec.state = StateAlive
		rec.suspectedAt = time.Time{}
		return []Event{{Kind: EventRefuted, ID: id, Incarnation: rec.incarnation}}
	}
	return nil
}

// HandleGossip merges a peer's membership table, received from `from` (the
// node that built it — hearing from it is itself firsthand liveness
// evidence). Precedence follows SWIM: higher incarnations win; at equal
// incarnations suspicion overrides aliveness; death overrides both and is
// only undone by an alive claim with a strictly higher incarnation (a
// deliberate rejoin). Entries about self never change local state — instead
// a suspicion or death claim at our incarnation or above bumps our
// incarnation, which is the refutation the gossip carries back out.
func (d *Detector) HandleGossip(from string, table []MemberInfo, now time.Time) []Event {
	var events []Event
	events = append(events, d.HandleAck(from, now)...)
	changedSet := false
	for _, m := range table {
		if m.ID == d.cfg.Self {
			if (m.State == StateSuspect || m.State == StateDead) && m.Incarnation >= d.incarnation {
				d.incarnation = m.Incarnation + 1
				events = append(events, Event{Kind: EventSelfRefuted, ID: d.cfg.Self, Incarnation: d.incarnation})
			}
			continue
		}
		rec, ok := d.members[m.ID]
		if !ok {
			if m.ID == "" {
				continue
			}
			rec = &memberRec{state: m.State, incarnation: m.Incarnation}
			switch m.State {
			case StateAlive:
				rec.lastAck = now
				events = append(events, Event{Kind: EventJoined, ID: m.ID, Incarnation: m.Incarnation})
			case StateSuspect:
				rec.suspectedAt = now
				events = append(events, Event{Kind: EventSuspected, ID: m.ID, Incarnation: m.Incarnation})
			}
			d.members[m.ID] = rec
			changedSet = true
			continue
		}
		switch m.State {
		case StateAlive:
			switch rec.state {
			case StateAlive:
				if m.Incarnation > rec.incarnation {
					rec.incarnation = m.Incarnation
				}
			case StateSuspect:
				if m.Incarnation > rec.incarnation {
					rec.state = StateAlive
					rec.incarnation = m.Incarnation
					rec.suspectedAt = time.Time{}
					events = append(events, Event{Kind: EventRefuted, ID: m.ID, Incarnation: m.Incarnation})
				}
			case StateDead, StateLeft:
				if m.Incarnation > rec.incarnation {
					rec.state = StateAlive
					rec.incarnation = m.Incarnation
					rec.lastAck = now
					rec.suspectedAt = time.Time{}
					events = append(events, Event{Kind: EventJoined, ID: m.ID, Incarnation: m.Incarnation})
				}
			}
		case StateSuspect:
			switch rec.state {
			case StateAlive:
				if m.Incarnation >= rec.incarnation {
					rec.state = StateSuspect
					rec.incarnation = m.Incarnation
					rec.suspectedAt = now
					events = append(events, Event{Kind: EventSuspected, ID: m.ID, Incarnation: m.Incarnation})
				}
			case StateSuspect:
				if m.Incarnation > rec.incarnation {
					rec.incarnation = m.Incarnation
				}
			}
		case StateDead:
			if rec.state != StateDead && rec.state != StateLeft {
				rec.state = StateDead
				if m.Incarnation > rec.incarnation {
					rec.incarnation = m.Incarnation
				}
				rec.suspectedAt = time.Time{}
				events = append(events, Event{Kind: EventDead, ID: m.ID, Incarnation: rec.incarnation})
				if d.probe != nil && d.probe.target == m.ID {
					d.probe = nil
				}
			}
		case StateLeft:
			if rec.state != StateLeft {
				rec.state = StateLeft
				rec.suspectedAt = time.Time{}
				events = append(events, Event{Kind: EventLeft, ID: m.ID, Incarnation: rec.incarnation})
				if d.probe != nil && d.probe.target == m.ID {
					d.probe = nil
				}
			}
		}
	}
	if changedSet {
		d.reorder()
	}
	return events
}
