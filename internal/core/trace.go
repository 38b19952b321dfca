package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Time is virtual time, in the simulator's ticks. It aliases int64 so
// traces can be analyzed without importing the simulation kernel.
type Time = int64

// TraceEventKind discriminates recorded run events.
type TraceEventKind uint8

// Trace event kinds. Join/Leave/EdgeUp/EdgeDown are topology events;
// Send/Deliver/Drop are message events; Mark is protocol-defined.
const (
	TJoin TraceEventKind = iota
	TLeave
	TEdgeUp
	TEdgeDown
	TSend
	TDeliver
	TDrop
	TMark
)

// String returns the event kind name.
func (k TraceEventKind) String() string {
	names := [...]string{"join", "leave", "edge-up", "edge-down", "send", "deliver", "drop", "mark"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("TraceEventKind(%d)", uint8(k))
}

// Mark tags the runtime records for lifecycle transitions the membership
// events alone cannot express: a crash is a Leave preceded by a MarkCrash
// mark, a recovery is a Join preceded by a MarkRecover mark (same tick,
// same entity). SessionsBridgingRecovery keys on exactly this shape.
const (
	MarkCrash   = "crash"
	MarkRecover = "recover"
	// MarkRejoin is recorded when an entity joins under an identity that
	// was present before (an announced Leave followed by a later Join of
	// the same ID). The runtime records it for every such re-arrival, so
	// checkers can tell a returning participant from a first arrival
	// without guessing from ID reuse. SessionsBridgingRejoin keys on it.
	MarkRejoin = "rejoin"
	// MarkProvenEquivocator is recorded at an entity when some receiver
	// establishes transferable PROOF that it equivocated (two of its own
	// signatures over divergent payloads of one broadcast). The audit
	// sublayer emits it; checkers read it through ProvenEquivocators to
	// separate evidence-backed quarantines from mere suspicion.
	MarkProvenEquivocator = "audit.proven"
	// MarkEpochSwitch is recorded at an entity when it commits to a new
	// protocol-stack configuration epoch (the node runtime's live
	// reconfiguration handshake). The core package owns the tag so trace
	// checkers can locate reconfiguration points without importing the
	// runtime; the OTQ judgment itself is epoch-agnostic — a correct
	// reconfiguration changes the stack's parameters, never the answer.
	MarkEpochSwitch = "reconf.switch"
	// MarkPexConverged is recorded (once, at an arbitrary present entity)
	// the first time the PEX membership sublayer's sampler observes the
	// overlay fully connected — the gossip overlay's convergence instant,
	// which the E27 experiments measure against poisoning.
	MarkPexConverged = "pex.converged"
)

// TraceEvent is one recorded occurrence in a run. P is the subject entity;
// Q is the peer for edge and message events (zero otherwise). Tag carries
// the message type or mark label.
type TraceEvent struct {
	At   Time
	Kind TraceEventKind
	P, Q graph.NodeID
	Tag  string
}

// Trace is the ground-truth record of a run: every membership change,
// topology change and message, in order. Specification checkers (e.g. the
// One-Time Query validity checker) work exclusively on traces, so a
// protocol cannot self-certify its answers.
//
// The zero value is an empty, usable trace.
type Trace struct {
	events []TraceEvent
	end    Time
	closed bool

	// Counters every trace keeps at Record time, whatever its retention,
	// so Len, Messages, MaxConcurrency and FirstMark never rescan.
	count     int
	lastAt    Time
	msgAll    MessageStats
	msgByTag  map[string]*MessageStats
	cur, peak int
	firstMark map[string]Time

	// countOnly (SetCountOnly) drops every event once the counters have
	// seen it, keeping memory O(tags) instead of O(events).
	countOnly bool

	sinks []func(TraceEvent)
}

// Stream registers fn as an event sink: every subsequently recorded event
// is handed to fn at Record time, after validation and before retention
// decides the event's fate. Sinks therefore see the complete stream even
// under count-only retention — the hook that lets incremental consumers
// (e.g. otq.StreamChecker) judge runs whose event logs never materialize.
// Register before the first Record to observe the whole run; sinks must
// not Record into the trace.
func (tr *Trace) Stream(fn func(TraceEvent)) {
	tr.sinks = append(tr.sinks, fn)
}

// SetCountOnly switches the trace to count-only retention: Len,
// Messages, MaxConcurrency, FirstMark and End stay exact, and every
// read of the event log (Events, Replay, the session and presence
// functions, Temporal, MarkedEntities, ...) panics rather than answer
// over zero events. It exists for scale experiments whose worlds record
// tens of millions of events; their judges ride the stream through
// Stream sinks. Must be called before the first Record.
func (tr *Trace) SetCountOnly(on bool) {
	if tr.count > 0 {
		panic("core: SetCountOnly on a trace that already holds events")
	}
	tr.countOnly = on
}

// Record appends an event. Events must be recorded in non-decreasing time
// order (the simulator guarantees this); out-of-order recording panics.
func (tr *Trace) Record(ev TraceEvent) {
	if tr.closed {
		panic("core: Record on closed trace")
	}
	if tr.count > 0 && ev.At < tr.lastAt {
		panic(fmt.Sprintf("core: trace event at %d after event at %d", ev.At, tr.lastAt))
	}
	for _, fn := range tr.sinks {
		fn(ev)
	}
	tr.count++
	tr.lastAt = ev.At
	if ev.At > tr.end {
		tr.end = ev.At
	}
	switch ev.Kind {
	case TJoin:
		tr.cur++
		if tr.cur > tr.peak {
			tr.peak = tr.cur
		}
	case TLeave:
		tr.cur--
	case TSend, TDeliver, TDrop:
		tr.msgAll.add(ev.Kind)
		s := tr.msgByTag[ev.Tag]
		if s == nil {
			if tr.msgByTag == nil {
				tr.msgByTag = make(map[string]*MessageStats)
			}
			s = &MessageStats{}
			tr.msgByTag[ev.Tag] = s
		}
		s.add(ev.Kind)
	case TMark:
		if _, seen := tr.firstMark[ev.Tag]; !seen {
			if tr.firstMark == nil {
				tr.firstMark = make(map[string]Time)
			}
			tr.firstMark[ev.Tag] = ev.At
		}
	}
	if !tr.countOnly {
		tr.events = append(tr.events, ev)
	}
}

// Join records entity p joining at time t.
func (tr *Trace) Join(t Time, p graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TJoin, P: p})
}

// Leave records entity p leaving at time t.
func (tr *Trace) Leave(t Time, p graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TLeave, P: p})
}

// EdgeUp records link {p, q} appearing at time t.
func (tr *Trace) EdgeUp(t Time, p, q graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TEdgeUp, P: p, Q: q})
}

// EdgeDown records link {p, q} disappearing at time t.
func (tr *Trace) EdgeDown(t Time, p, q graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TEdgeDown, P: p, Q: q})
}

// Send records p sending a tag-message to q at time t.
func (tr *Trace) Send(t Time, p, q graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TSend, P: p, Q: q, Tag: tag})
}

// Deliver records q's tag-message being delivered to p at time t.
func (tr *Trace) Deliver(t Time, p, q graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TDeliver, P: p, Q: q, Tag: tag})
}

// Drop records a tag-message from p to q being lost at time t.
func (tr *Trace) Drop(t Time, p, q graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TDrop, P: p, Q: q, Tag: tag})
}

// Mark records a protocol-defined event labeled tag at entity p.
func (tr *Trace) Mark(t Time, p graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TMark, P: p, Tag: tag})
}

// Close fixes the trace's end time. Recording after Close panics.
func (tr *Trace) Close(t Time) {
	if t > tr.end {
		tr.end = t
	}
	tr.closed = true
}

// End returns the trace's end time: the Close time if closed, otherwise
// the time of the last event.
func (tr *Trace) End() Time { return tr.end }

// Len returns the number of recorded events (including discarded ones
// under count-only retention).
func (tr *Trace) Len() int { return tr.count }

// log is the one read path into the retained event log; every accessor
// that walks events goes through it, so a count-only trace refuses the
// read instead of answering over an empty log.
func (tr *Trace) log() []TraceEvent {
	if tr.countOnly {
		panic("core: event log read on a count-only trace (SetCountOnly keeps counters, not events)")
	}
	return tr.events
}

// Events returns a copy of the recorded events.
func (tr *Trace) Events() []TraceEvent {
	evs := tr.log()
	out := make([]TraceEvent, len(evs))
	copy(out, evs)
	return out
}

// EventsSince returns a copy of the events recorded from index start on
// (incremental consumers keep a cursor instead of re-copying the whole
// trace). A start beyond the log returns nil.
func (tr *Trace) EventsSince(start int) []TraceEvent {
	evs := tr.log()
	if start < 0 {
		start = 0
	}
	if start >= len(evs) {
		return nil
	}
	out := make([]TraceEvent, len(evs)-start)
	copy(out, evs[start:])
	return out
}

// Replay hands every recorded event to fn, in order, without copying the
// log: the post-hoc twin of a Stream sink, for checkers that judge a
// finished run by feeding their streaming machine. fn must not Record
// into the trace.
func (tr *Trace) Replay(fn func(TraceEvent)) {
	for _, ev := range tr.log() {
		fn(ev)
	}
}

// Interval is a half-open presence interval [From, To). To is the trace
// end for sessions still open at the end of the run.
type Interval struct {
	From, To Time
}

// Covers reports whether the interval contains [t1, t2] entirely.
func (iv Interval) Covers(t1, t2 Time) bool { return iv.From <= t1 && t2 < iv.To }

// Sessions returns, per entity, its presence intervals in time order.
// A session open at the end of the trace is closed at End()+1 so that
// Covers(t, End()) holds for entities present to the very end.
func (tr *Trace) Sessions() map[graph.NodeID][]Interval {
	open := make(map[graph.NodeID]Time)
	out := make(map[graph.NodeID][]Interval)
	for _, ev := range tr.log() {
		switch ev.Kind {
		case TJoin:
			if _, ok := open[ev.P]; !ok {
				open[ev.P] = ev.At
			}
		case TLeave:
			if from, ok := open[ev.P]; ok {
				out[ev.P] = append(out[ev.P], Interval{From: from, To: ev.At})
				delete(open, ev.P)
			}
		}
	}
	for p, from := range open {
		out[p] = append(out[p], Interval{From: from, To: tr.end + 1})
	}
	return out
}

// SessionsBridgingRecovery returns presence intervals like Sessions, but
// with crash–recovery gaps bridged: a session that ended in a crash
// (MarkCrash + Leave) and resumed in a recovery of the same entity
// (MarkRecover + Join) is reported as ONE interval spanning the gap. The
// reading: a crash–recovery entity's state survived on stable storage, so
// for participation accounting it never stopped being a member — it was
// merely silent for a while, like a process behind a transient partition.
// A crash that never recovers closes its interval at the crash, exactly
// like a leave.
func (tr *Trace) SessionsBridgingRecovery() map[graph.NodeID][]Interval {
	open := make(map[graph.NodeID]Time)
	crashed := make(map[graph.NodeID]Time) // start of a crash-suspended session
	pendingCrash := make(map[graph.NodeID]bool)
	pendingRecover := make(map[graph.NodeID]bool)
	lastCrashAt := make(map[graph.NodeID]Time)
	out := make(map[graph.NodeID][]Interval)
	for _, ev := range tr.log() {
		switch ev.Kind {
		case TMark:
			switch ev.Tag {
			case MarkCrash:
				pendingCrash[ev.P] = true
			case MarkRecover:
				pendingRecover[ev.P] = true
			}
		case TJoin:
			if _, isOpen := open[ev.P]; isOpen {
				break
			}
			if from, wasCrashed := crashed[ev.P]; wasCrashed && pendingRecover[ev.P] {
				open[ev.P] = from // resume the suspended session
			} else {
				open[ev.P] = ev.At
			}
			delete(crashed, ev.P)
			delete(pendingRecover, ev.P)
		case TLeave:
			from, isOpen := open[ev.P]
			if !isOpen {
				break
			}
			delete(open, ev.P)
			if pendingCrash[ev.P] {
				delete(pendingCrash, ev.P)
				crashed[ev.P] = from
				lastCrashAt[ev.P] = ev.At
				break
			}
			out[ev.P] = append(out[ev.P], Interval{From: from, To: ev.At})
		}
	}
	for p, from := range open {
		out[p] = append(out[p], Interval{From: from, To: tr.end + 1})
	}
	for p, from := range crashed {
		// Crashed and never came back: the session ended at the crash.
		out[p] = append(out[p], Interval{From: from, To: lastCrashAt[p]})
	}
	for _, ivs := range out {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].From < ivs[j].From })
	}
	return out
}

// SessionsBridgingRejoin returns presence intervals with BOTH kinds of
// announced-return gaps bridged: crash–recovery gaps (as in
// SessionsBridgingRecovery) and leave–rejoin gaps — a session that ended
// in a plain Leave and resumed in a Join of the same identity flanked by
// a MarkRejoin mark is reported as ONE interval spanning the downtime.
// This is the participation notion for durable identities: an entity
// whose security state persists across departures never stopped being
// the same principal, it was merely absent for a while. A departure that
// never returns closes its interval at the leave, exactly like Sessions.
func (tr *Trace) SessionsBridgingRejoin() map[graph.NodeID][]Interval {
	open := make(map[graph.NodeID]Time)
	suspended := make(map[graph.NodeID]Time) // start of a departed session
	lastLeaveAt := make(map[graph.NodeID]Time)
	pendingReturn := make(map[graph.NodeID]bool)
	out := make(map[graph.NodeID][]Interval)
	for _, ev := range tr.log() {
		switch ev.Kind {
		case TMark:
			switch ev.Tag {
			case MarkRecover, MarkRejoin:
				pendingReturn[ev.P] = true
			}
		case TJoin:
			if _, isOpen := open[ev.P]; isOpen {
				break
			}
			if from, wasSuspended := suspended[ev.P]; wasSuspended && pendingReturn[ev.P] {
				open[ev.P] = from // resume the suspended session
			} else {
				open[ev.P] = ev.At
			}
			delete(suspended, ev.P)
			delete(pendingReturn, ev.P)
		case TLeave:
			from, isOpen := open[ev.P]
			if !isOpen {
				break
			}
			delete(open, ev.P)
			// Every departure suspends: only the trace's end tells us
			// whether the identity comes back.
			suspended[ev.P] = from
			lastLeaveAt[ev.P] = ev.At
		}
	}
	for p, from := range open {
		out[p] = append(out[p], Interval{From: from, To: tr.end + 1})
	}
	for p, from := range suspended {
		// Departed and never came back: the session ended at the leave.
		out[p] = append(out[p], Interval{From: from, To: lastLeaveAt[p]})
	}
	for _, ivs := range out {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].From < ivs[j].From })
	}
	return out
}

// StableBetweenRejoinBridged is StableBetween computed over rejoin-bridged
// sessions (SessionsBridgingRejoin): a durable identity whose bridged
// presence covers [t1, t2] counts as a stable participant even while it
// was between sessions. This is the accounting a churn-storm experiment
// holds a protocol to when identities persist across join/leave cycles.
func (tr *Trace) StableBetweenRejoinBridged(t1, t2 Time) []graph.NodeID {
	var out []graph.NodeID
	for p, ivs := range tr.SessionsBridgingRejoin() {
		for _, iv := range ivs {
			if iv.Covers(t1, t2) {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StableBetweenBridged is StableBetween computed over recovery-bridged
// sessions: a crash–recovery entity whose (bridged) presence covers
// [t1, t2] counts as a stable participant even if it was silent for part
// of the interval. This is the participation notion a robustness
// experiment holds a protocol to when entities may crash and come back
// with their state intact.
func (tr *Trace) StableBetweenBridged(t1, t2 Time) []graph.NodeID {
	var out []graph.NodeID
	for p, ivs := range tr.SessionsBridgingRecovery() {
		for _, iv := range ivs {
			if iv.Covers(t1, t2) {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Entities returns every entity that ever joined, in ascending order.
func (tr *Trace) Entities() []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	for _, ev := range tr.log() {
		if ev.Kind == TJoin {
			seen[ev.P] = true
		}
	}
	out := make([]graph.NodeID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PresentAt returns the entities present at time t, ascending.
func (tr *Trace) PresentAt(t Time) []graph.NodeID {
	var out []graph.NodeID
	for p, ivs := range tr.Sessions() {
		for _, iv := range ivs {
			if iv.From <= t && t < iv.To {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxConcurrency returns the maximum number of simultaneously present
// entities over the run — the observed concurrency level that places the
// run within an infinite arrival model.
func (tr *Trace) MaxConcurrency() int { return tr.peak }

// StableBetween returns the entities present during the whole closed
// interval [t1, t2]: exactly the processes whose values a valid One-Time
// Query issued over that interval must account for.
func (tr *Trace) StableBetween(t1, t2 Time) []graph.NodeID {
	var out []graph.NodeID
	for p, ivs := range tr.Sessions() {
		for _, iv := range ivs {
			if iv.Covers(t1, t2) {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EverPresentBetween returns the entities present at any point of
// [t1, t2]: the only processes whose values may legitimately appear in a
// One-Time Query answer over that interval.
func (tr *Trace) EverPresentBetween(t1, t2 Time) []graph.NodeID {
	var out []graph.NodeID
	for p, ivs := range tr.Sessions() {
		for _, iv := range ivs {
			if iv.From <= t2 && t1 < iv.To {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Temporal converts the trace's topology events into an evolving graph.
func (tr *Trace) Temporal() *graph.Temporal {
	tg := graph.NewTemporal()
	for _, ev := range tr.log() {
		switch ev.Kind {
		case TJoin:
			tg.Record(graph.TemporalEvent{At: ev.At, Kind: graph.NodeJoin, U: ev.P})
		case TLeave:
			tg.Record(graph.TemporalEvent{At: ev.At, Kind: graph.NodeLeave, U: ev.P})
		case TEdgeUp:
			tg.Record(graph.TemporalEvent{At: ev.At, Kind: graph.EdgeUp, U: ev.P, V: ev.Q})
		case TEdgeDown:
			tg.Record(graph.TemporalEvent{At: ev.At, Kind: graph.EdgeDown, U: ev.P, V: ev.Q})
		}
	}
	return tg
}

// LastTopologyChange returns the time of the last join/leave/edge event,
// or 0 if there is none.
func (tr *Trace) LastTopologyChange() Time {
	last := Time(0)
	for _, ev := range tr.log() {
		switch ev.Kind {
		case TJoin, TLeave, TEdgeUp, TEdgeDown:
			if ev.At > last {
				last = ev.At
			}
		}
	}
	return last
}

// SessionStats summarizes membership dynamics: how many sessions the run
// saw, how long they lasted, and the implied churn intensity.
type SessionStats struct {
	// Sessions is the total number of presence intervals.
	Sessions int
	// Completed counts sessions that ended before the trace did.
	Completed int
	// MeanLength and MaxLength are over COMPLETED sessions (open sessions
	// have no length yet); both 0 when nothing completed.
	MeanLength float64
	MaxLength  Time
	// EventsPerTick is (joins+leaves)/duration: the churn intensity.
	EventsPerTick float64
}

// SessionStatistics computes SessionStats from the trace.
func (tr *Trace) SessionStatistics() SessionStats {
	var st SessionStats
	events := 0
	for _, ev := range tr.log() {
		if ev.Kind == TJoin || ev.Kind == TLeave {
			events++
		}
	}
	var sum Time
	for _, ivs := range tr.Sessions() {
		for _, iv := range ivs {
			st.Sessions++
			if iv.To <= tr.end { // closed before the run ended
				st.Completed++
				length := iv.To - iv.From
				sum += length
				if length > st.MaxLength {
					st.MaxLength = length
				}
			}
		}
	}
	if st.Completed > 0 {
		st.MeanLength = float64(sum) / float64(st.Completed)
	}
	if tr.end > 0 {
		st.EventsPerTick = float64(events) / float64(tr.end)
	}
	return st
}

// MessageStats summarizes message events in the trace.
type MessageStats struct {
	Sent, Delivered, Dropped int
}

func (s *MessageStats) add(kind TraceEventKind) {
	switch kind {
	case TSend:
		s.Sent++
	case TDeliver:
		s.Delivered++
	case TDrop:
		s.Dropped++
	}
}

// Messages counts message events, optionally filtered by tag ("" = all).
func (tr *Trace) Messages(tag string) MessageStats {
	if tag == "" {
		return tr.msgAll
	}
	if s := tr.msgByTag[tag]; s != nil {
		return *s
	}
	return MessageStats{}
}

// MarkedEntities returns the distinct entities carrying a mark with the
// given tag, ascending. Checkers use it to collect runtime verdicts the
// sublayers record (e.g. quarantined neighbors) without knowing their
// internals.
func (tr *Trace) MarkedEntities(tag string) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, ev := range tr.log() {
		if ev.Kind == TMark && ev.Tag == tag && !seen[ev.P] {
			seen[ev.P] = true
			out = append(out, ev.P)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProvenEquivocators returns the entities marked MarkProvenEquivocator —
// those some receiver holds signature-backed equivocation proof against —
// ascending. Unlike quarantine marks (which a forger can direct at a
// scapegoat), an entity appears here only if its own key signed two
// divergent payloads under one broadcast number.
func (tr *Trace) ProvenEquivocators() []graph.NodeID {
	return tr.MarkedEntities(MarkProvenEquivocator)
}

// FirstMark returns the time of the earliest mark with the given tag, and
// whether one exists — e.g. the detection latency of an injected fault,
// measured from the injection window's start.
func (tr *Trace) FirstMark(tag string) (Time, bool) {
	at, ok := tr.firstMark[tag]
	return at, ok
}
