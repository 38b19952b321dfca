package node

// The authentication sublayer: an opt-in defense against Byzantine channel
// behavior, sitting under Proc.Send exactly like the reliable sublayer.
// Every outgoing message is tagged with an HMAC-style authenticator over
// (per-pair key, per-pair sequence number, message tag, payload) before it
// enters the channel; the receiver recomputes the tag, rejects copies
// whose tag does not verify (in-flight corruption, sender forgery — with
// per-pair keys a spoofed sender never holds the right key), rejects
// replayed sequence numbers through a sliding anti-replay window, and
// quarantines a neighbor link once its misbehavior exhausts a budget.
//
// What the sublayer can NOT defend against: a Byzantine SENDER that signs
// its own lies. Equivocation (divergent copies of one logical broadcast)
// carries a valid tag on every copy, because the sender tags each lie with
// the real pair key — detecting it needs transferable authentication
// (signatures) plus cross-neighbor comparison, which per-pair MACs cannot
// provide. The fault DSL models this distinction precisely: equivocation
// clauses mutate the payload BEFORE tagging, corruption clauses after.
// The opt-in audit sublayer (audit.go) supplies exactly that missing
// piece: transferable per-message signatures plus cross-receiver receipt
// gossip, converging on this layer's quarantine machinery once a lie is
// proven.
//
// Quarantine is per-neighbor (per directed link), not global: entities
// arrive anonymously and are known only to their neighbors, so there is no
// authority to pronounce a global verdict, and evidence against a claimed
// sender is only meaningful to the entity that verified it. The cost of
// this locality is that a forger can frame an honest entity on the links
// it attacks — the framed entity's direct traffic dies there, and only
// multi-path dissemination routes around the false quarantine.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Trace mark tags emitted by the authentication sublayer.
const (
	// MarkAuthRejectCorrupt is recorded at the receiver when a copy's
	// authenticator does not verify (corruption or forgery — the receiver
	// cannot tell which; both mangle the tag).
	MarkAuthRejectCorrupt = "auth.reject-corrupt"
	// MarkAuthRejectReplay is recorded at the receiver when a copy carries
	// a valid authenticator but an already-accepted or out-of-window
	// sequence number.
	MarkAuthRejectReplay = "auth.reject-replay"
	// MarkAuthQuarantine is recorded at the OFFENDER (the claimed sender)
	// when some receiver's misbehavior budget for it runs out, so that
	// trace checkers can collect the quarantined set without knowing the
	// sublayer's internals.
	MarkAuthQuarantine = "auth.quarantine"
	// MarkAuthParole is recorded at the OFFENDER when a receiver's parole
	// timer reinstates a quarantined link (with a halved budget).
	MarkAuthParole = "auth.parole"
)

// AuthConfig parameterizes the authentication sublayer.
type AuthConfig struct {
	// Enabled turns the sublayer on.
	Enabled bool
	// KeySeed derives the per-pair keys. Two worlds sharing a KeySeed
	// derive identical keys; zero is a valid seed.
	KeySeed uint64
	// ReplayWindow is how far behind the highest accepted sequence number
	// an out-of-order copy may arrive and still be accepted (reordered
	// channels deliver legitimately late copies). At most 64. Default 64.
	ReplayWindow int
	// Budget is the number of rejected copies a receiver tolerates from
	// one claimed sender before quarantining that link. Default 3.
	Budget int
	// Parole, when positive, reinstates a quarantined link that many ticks
	// after the quarantine decision — with the link's misbehavior budget
	// HALVED, so a framed scapegoat recovers once the forger moves on while
	// a repeat offender re-quarantines geometrically faster each round
	// (budget 3 -> 1 -> 0, where 0 means the first further rejection
	// re-quarantines). Zero keeps quarantine permanent (the E22 behavior).
	Parole int64
}

func (ac AuthConfig) withDefaults() AuthConfig {
	if ac.ReplayWindow == 0 {
		ac.ReplayWindow = 64
	}
	if ac.Budget == 0 {
		ac.Budget = 3
	}
	return ac
}

// Validate reports the first configuration error, or nil. Zero fields mean
// their defaults, exactly as in Config.Validate: ReplayWindow 0 selects the
// default width of 64, so the rejected range is exactly what the message
// states.
func (ac AuthConfig) Validate() error {
	if ac.ReplayWindow < 0 || ac.ReplayWindow > 64 {
		return fmt.Errorf("node: auth ReplayWindow %d outside [0, 64] (0 means the default, 64)", ac.ReplayWindow)
	}
	if ac.Budget < 0 {
		return fmt.Errorf("node: negative auth Budget %d", ac.Budget)
	}
	if ac.Parole < 0 {
		return fmt.Errorf("node: negative auth Parole %d", ac.Parole)
	}
	return nil
}

// AuthCounters are the world's receiver-side authentication totals.
type AuthCounters struct {
	// Accepted counts copies that passed both checks.
	Accepted int
	// RejectedCorrupt counts copies whose authenticator did not verify.
	RejectedCorrupt int
	// RejectedReplay counts copies with a stale sequence number.
	RejectedReplay int
	// Quarantines counts neighbor links quarantined.
	Quarantines int
	// DroppedQuarantined counts copies dropped because their claimed
	// sender was already quarantined by the receiver.
	DroppedQuarantined int
}

// QuarantineEvent records one quarantine decision: By stopped listening to
// Offender at time At.
type QuarantineEvent struct {
	At       int64
	By       graph.NodeID
	Offender graph.NodeID
}

// replayWindow is an IPsec-style sliding anti-replay window: the highest
// accepted sequence number plus a bitmap of the w numbers below it. The
// fresh state is an explicit flag, not a value encoding: (hi=0, bits=0)
// never doubles as "uninitialized", so the first accepted sequence number
// can be anything without aliasing the empty window.
type replayWindow struct {
	inited bool
	hi     uint64
	bits   uint64 // bit i set = hi-i accepted
}

func (rw *replayWindow) accept(seq uint64, width int) bool {
	if !rw.inited {
		rw.inited, rw.hi, rw.bits = true, seq, 1
		return true
	}
	if seq > rw.hi {
		shift := seq - rw.hi
		if shift >= 64 {
			rw.bits = 0
		} else {
			rw.bits <<= shift
		}
		rw.bits |= 1
		rw.hi = seq
		return true
	}
	behind := rw.hi - seq
	if behind >= uint64(width) {
		return false // too old to judge: treat as replayed
	}
	if rw.bits&(1<<behind) != 0 {
		return false // already accepted: replayed
	}
	rw.bits |= 1 << behind
	return true
}

// pairKeyID caches one derived pair key per (directed pair, key epoch):
// the reconfiguration layer rotates keys by bumping the stack's KeyEpoch,
// and in-flight copies still verify under the generation they were
// stamped with. Without reconfiguration ke is always 0.
type pairKeyID struct {
	pair [2]graph.NodeID
	ke   uint64
}

type authLayer struct {
	noHooks
	cfg AuthConfig
	// nextSeq is the sender-side per-directed-pair sequence counter. It
	// is deliberately NOT per key epoch: the aseq space survives key
	// rotation, so peers' anti-replay windows stay valid across it.
	nextSeq map[[2]graph.NodeID]uint64
	// keys caches the derived per-pair keys by (pair, key epoch).
	keys map[pairKeyID]uint64
	// windows, strikes and quarantined are receiver-side, keyed
	// (receiver, claimed sender).
	windows     map[[2]graph.NodeID]*replayWindow
	strikes     map[[2]graph.NodeID]int
	quarantined map[[2]graph.NodeID]bool
	// budgets overrides cfg.Budget per link once parole has halved it;
	// absent means the configured budget still applies.
	budgets map[[2]graph.NodeID]int
	// paroleAt is the absolute parole deadline of each quarantined link
	// with parole configured (absent = permanent). Parole timers check it
	// on firing, so a stale timer — one whose link's state was dropped by
	// a crash or departure and possibly restored since — is a no-op, and
	// recovery re-arms the REMAINING time instead of restarting the clock.
	paroleAt map[[2]graph.NodeID]int64
	stats    *AuthCounters
	events   []QuarantineEvent
	paroles  []QuarantineEvent
}

func newAuthLayer(cfg AuthConfig, stats *AuthCounters) *authLayer {
	return &authLayer{
		cfg:         cfg,
		nextSeq:     make(map[[2]graph.NodeID]uint64),
		keys:        make(map[pairKeyID]uint64),
		windows:     make(map[[2]graph.NodeID]*replayWindow),
		strikes:     make(map[[2]graph.NodeID]int),
		quarantined: make(map[[2]graph.NodeID]bool),
		budgets:     make(map[[2]graph.NodeID]int),
		paroleAt:    make(map[[2]graph.NodeID]int64),
		stats:       stats,
	}
}

// pairKey derives the shared key of the directed pair (from, to) at key
// epoch ke. The derivation stands in for a key agreement run at link
// establishment (and re-run at each rotation); what matters to the model
// is that both endpoints of a link hold it and nobody else can produce
// it. The ke fold is an exact identity at 0, so a world that never
// rotates derives the same keys it always did.
func (al *authLayer) pairKey(from, to graph.NodeID, ke uint64) uint64 {
	id := pairKeyID{pair: [2]graph.NodeID{from, to}, ke: ke}
	if k, ok := al.keys[id]; ok {
		return k
	}
	k := rng.New(al.cfg.KeySeed ^ uint64(from)*0x9e3779b97f4a7c15 ^ uint64(to)*0xc2b2ae3d27d4eb4f ^ ke*0x9e6c63d0876a9a47).Uint64()
	al.keys[id] = k
	return k
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fingerprint reduces a payload to a deterministic digest. fmt renders map
// keys in sorted order, so the common contribution-map payloads fingerprint
// stably; pointer-carrying payloads fingerprint by identity, which is the
// right notion in-process (a tampered copy is a different object).
func fingerprint(payload any) uint64 {
	return fnv1a(fmt.Sprintf("%T|%v", payload, payload))
}

// macFor computes the HMAC-style authenticator of one message under the
// key of key epoch ke — the KeyEpoch of the stack epoch the message was
// stamped with (0, the genesis generation, without reconfiguration). The
// audit sublayer's broadcast sequence number and signature are folded in
// when present (both zero without the audit sublayer, which leaves the
// tag unchanged), so a channel adversary cannot rewrite them in flight
// without mangling the authenticator. The stack epoch is folded the same
// way (an identity at 0, reconfig off): migrating a copy between epochs
// mangles the tag too.
func (al *authLayer) macFor(ke uint64, from, to graph.NodeID, aseq uint64, tag string, bseq, sig, epoch uint64, payload any) uint64 {
	k := al.pairKey(from, to, ke)
	h := k ^ aseq*0xd6e8feb86659fd93
	h ^= fnv1a(tag) * 0xa5a5a5a5a5a5a5a5
	h ^= fingerprint(payload)
	h ^= bseq * 0x8cb92ba72f3d8dd7
	h ^= sig * 0xe7037ed1a0b428db
	h ^= epoch * 0x2545f4914f6cdd1d
	// One splitmix64 round so related inputs do not produce related tags.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// tag authenticates an outgoing message in place: next per-pair sequence
// number, authenticator over everything the receiver will check, under
// the key generation of the message's (already stamped) stack epoch.
func (al *authLayer) tag(w *World, m *Message) {
	pair := [2]graph.NodeID{m.From, m.To}
	al.nextSeq[pair]++
	m.aseq = al.nextSeq[pair]
	m.mac = al.macFor(w.stackFor(m.epoch).KeyEpoch, m.From, m.To, m.aseq, m.Tag, m.bseq, m.sig, m.epoch, m.Payload)
}

// saveIdentity extracts the identity-keyed auth state of one entity —
// its per-pair send counters (the volatile sender side a crash would lose
// unless persisted) plus its own receiver-side security ledger: the
// anti-replay windows it keeps about peers, the strikes and halved
// budgets it charges them, and the quarantines it imposed with their
// absolute parole deadlines. The filled record is detached from the
// layer.
func (al *authLayer) saveIdentity(id graph.NodeID, rec *IdentityRecord) {
	for pair, seq := range al.nextSeq {
		if pair[0] != id {
			continue
		}
		if rec.SendSeq == nil {
			rec.SendSeq = make(map[graph.NodeID]uint64)
		}
		rec.SendSeq[pair[1]] = seq
	}
	for pair, rw := range al.windows {
		if pair[0] != id || !rw.inited {
			continue
		}
		if rec.Windows == nil {
			rec.Windows = make(map[graph.NodeID]ReplayState)
		}
		rec.Windows[pair[1]] = ReplayState{Hi: rw.hi, Bits: rw.bits}
	}
	for pair, n := range al.strikes {
		if pair[0] != id {
			continue
		}
		if rec.Strikes == nil {
			rec.Strikes = make(map[graph.NodeID]int)
		}
		rec.Strikes[pair[1]] = n
	}
	for pair, b := range al.budgets {
		if pair[0] != id {
			continue
		}
		if rec.Budgets == nil {
			rec.Budgets = make(map[graph.NodeID]int)
		}
		rec.Budgets[pair[1]] = b
	}
	for pair := range al.quarantined {
		if pair[0] != id {
			continue
		}
		if rec.Quarantined == nil {
			rec.Quarantined = make(map[graph.NodeID]int64)
		}
		rec.Quarantined[pair[1]] = al.paroleAt[pair]
	}
}

// dropIdentity forgets an entity's in-memory auth state, sender and
// receiver side — what a crash or departure does to state that was only
// in memory. Clearing paroleAt also retires any pending parole timers for
// the entity's quarantines: they check the deadline on firing and find it
// gone (or replaced by a restore, which re-arms its own). A session-keyed
// departure drops exactly the same state.
func (al *authLayer) dropIdentity(id graph.NodeID, _ bool) {
	for pair := range al.nextSeq {
		if pair[0] == id {
			delete(al.nextSeq, pair)
		}
	}
	for pair := range al.windows {
		if pair[0] == id {
			delete(al.windows, pair)
		}
	}
	for pair := range al.strikes {
		if pair[0] == id {
			delete(al.strikes, pair)
		}
	}
	for pair := range al.budgets {
		if pair[0] == id {
			delete(al.budgets, pair)
		}
	}
	for pair := range al.quarantined {
		if pair[0] == id {
			delete(al.quarantined, pair)
			delete(al.paroleAt, pair)
		}
	}
}

// restoreIdentity reinstates a persisted identity record on recovery or
// durable-identity rejoin. Quarantines come back with their parole timers
// re-armed for the time REMAINING to the original absolute deadline — a
// deadline that passed while the entity was down paroles immediately —
// so a crash mid-parole neither restarts the clock nor forgets the
// halved budget.
func (al *authLayer) restoreIdentity(w *World, id graph.NodeID, rec IdentityRecord) {
	for to, seq := range rec.SendSeq {
		al.nextSeq[[2]graph.NodeID{id, to}] = seq
	}
	for from, ws := range rec.Windows {
		al.windows[[2]graph.NodeID{id, from}] = &replayWindow{inited: true, hi: ws.Hi, bits: ws.Bits}
	}
	for peer, n := range rec.Strikes {
		al.strikes[[2]graph.NodeID{id, peer}] = n
	}
	for peer, b := range rec.Budgets {
		al.budgets[[2]graph.NodeID{id, peer}] = b
	}
	now := int64(w.Engine.Now())
	for offender, deadline := range rec.Quarantined {
		pair := [2]graph.NodeID{id, offender}
		al.quarantined[pair] = true
		if deadline == 0 {
			continue // permanent (no parole configured at quarantine time)
		}
		al.paroleAt[pair] = deadline
		remaining := deadline - now
		if remaining < 0 {
			remaining = 0
		}
		al.scheduleParole(w, pair[0], pair[1], deadline, sim.Time(remaining))
	}
}

// resetAbout wipes every OTHER entity's receiver-side auth state about
// one identity — windows, strikes, budgets, quarantines. This is what a
// session-keyed rejoin does (the new session is a fresh principal, so
// peers re-establish everything from scratch). The pair keys are this
// layer's, so it counts the session reset; the standing quarantines it
// erased are the laundering measurement.
func (al *authLayer) resetAbout(id graph.NodeID, c *IdentityCounters) {
	for pair := range al.windows {
		if pair[1] == id {
			delete(al.windows, pair)
		}
	}
	for pair := range al.strikes {
		if pair[1] == id {
			delete(al.strikes, pair)
		}
	}
	for pair := range al.budgets {
		if pair[1] == id {
			delete(al.budgets, pair)
		}
	}
	for pair := range al.quarantined {
		if pair[1] == id {
			delete(al.quarantined, pair)
			delete(al.paroleAt, pair)
			c.QuarantinesLaundered++
		}
	}
	c.SessionResets++
}

// admit is the receiver's first gate: quarantine filter, then
// authenticator verification. It records drops and marks itself; a false
// return means the copy must not proceed.
func (al *authLayer) admit(w *World, m Message) bool {
	now := int64(w.Engine.Now())
	pair := [2]graph.NodeID{m.To, m.From}
	if al.quarantined[pair] {
		al.stats.DroppedQuarantined++
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		return false
	}
	if m.aseq == 0 || m.mac != al.macFor(w.stackFor(m.epoch).KeyEpoch, m.From, m.To, m.aseq, m.Tag, m.bseq, m.sig, m.epoch, m.Payload) {
		al.stats.RejectedCorrupt++
		w.Trace.Mark(now, m.To, MarkAuthRejectCorrupt)
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		al.strike(w, m.To, m.From)
		return false
	}
	return true
}

// admitSeq is the receiver's second gate: the anti-replay window. It runs
// after the reliable sublayer's duplicate suppression, so benign
// retransmissions never reach it — whatever it rejects was replayed by the
// channel, not retried by a well-behaved sender.
func (al *authLayer) admitSeq(w *World, m Message) bool {
	now := int64(w.Engine.Now())
	pair := [2]graph.NodeID{m.To, m.From}
	rw := al.windows[pair]
	if rw == nil {
		rw = &replayWindow{}
		al.windows[pair] = rw
	}
	if !rw.accept(m.aseq, al.cfg.ReplayWindow) {
		al.stats.RejectedReplay++
		w.Trace.Mark(now, m.To, MarkAuthRejectReplay)
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		al.strike(w, m.To, m.From)
		return false
	}
	al.stats.Accepted++
	return true
}

// budget returns the link's current misbehavior budget: the configured one
// until parole has halved it.
func (al *authLayer) budget(pair [2]graph.NodeID) int {
	if b, ok := al.budgets[pair]; ok {
		return b
	}
	return al.cfg.Budget
}

// strike charges one misbehavior to the (receiver, claimed sender) budget
// and quarantines the link when it runs out.
func (al *authLayer) strike(w *World, by, offender graph.NodeID) {
	pair := [2]graph.NodeID{by, offender}
	al.strikes[pair]++
	if al.strikes[pair] <= al.budget(pair) || al.quarantined[pair] {
		return
	}
	al.quarantine(w, by, offender)
}

// quarantine cuts the (by, offender) link and, with parole configured,
// schedules its timed reinstatement. Both the budget path (strike) and the
// audit sublayer's proof path converge here so parole governs every kind
// of quarantine uniformly.
func (al *authLayer) quarantine(w *World, by, offender graph.NodeID) {
	pair := [2]graph.NodeID{by, offender}
	if al.quarantined[pair] {
		return
	}
	al.quarantined[pair] = true
	now := int64(w.Engine.Now())
	al.stats.Quarantines++
	w.Trace.Mark(now, offender, MarkAuthQuarantine)
	al.events = append(al.events, QuarantineEvent{At: now, By: by, Offender: offender})
	if w.pex != nil {
		// Mirror the verdict into the membership layer: evict everything
		// the offender fed the quarantining entity's view and cut the link.
		w.pex.onQuarantine(w, by, offender)
	}
	if al.cfg.Parole > 0 {
		deadline := now + al.cfg.Parole
		al.paroleAt[pair] = deadline
		al.scheduleParole(w, by, offender, deadline, sim.Time(al.cfg.Parole))
	}
}

// scheduleParole arms one parole timer bound to an absolute deadline. The
// deadline check on firing makes timers from superseded quarantine state
// (dropped by a crash or departure, re-armed by a restore) no-ops.
func (al *authLayer) scheduleParole(w *World, by, offender graph.NodeID, deadline int64, in sim.Time) {
	pair := [2]graph.NodeID{by, offender}
	w.Engine.After(in, func() {
		if al.paroleAt[pair] != deadline {
			return
		}
		al.parole(w, by, offender)
	})
}

// parole reinstates a quarantined link with its misbehavior budget halved:
// the strike count resets, but the next quarantine of the same link needs
// half as much evidence. A budget that reaches 0 re-quarantines on the
// first further rejection — the geometric squeeze on repeat offenders.
// Proof state the audit sublayer holds against the offender is cleared
// too; re-conviction requires fresh conflicting receipts.
func (al *authLayer) parole(w *World, by, offender graph.NodeID) {
	pair := [2]graph.NodeID{by, offender}
	if !al.quarantined[pair] {
		return
	}
	delete(al.quarantined, pair)
	delete(al.paroleAt, pair)
	al.strikes[pair] = 0
	al.budgets[pair] = al.budget(pair) / 2
	now := int64(w.Engine.Now())
	w.Trace.Mark(now, offender, MarkAuthParole)
	al.paroles = append(al.paroles, QuarantineEvent{At: now, By: by, Offender: offender})
	if w.audit != nil {
		w.audit.pardon(by, offender)
	}
	if w.pex != nil {
		w.pex.pardon(by, offender)
	}
}

// AuthTotals returns the authentication sublayer's counters (the zero
// value when the sublayer is disabled).
func (w *World) AuthTotals() AuthCounters { return w.authStats }

// QuarantineEvents returns the quarantine decisions of the run, in time
// order (nil when the sublayer is disabled or nothing was quarantined).
func (w *World) QuarantineEvents() []QuarantineEvent {
	if w.auth == nil {
		return nil
	}
	out := make([]QuarantineEvent, len(w.auth.events))
	copy(out, w.auth.events)
	return out
}

// ParoleEvents returns the parole reinstatements of the run, in time order
// (nil when the sublayer is disabled or parole never fired).
func (w *World) ParoleEvents() []QuarantineEvent {
	if w.auth == nil {
		return nil
	}
	out := make([]QuarantineEvent, len(w.auth.paroles))
	copy(out, w.auth.paroles)
	return out
}

// Quarantined reports whether the (by, offender) link is currently cut.
func (w *World) Quarantined(by, offender graph.NodeID) bool {
	return w.auth != nil && w.auth.quarantined[[2]graph.NodeID{by, offender}]
}
