package node

import "repro/internal/graph"

// sublayer is the one seam between World and its optional sublayers.
// NewWorld lines the enabled ones up once, in stack order — reliable,
// auth, audit, reconfig, pex — and every membership transition (Join,
// Leave, Crash, Recover) and every identity step walks that slice
// instead of asking which layers exist. A layer embeds noHooks and
// overrides only the hooks it needs.
//
// The message path (Proc.Send, transmit, deliver) deliberately stays out
// of the seam: the order in which the layers see a copy there is an
// interleaving contract — the MAC check before the reliable ack, the
// anti-replay window after dedup — written out in one explicit body.
type sublayer interface {
	// arrive runs when id enters (Join or Recover), before the identity
	// step and before its behavior starts.
	arrive(id graph.NodeID)
	// start runs once p's behavior has started (Init or Restore).
	start(w *World, p *Proc)
	// depart runs when id has left (Leave or Crash) and its timers died.
	depart(id graph.NodeID)
	// saveIdentity adds the layer's identity-keyed state of id to rec.
	saveIdentity(id graph.NodeID, rec *IdentityRecord)
	// dropIdentity forgets id's in-memory identity state. session marks a
	// session-keyed departure, whose receiver-side memory dies with it.
	dropIdentity(id graph.NodeID, session bool)
	// restoreIdentity reinstates a persisted identity record on id.
	restoreIdentity(w *World, id graph.NodeID, rec IdentityRecord)
	// resetAbout wipes every other entity's state about id at a
	// session-keyed rejoin, counting what it laundered into c.
	resetAbout(id graph.NodeID, c *IdentityCounters)
}

// noHooks is the do-nothing sublayer every layer embeds.
type noHooks struct{}

func (noHooks) arrive(graph.NodeID)                                  {}
func (noHooks) start(*World, *Proc)                                  {}
func (noHooks) depart(graph.NodeID)                                  {}
func (noHooks) saveIdentity(graph.NodeID, *IdentityRecord)           {}
func (noHooks) dropIdentity(graph.NodeID, bool)                      {}
func (noHooks) restoreIdentity(*World, graph.NodeID, IdentityRecord) {}
func (noHooks) resetAbout(graph.NodeID, *IdentityCounters)           {}
