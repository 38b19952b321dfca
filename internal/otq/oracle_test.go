package otq

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
)

// OracleCheck is the set-based One-Time Query validity judgment: stable
// participants, ever-presence and temporal reachability each recomputed
// from the whole stored log by the trace's session reconstructions. It
// was the production checker until CheckWith became a replay through
// StreamChecker; it lives on here, unchanged, as the differential oracle
// the scripted, randomized, fuzzed and scenario tests hold the streaming
// judge to. Exported so the package's external tests (which drive whole
// worlds through internal/exp) can reach it.
func OracleCheck(tr *core.Trace, r *Run, valueOf func(graph.NodeID) float64, opts CheckOptions) Outcome {
	stableBetween := tr.StableBetween
	if opts.BridgeRecoveries {
		stableBetween = tr.StableBetweenBridged
	}
	if opts.BridgeRejoins {
		stableBetween = tr.StableBetweenRejoinBridged
	}
	ans := r.Answer()
	if ans == nil {
		out := Outcome{StableCount: len(stableBetween(r.Started, tr.End()))}
		for _, id := range tr.PresentAt(tr.End()) {
			if id == r.Querier {
				return out
			}
		}
		out.QuerierLeft = true
		return out
	}
	out := Outcome{Terminated: true, Duration: ans.At - r.Started}
	stable := stableBetween(r.Started, ans.At)
	out.StableCount = len(stable)
	out.Quarantined = tr.MarkedEntities(node.MarkAuthQuarantine)
	quarantined := map[graph.NodeID]bool{}
	for _, id := range out.Quarantined {
		quarantined[id] = true
	}
	out.ProvenEquivocators = tr.ProvenEquivocators()
	out.EpochSwitchers = tr.MarkedEntities(core.MarkEpochSwitch)
	proven := map[graph.NodeID]bool{}
	for _, id := range out.ProvenEquivocators {
		proven[id] = true
	}
	everPresent := map[graph.NodeID]bool{}
	for _, id := range tr.EverPresentBetween(r.Started, ans.At) {
		everPresent[id] = true
	}
	reachable := tr.Temporal().ReachableFrom(r.Querier, r.Started, ans.At)
	for _, id := range stable {
		if _, ok := ans.Contributors[id]; ok {
			out.CoveredStable++
		} else {
			out.MissedStable = append(out.MissedStable, id)
			if reachable[id] {
				out.MissedReachableStable = append(out.MissedReachableStable, id)
			}
			if quarantined[id] {
				out.MissedQuarantined = append(out.MissedQuarantined, id)
			}
			if proven[id] {
				out.MissedProven = append(out.MissedProven, id)
			}
		}
	}
	ids := make([]graph.NodeID, 0, len(ans.Contributors))
	for id := range ans.Contributors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !everPresent[id] {
			out.Fabricated = append(out.Fabricated, id)
		} else if valueOf != nil && ans.Contributors[id] != valueOf(id) {
			out.WrongValue = append(out.WrongValue, id)
		}
	}
	return out
}
