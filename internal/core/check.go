package core

import (
	"fmt"

	"repro/internal/graph"
)

// Violation is one way a recorded run falls outside a declared class.
type Violation struct {
	At  Time
	Msg string
}

func (v Violation) String() string { return fmt.Sprintf("t=%d: %s", v.At, v.Msg) }

// CheckReport is the outcome of checking a trace against a class, plus the
// observed quantities the check was based on.
type CheckReport struct {
	Class      Class
	Violations []Violation
	// ObservedConcurrency is the run's maximum simultaneous membership.
	ObservedConcurrency int
	// ObservedDiameter is the largest snapshot diameter seen, and
	// DiameterDefined whether every non-trivial snapshot was connected
	// (diameter undefined on a partitioned snapshot).
	ObservedDiameter int
	DiameterDefined  bool
	// QuiescentFrom is the time of the last topology change.
	QuiescentFrom Time
}

// OK reports whether the trace satisfied every class constraint.
func (r CheckReport) OK() bool { return len(r.Violations) == 0 }

// stabilityConvention: a finite trace witnesses eventual stability when it
// ends with a topology-quiescent suffix at least this fraction of the run.
// Eventual stability is a property of infinite runs; any finite-trace
// check is a convention, and this one (a quarter of the run quiet) is what
// the experiment harness and the checker agree on.
const stabilityDenominator = 4

// CheckClass verifies that a recorded run is admissible in class c and
// returns the evidence. Constraints that a finite trace cannot refute
// (e.g. the finiteness of concurrency in M^n) produce no violations.
func CheckClass(tr *Trace, c Class) CheckReport {
	rep := CheckReport{
		Class:               c,
		ObservedConcurrency: tr.MaxConcurrency(),
		DiameterDefined:     true,
		QuiescentFrom:       tr.LastTopologyChange(),
	}

	rep.checkSize(tr, c)
	rep.checkGeo(tr, c)

	if c.EventuallyStable {
		end := tr.End()
		quiet := end - rep.QuiescentFrom
		if end > 0 && quiet < end/stabilityDenominator {
			rep.add(rep.QuiescentFrom, fmt.Sprintf(
				"eventual stability not witnessed: last topology change at %d, run ends at %d (quiescent suffix %d < %d)",
				rep.QuiescentFrom, end, quiet, end/stabilityDenominator))
		}
	}
	return rep
}

func (r *CheckReport) add(at Time, msg string) {
	r.Violations = append(r.Violations, Violation{At: at, Msg: msg})
}

func (r *CheckReport) checkSize(tr *Trace, c Class) {
	switch c.Size {
	case SizeStatic:
		var start Time
		if evs := tr.log(); len(evs) > 0 {
			start = evs[0].At
		}
		joins := 0
		for _, ev := range tr.log() {
			switch ev.Kind {
			case TJoin:
				joins++
				if ev.At != start {
					r.add(ev.At, fmt.Sprintf("entity %d joined mid-run in a static class", ev.P))
				}
			case TLeave:
				r.add(ev.At, fmt.Sprintf("entity %d left in a static class", ev.P))
			}
		}
		if c.B > 0 && joins != c.B {
			r.add(start, fmt.Sprintf("static class declares n=%d but %d entities joined", c.B, joins))
		}
	case SizeBoundedKnown:
		if c.B > 0 && r.ObservedConcurrency > c.B {
			r.add(0, fmt.Sprintf("concurrency %d exceeds declared bound b=%d (M^b)",
				r.ObservedConcurrency, c.B))
		}
	case SizeBoundedUnknown, SizeUnbounded:
		// A finite trace always has finite concurrency: nothing refutable.
	}
}

func (r *CheckReport) checkGeo(tr *Trace, c Class) {
	g := graph.New()
	evs := tr.log()
	i := 0
	for i < len(evs) {
		t := evs[i].At
		changed := false
		for i < len(evs) && evs[i].At == t {
			switch evs[i].Kind {
			case TJoin:
				g.AddNode(evs[i].P)
				changed = true
			case TLeave:
				g.RemoveNode(evs[i].P)
				changed = true
			case TEdgeUp:
				g.AddEdge(evs[i].P, evs[i].Q)
				changed = true
			case TEdgeDown:
				g.RemoveEdge(evs[i].P, evs[i].Q)
				changed = true
			}
			i++
		}
		if !changed {
			continue
		}
		r.checkSnapshot(g, t, c)
	}
}

func (r *CheckReport) checkSnapshot(g *graph.Graph, t Time, c Class) {
	n := g.NumNodes()
	if n <= 1 {
		return // empty and singleton snapshots satisfy every geography
	}
	switch c.Geo {
	case GeoComplete:
		if g.NumEdges() != n*(n-1)/2 {
			r.add(t, fmt.Sprintf("snapshot not complete: %d nodes, %d edges", n, g.NumEdges()))
		}
	case GeoDiameterKnown, GeoDiameterBounded:
		d, ok := g.Diameter()
		if !ok {
			r.DiameterDefined = false
			r.add(t, "snapshot disconnected in an always-connected class")
			return
		}
		if d > r.ObservedDiameter {
			r.ObservedDiameter = d
		}
		if c.Geo == GeoDiameterKnown && c.D > 0 && d > c.D {
			r.add(t, fmt.Sprintf("snapshot diameter %d exceeds declared bound D=%d", d, c.D))
		}
	case GeoUnconstrained:
		if d, ok := g.Diameter(); ok && d > r.ObservedDiameter {
			r.ObservedDiameter = d
		} else if !ok {
			r.DiameterDefined = false
		}
	}
}

// InferClass returns the tightest class (along the paper's refinement
// order) that the recorded run witnesses. Since any finite trace has
// finite concurrency and finitely many snapshots, the inferred size model
// is SizeStatic or SizeBoundedKnown (with the observed bound) and the
// inferred geography carries observed bounds; whether the *generator*
// was M^n or M^infinity is not decidable from one finite run — that is
// precisely the paper's point about unknown-bound models.
func InferClass(tr *Trace) Class {
	c := Class{}

	static := true
	var start Time
	if evs := tr.log(); len(evs) > 0 {
		start = evs[0].At
	}
	for _, ev := range tr.log() {
		if ev.Kind == TLeave || (ev.Kind == TJoin && ev.At != start) {
			static = false
			break
		}
	}
	if static {
		c.Size = SizeStatic
		c.B = len(tr.Entities())
	} else {
		c.Size = SizeBoundedKnown
		c.B = tr.MaxConcurrency()
	}

	// Geography: replay snapshots.
	complete, connected := true, true
	maxDiam := 0
	g := graph.New()
	evs := tr.log()
	i := 0
	for i < len(evs) {
		t := evs[i].At
		changed := false
		for i < len(evs) && evs[i].At == t {
			switch evs[i].Kind {
			case TJoin:
				g.AddNode(evs[i].P)
				changed = true
			case TLeave:
				g.RemoveNode(evs[i].P)
				changed = true
			case TEdgeUp:
				g.AddEdge(evs[i].P, evs[i].Q)
				changed = true
			case TEdgeDown:
				g.RemoveEdge(evs[i].P, evs[i].Q)
				changed = true
			}
			i++
		}
		if !changed || g.NumNodes() <= 1 {
			continue
		}
		n := g.NumNodes()
		if g.NumEdges() != n*(n-1)/2 {
			complete = false
		}
		if d, ok := g.Diameter(); ok {
			if d > maxDiam {
				maxDiam = d
			}
		} else {
			connected = false
		}
	}
	switch {
	case complete:
		c.Geo = GeoComplete
	case connected:
		c.Geo = GeoDiameterKnown
		c.D = maxDiam
	default:
		c.Geo = GeoUnconstrained
	}

	end := tr.End()
	quiet := end - tr.LastTopologyChange()
	c.EventuallyStable = end == 0 || quiet >= end/stabilityDenominator
	return c
}
