package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
)

// tracer records one traced world's layer spans from outside the
// program: around the public calls the workload makes, around the
// behaviour factory's Init/Receive, and around the checker sinks. It also
// folds every recorded event into the world's FNV-1a digest. A nil
// tracer is an untraced world: every method then calls straight through.
type tracer struct {
	spans map[string]time.Duration // inclusive time per named span
	open  []time.Time              // starts of the spans now open
	// inRun is set while a post-setup RunUntil executes; runChild sums
	// the outermost child spans inside it, so the runtime's self time is
	// sim.run_s minus runChild.
	inRun    bool
	runChild time.Duration
	digest   uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newTracer() *tracer {
	return &tracer{spans: map[string]time.Duration{}, digest: fnvOffset}
}

func (t *tracer) begin() { t.open = append(t.open, time.Now()) }

func (t *tracer) end(name string) {
	n := len(t.open) - 1
	d := time.Since(t.open[n])
	t.open = t.open[:n]
	t.spans[name] += d
	if n == 0 && t.inRun {
		t.runChild += d
	}
}

// span times fn as the named span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin()
	fn()
	t.end(name)
}

// run times one post-setup RunUntil as sim.run_s.
func (t *tracer) run(fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	t.inRun = true
	fn()
	t.inRun = false
	t.spans["sim.run_s"] += time.Since(start)
}

// sink wraps a checker's Trace.Stream sink in the <layer>.stream_check_s
// span.
func (t *tracer) sink(layer string, fn func(core.TraceEvent)) func(core.TraceEvent) {
	if t == nil {
		return fn
	}
	name := layer + ".stream_check_s"
	return func(ev core.TraceEvent) {
		t.begin()
		fn(ev)
		t.end(name)
	}
}

// factory wraps every entity's behaviour in a composite whose first and
// last parts open and close the <layer>.behavior_s span, so the span
// covers Init and Receive including the sublayer work their sends
// trigger. A composite keeps node.FindBehavior working for the
// protocols' launchers. None of the workloads crashes an entity, so the
// composite's not being Recoverable changes no behaviour; the
// traced/untraced counter comparison would show it if it did.
func (t *tracer) factory(layer string, f node.BehaviorFactory) node.BehaviorFactory {
	if t == nil || f == nil {
		return f
	}
	open, close := spanOpen{t}, spanClose{t, layer + ".behavior_s"}
	return func(id graph.NodeID) node.Behavior { return node.Compose(open, f(id), close) }
}

type spanOpen struct{ t *tracer }

func (o spanOpen) Init(*node.Proc)                  { o.t.begin() }
func (o spanOpen) Receive(*node.Proc, node.Message) { o.t.begin() }

type spanClose struct {
	t    *tracer
	name string
}

func (c spanClose) Init(*node.Proc)                  { c.t.end(c.name) }
func (c spanClose) Receive(*node.Proc, node.Message) { c.t.end(c.name) }

// attachDigest registers the digest sink; call it before the first event
// is recorded.
func (t *tracer) attachDigest(tr *core.Trace) {
	if t != nil {
		tr.Stream(t.fold)
	}
}

// fold adds one event to the FNV-1a digest: time, kind, both entities,
// the tag, and a terminator so adjacent tags cannot run together.
func (t *tracer) fold(ev core.TraceEvent) {
	h := t.digest
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	word(uint64(ev.At))
	h ^= uint64(ev.Kind)
	h *= fnvPrime
	word(uint64(ev.P))
	word(uint64(ev.Q))
	for i := 0; i < len(ev.Tag); i++ {
		h ^= uint64(ev.Tag[i])
		h *= fnvPrime
	}
	h ^= 0xff
	h *= fnvPrime
	t.digest = h
}

func (t *tracer) digestValue() uint64 {
	if t == nil {
		return 0
	}
	return t.digest
}
