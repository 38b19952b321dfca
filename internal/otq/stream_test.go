package otq

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
)

// The streaming checker is the package's one validity judge, and its
// contract is bit-for-bit equality with the set-based oracle
// (OracleCheck). These tests replay scripted, randomized and fuzzed event
// streams through the live checker, through CheckWith's replay of the
// stored log, and through a count-only twin of the trace, proving the
// verdict never depended on retained events.

type scriptStep struct {
	ev      *core.TraceEvent
	arm     bool
	resolve bool
}

type checkScript struct {
	querier  graph.NodeID
	started  core.Time
	ansAt    core.Time
	contribs map[graph.NodeID]float64
	steps    []scriptStep
	horizon  core.Time
}

func testValueOf(id graph.NodeID) float64 { return float64(id) * 3 }

// runScript replays one script through the oracle, the live streaming
// checker, CheckWith's replay of the same full trace, and a live checker
// on a count-only trace, and requires all four outcomes identical — and
// the count-only trace's counters equal to the full trace's.
func runScript(t *testing.T, name string, sc checkScript, opts CheckOptions) {
	t.Helper()
	tr := &core.Trace{}
	c := NewStreamChecker(opts)
	tr.Stream(c.Observe)
	run := &Run{Querier: sc.querier, Started: sc.started}

	trLite := &core.Trace{}
	trLite.SetCountOnly(true)
	cLite := NewStreamChecker(opts)
	trLite.Stream(cLite.Observe)
	runLite := &Run{Querier: sc.querier, Started: sc.started}

	for _, st := range sc.steps {
		if st.arm {
			c.Arm(run)
			cLite.Arm(runLite)
		}
		if st.resolve {
			run.resolve(sc.ansAt, sc.contribs)
			runLite.resolve(sc.ansAt, sc.contribs)
		}
		if st.ev != nil {
			tr.Record(*st.ev)
			trLite.Record(*st.ev)
		}
	}
	tr.Close(sc.horizon)
	trLite.Close(sc.horizon)

	want := OracleCheck(tr, run, testValueOf, opts)
	got := c.Finish(tr.End(), testValueOf)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s (opts %+v): stream verdict diverged\noracle: %+v\nstream: %+v", name, opts, want, got)
	}
	if replay := CheckWith(tr, run, testValueOf, opts); !reflect.DeepEqual(want, replay) {
		t.Errorf("%s (opts %+v): replayed verdict diverged\noracle: %+v\nreplay: %+v", name, opts, want, replay)
	}
	gotLite := cLite.Finish(trLite.End(), testValueOf)
	if !reflect.DeepEqual(want, gotLite) {
		t.Errorf("%s (opts %+v): count-only stream verdict diverged\noracle: %+v\nlite:   %+v", name, opts, want, gotLite)
	}
	if err := countersAgree(tr, trLite); err != "" {
		t.Errorf("%s: %s", name, err)
	}
}

// countersAgree compares every counter a count-only trace keeps against
// its fully retained twin, returning a description of the first
// mismatch.
func countersAgree(full, lite *core.Trace) string {
	if full.Len() != lite.Len() || full.End() != lite.End() || full.MaxConcurrency() != lite.MaxConcurrency() {
		return fmt.Sprintf("counters diverged: full len/end/peak %d/%d/%d, count-only %d/%d/%d",
			full.Len(), full.End(), full.MaxConcurrency(), lite.Len(), lite.End(), lite.MaxConcurrency())
	}
	for _, ev := range full.Events() {
		switch ev.Kind {
		case core.TSend, core.TDeliver, core.TDrop:
			if full.Messages(ev.Tag) != lite.Messages(ev.Tag) {
				return fmt.Sprintf("Messages(%q) diverged", ev.Tag)
			}
		case core.TMark:
			fa, _ := full.FirstMark(ev.Tag)
			la, ok := lite.FirstMark(ev.Tag)
			if !ok || fa != la {
				return fmt.Sprintf("FirstMark(%q) diverged", ev.Tag)
			}
		}
	}
	if full.Messages("") != lite.Messages("") {
		return "Messages(\"\") diverged"
	}
	return ""
}

func ev(at core.Time, kind core.TraceEventKind, p graph.NodeID) *core.TraceEvent {
	return &core.TraceEvent{At: at, Kind: kind, P: p}
}

func edge(at core.Time, kind core.TraceEventKind, p, q graph.NodeID) *core.TraceEvent {
	return &core.TraceEvent{At: at, Kind: kind, P: p, Q: q}
}

func mark(at core.Time, p graph.NodeID, tag string) *core.TraceEvent {
	return &core.TraceEvent{At: at, Kind: core.TMark, P: p, Tag: tag}
}

func allModes() []CheckOptions {
	return []CheckOptions{
		{},
		{BridgeRecoveries: true},
		{BridgeRejoins: true},
	}
}

// Hand-written scripts target the same-tick and bridging corners where an
// incremental reconstruction is easiest to get wrong.
func TestStreamCheckerScriptedEdgeCases(t *testing.T) {
	scripts := map[string]checkScript{
		"baseline covered": {
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3, 2: 6},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{ev: edge(1, core.TEdgeUp, 1, 2)},
				{arm: true},
				{ev: edge(6, core.TEdgeUp, 1, 2)},
				{resolve: true},
				{ev: ev(10, core.TLeave, 2)},
			},
		},
		"join and leave at the arm tick": {
			// Entity 3 joins and leaves AT started: never stable, and
			// ever-present only if its session outlives the tick (it does
			// not: To == started). Entity 4 joins at started and stays.
			querier: 1, started: 5, ansAt: 9,
			contribs: map[graph.NodeID]float64{1: 3, 3: 9},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(5, core.TJoin, 3)},
				{arm: true},
				{ev: ev(5, core.TLeave, 3)},
				{ev: ev(5, core.TJoin, 4)},
				{ev: edge(6, core.TEdgeUp, 1, 4)},
				{resolve: true},
			},
		},
		"close and reopen within the arm tick": {
			// Entity 2's first session dies at started; its second, also
			// opening at started, survives the window — it is stable.
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  10,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(2, core.TJoin, 2)},
				{arm: true},
				{ev: ev(5, core.TLeave, 2)},
				{ev: ev(5, core.TJoin, 2)},
				{resolve: true},
				{ev: ev(9, core.TLeave, 2)},
			},
		},
		"crash bridged across the window": {
			// Entity 2 crashes mid-window and recovers before the answer:
			// stable under BridgeRecoveries, missed under plain sessions.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{mark(6, 2, core.MarkCrash), false, false},
				{ev: ev(6, core.TLeave, 2)},
				{mark(8, 2, core.MarkRecover), false, false},
				{ev: ev(8, core.TJoin, 2)},
				{resolve: true},
			},
		},
		"suspended at arm, resumes in window": {
			// Entity 2 crashed BEFORE the query and recovers inside the
			// window: its bridged session spans the arm.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{mark(3, 2, core.MarkCrash), false, false},
				{ev: ev(3, core.TLeave, 2)},
				{arm: true},
				{mark(7, 2, core.MarkRecover), false, false},
				{ev: ev(7, core.TJoin, 2)},
				{resolve: true},
			},
		},
		"improper join discards the suspended interval": {
			// Entity 2 crashes, then joins WITHOUT a recover mark: the
			// batch reconstruction forgets the suspended interval and the
			// new session starts too late to be stable.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{mark(6, 2, core.MarkCrash), false, false},
				{ev: ev(6, core.TLeave, 2)},
				{ev: ev(8, core.TJoin, 2)},
				{arm: false}, // placeholder ordering note: arm below
				{resolve: false},
			},
		},
		"rejoin bridged identity": {
			querier: 1, started: 5, ansAt: 11,
			contribs: map[graph.NodeID]float64{1: 3, 2: 6},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{ev: ev(6, core.TLeave, 2)},
				{mark(9, 2, core.MarkRejoin), false, false},
				{ev: ev(9, core.TJoin, 2)},
				{resolve: true},
			},
		},
		"querier departs before answering": {
			querier: 1, started: 5, ansAt: 0,
			horizon: 12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{ev: ev(7, core.TLeave, 1)},
			},
		},
		"no answer, querier stays": {
			querier: 1, started: 5, ansAt: 0,
			horizon: 12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{ev: ev(7, core.TLeave, 2)},
			},
		},
		"answer at the arm tick": {
			querier: 1, started: 5, ansAt: 5,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  9,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{resolve: true},
				{ev: ev(7, core.TLeave, 2)},
			},
		},
		"fabricated and wrong-valued contributors": {
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3, 2: 1, 99: 7},
			horizon:  10,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{resolve: true},
			},
		},
		"partitioned stable member is unreachable": {
			querier: 1, started: 5, ansAt: 9,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{ev: ev(0, core.TJoin, 3)},
				{ev: edge(1, core.TEdgeUp, 1, 2)},
				{arm: true},
				{ev: edge(6, core.TEdgeDown, 1, 2)},
				{resolve: true},
			},
		},
		"marks collected over the whole run": {
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{mark(2, 2, node.MarkAuthQuarantine), false, false},
				{arm: true},
				{resolve: true},
				{mark(10, 2, core.MarkProvenEquivocator), false, false},
				{mark(11, 1, core.MarkEpochSwitch), false, false},
			},
		},
	}
	// The "improper join" script needs arm/resolve placed explicitly.
	improper := scripts["improper join discards the suspended interval"]
	improper.steps = []scriptStep{
		{ev: ev(0, core.TJoin, 1)},
		{ev: ev(0, core.TJoin, 2)},
		{arm: true},
		{mark(6, 2, core.MarkCrash), false, false},
		{ev: ev(6, core.TLeave, 2)},
		{ev: ev(8, core.TJoin, 2)},
		{resolve: true},
	}
	scripts["improper join discards the suspended interval"] = improper

	for name, sc := range scripts {
		for _, opts := range allModes() {
			runScript(t, name, sc, opts)
		}
	}
}

// scriptSource is what genScript draws its choices from: a seeded
// generator for the randomized differential, fuzzer bytes for the fuzz
// target.
type scriptSource interface {
	Intn(n int) int
	Bool(p float64) bool
}

// genScript draws an arbitrary monotone event stream with churn, link
// flaps, lifecycle marks, a mid-tick arm and a resolution, plus the
// answer's contributors (some corrupted, possibly one never present).
func genScript(r scriptSource) checkScript {
	const entities = 6
	started := core.Time(4 + r.Intn(4))
	ansAt := started + core.Time(r.Intn(6))
	horizon := ansAt + core.Time(r.Intn(5)) + 2

	var events []core.TraceEvent
	tags := []string{
		core.MarkCrash, core.MarkRecover, core.MarkRejoin,
		node.MarkAuthQuarantine, core.MarkProvenEquivocator, core.MarkEpochSwitch,
	}
	for tick := core.Time(0); tick <= horizon; tick++ {
		for i := 0; i < r.Intn(4); i++ {
			p := graph.NodeID(1 + r.Intn(entities))
			switch r.Intn(6) {
			case 0:
				events = append(events, core.TraceEvent{At: tick, Kind: core.TJoin, P: p})
			case 1:
				events = append(events, core.TraceEvent{At: tick, Kind: core.TLeave, P: p})
			case 2, 3:
				q := graph.NodeID(1 + r.Intn(entities))
				if q == p {
					continue
				}
				kind := core.TEdgeUp
				if r.Bool(0.5) {
					kind = core.TEdgeDown
				}
				events = append(events, core.TraceEvent{At: tick, Kind: kind, P: p, Q: q})
			default:
				events = append(events, core.TraceEvent{At: tick, Kind: core.TMark, P: p, Tag: tags[r.Intn(len(tags))]})
			}
		}
	}

	// Place arm among the events of tick `started` (mid-tick, as in a
	// live run), and the resolution anywhere at or after it while
	// events are still <= ansAt.
	tickEnd := 0
	for tickEnd < len(events) && events[tickEnd].At <= started {
		tickEnd++
	}
	tickStart := tickEnd
	for tickStart > 0 && events[tickStart-1].At == started {
		tickStart--
	}
	armPos := tickStart + r.Intn(tickEnd-tickStart+1)
	resolvePos := -1
	if r.Intn(10) < 8 {
		lastOK := armPos
		for i := armPos; i < len(events); i++ {
			if events[i].At <= ansAt {
				lastOK = i + 1
			} else {
				break
			}
		}
		resolvePos = armPos + r.Intn(lastOK-armPos+1)
	}

	contribs := map[graph.NodeID]float64{}
	for p := graph.NodeID(1); p <= entities; p++ {
		if r.Bool(0.5) {
			v := testValueOf(p)
			if r.Intn(5) == 0 {
				v++ // corrupted value
			}
			contribs[p] = v
		}
	}
	if r.Intn(3) == 0 {
		contribs[99] = 7 // never-present contributor
	}

	sc := checkScript{
		querier:  graph.NodeID(1 + r.Intn(entities)),
		started:  started,
		ansAt:    ansAt,
		contribs: contribs,
		horizon:  horizon,
	}
	for i, e := range events {
		e := e
		if i == armPos {
			sc.steps = append(sc.steps, scriptStep{arm: true})
		}
		if i == resolvePos {
			sc.steps = append(sc.steps, scriptStep{resolve: true})
		}
		sc.steps = append(sc.steps, scriptStep{ev: &e})
	}
	if armPos == len(events) {
		sc.steps = append(sc.steps, scriptStep{arm: true})
	}
	if resolvePos == len(events) {
		sc.steps = append(sc.steps, scriptStep{resolve: true})
	}
	return sc
}

// Randomized differential: any divergence between the oracle and the
// streaming judge, live or replayed, fails.
func TestStreamCheckerRandomDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		sc := genScript(rng.New(seed))
		for _, opts := range allModes() {
			runScript(t, "random", sc, opts)
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// byteSource feeds genScript from fuzzer input; an exhausted input reads
// as zeros, so every byte string decodes to some script.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *byteSource) Intn(n int) int      { return int(s.next()) % n }
func (s *byteSource) Bool(p float64) bool { return float64(s.next()) < p*256 }

// FuzzOTQDifferential decodes arbitrary bytes into a script — entities'
// churn and links, lifecycle marks, arm and resolve positions,
// contributors — and requires, in all three bridging modes, that the
// live stream, CheckWith's replay and the oracle agree, and that the
// count-only trace's counters equal the full trace's.
func FuzzOTQDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 2, 0, 1, 1, 0, 2, 3, 2, 5, 1, 3, 4, 0, 2, 2, 1, 9, 7, 200, 100, 50})
	r := rng.New(29)
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64)
		for j := range seed {
			seed[j] = byte(r.Intn(256))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := genScript(&byteSource{b: data})
		for _, opts := range allModes() {
			runScript(t, "fuzz", sc, opts)
		}
	})
}
