package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/dynreg"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tq"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current code")

// goldenCell is one behaviour pin: a digest over every recorded event,
// the trace's counters, and the checker's verdict for one (scenario,
// seed) pair.
type goldenCell struct {
	Cell           string            `json:"cell"`
	Digest         string            `json:"digest"`
	Len            int               `json:"len"`
	Messages       core.MessageStats `json:"messages"`
	MaxConcurrency int               `json:"max_concurrency"`
	Verdict        string            `json:"verdict"`
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// eventDigest is an FNV-1a fold over the event stream: time, kind, both
// entities, the tag, and a terminator so adjacent tags cannot run
// together. It is the same fold the whole-world benchmark checks, so a
// pinned digest here and a golden digest there move together.
type eventDigest struct {
	h uint64
	n int
}

func newEventDigest() *eventDigest { return &eventDigest{h: fnvOffset64} }

func (d *eventDigest) fold(ev core.TraceEvent) {
	h := d.h
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	word(uint64(ev.At))
	h ^= uint64(ev.Kind)
	h *= fnvPrime64
	word(uint64(ev.P))
	word(uint64(ev.Q))
	for i := 0; i < len(ev.Tag); i++ {
		h ^= uint64(ev.Tag[i])
		h *= fnvPrime64
	}
	h ^= 0xff
	h *= fnvPrime64
	d.h = h
	d.n++
}

// pin renders a closed, fully retained trace and a verdict as a cell.
func pin(t *testing.T, name string, tr *core.Trace, verdict string) goldenCell {
	d := newEventDigest()
	tr.Replay(d.fold)
	return pinDigest(t, name, tr, d, verdict)
}

// pinDigest renders a cell whose digest was folded by a live sink (the
// only way to digest a count-only trace).
func pinDigest(t *testing.T, name string, tr *core.Trace, d *eventDigest, verdict string) goldenCell {
	if d.n != tr.Len() {
		t.Fatalf("%s: digest folded %d events, trace counted %d", name, d.n, tr.Len())
	}
	return goldenCell{
		Cell:           name,
		Digest:         fmt.Sprintf("%016x", d.h),
		Len:            tr.Len(),
		Messages:       tr.Messages(""),
		MaxConcurrency: tr.MaxConcurrency(),
		Verdict:        verdict,
	}
}

// outcomeVerdict prints every Outcome field; the conversion drops the
// String method, which would print only the summary line.
func outcomeVerdict(out otq.Outcome) string {
	type fields otq.Outcome
	return fmt.Sprintf("%+v", fields(out))
}

func tqVerdict(rep tq.Report) string {
	return fmt.Sprintf("writes=%d quorums=%d softw=%d openw=%d reads=%d soft=%d expired=%d novalue=%d open=%d stale=%d fabricated=%d maxlag=%d retries=%d rlat=%.3f wlat=%.3f",
		rep.Writes, rep.WriteQuorums, rep.WriteSofts, rep.UnfinishedWrites,
		rep.Reads, rep.Soft, rep.Expired, rep.NoValue, rep.Unfinished,
		rep.Stale, rep.Fabricated, rep.MaxLag, rep.Retries,
		rep.MeanReadLatency(), rep.MeanWriteLatency())
}

func dynregVerdict(rep dynreg.Report) string { return fmt.Sprintf("%+v", rep) }

// goldenRegister runs a small single-writer register workload over live
// pex views under rejoining churn and 5% loss, with either register
// family, returning the run and the register's verdict.
func goldenRegister(seed uint64, useTQ bool) (RunResult, string) {
	const n, horizon = 36, 400
	var cl *tq.Client
	var sc *tq.StreamChecker
	var reg *dynreg.Register
	scen := Scenario{
		Seed:    seed,
		Overlay: manualOverlay,
		Churn: churn.Config{InitialPopulation: n, Immortal: true,
			ArrivalRate: 0.02 * n, Session: churn.ExpSessions(40),
			RejoinProb: 0.3, Downtime: churn.FixedSessions(8)},
		MinLatency: 1, MaxLatency: 2,
		LossRate: 0.05,
		Pex:      pex.Config{Enabled: true, SampleEvery: horizon},
		Horizon:  horizon,
	}
	if useTQ {
		cl = tq.NewClient(tq.Config{QuorumCoeff: 1.6, WalkTTL: 4, Walkers: 10, MaxLease: 64, Seed: seed})
		sc = tq.NewStreamChecker()
		scen.Factory = cl.Factory()
	} else {
		reg = &dynreg.Register{SpreadInterval: 4, WriteWindow: 16}
		scen.Factory = reg.Factory()
	}
	scen.Script = func(w *node.World, e *sim.Engine) {
		if sc != nil {
			w.Trace.Stream(sc.Observe)
		}
		e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
		e.At(80, func() {
			writer := w.Present()[0]
			if cl != nil {
				cl.Bootstrap(w, 0)
				cl.Attach(w)
			} else {
				reg.Bootstrap(w, 0)
			}
			val := 0.0
			wt := e.Every(16, func() {
				val++
				if cl != nil {
					cl.Write(w, writer, val)
				} else {
					reg.Write(w, writer, val)
				}
			})
			turn := 0
			rd := e.Every(7, func() {
				present := w.Present()
				id := present[turn%len(present)]
				turn++
				if cl != nil {
					cl.Read(w, id)
				} else {
					reg.Read(w, id)
				}
			})
			e.At(horizon-60, func() { wt.Stop(); rd.Stop() })
		})
	}
	res := Execute(scen)
	if useTQ {
		return res, tqVerdict(sc.Finish())
	}
	return res, dynregVerdict(dynreg.Check(res.Trace))
}

// goldenCells runs every pinned (scenario, seed) pair. Between them they
// stack every runtime sublayer — reliable, auth, audit with pull,
// durable identity, reconfiguration, pex under poisoning — both register
// families, and a count-only pex world judged by the streaming checker.
func goldenCells(t *testing.T) []goldenCell {
	q := Config{Quick: true}
	var cells []goldenCell

	// Plain sessions: the echo wave on a churning ring.
	res := Execute(Scenario{
		Seed:    1,
		Overlay: ringOverlay,
		Churn: churn.Config{InitialPopulation: 12, Immortal: true,
			ArrivalRate: 0.1, Session: churn.ExpSessions(60)},
		Protocol: func() otq.Protocol {
			return &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 500}
		},
		MinLatency: 1, MaxLatency: 2,
		QueryAt: 50, Horizon: 800,
	})
	cells = append(cells, pin(t, "echo wave, churning ring, seed 1", res.Trace, outcomeVerdict(res.Outcome)))

	// Reliable channels through a fault storm with crash-recovery bridging.
	res = Execute(Scenario{
		Seed:             3,
		Overlay:          manualOverlay,
		Script:           cycleScript(16),
		Protocol:         e21Echo,
		Faults:           e21Plan("storm+crash", 3),
		Reliable:         e21Reliable,
		BridgeRecoveries: true,
		QueryAt:          25,
		Horizon:          1500,
		MinLatency:       1, MaxLatency: 2,
	})
	cells = append(cells, pin(t, "reliable, E21 storm+crash, seed 3", res.Trace, outcomeVerdict(res.Outcome)))

	out, _, tr, _, _ := e22Run(q, e21Echo(), "byz-storm", 3, true)
	cells = append(cells, pin(t, "auth, E22 byz-storm, seed 3", tr, outcomeVerdict(out)))

	r23 := e23Run(q, e21Echo(), "equiv+forge", 3, true)
	cells = append(cells, pin(t, "audit, E23 equiv+forge, seed 3", r23.tr, outcomeVerdict(r23.out)))

	r24 := e24Run(q, e24Wave(), 3, e24Arms[2])
	cells = append(cells, pin(t, "audit+pull, E24 "+e24Arms[2].name+", seed 3", r24.tr, outcomeVerdict(r24.out)))

	r25 := e25Run(q, e24Wave(), 3, e25Arms[1])
	cells = append(cells, pin(t, "durable identity, E25 "+e25Arms[1].name+", seed 3", r25.tr, outcomeVerdict(r25.out)))

	r26 := e26Run(q, e24Wave(), 1, e26Arms[3])
	cells = append(cells, pin(t, "reconfig, E26 "+e26Arms[3].name+", seed 1", r26.tr, outcomeVerdict(r26.out)))

	// Pex under view poisoning with the view audit defending.
	const n27 = 32
	res = Execute(Scenario{
		Seed:    2,
		Overlay: manualOverlay,
		Script: func(w *node.World, e *sim.Engine) {
			for i := 1; i <= n27; i++ {
				w.Join(graph.NodeID(i))
			}
			w.PexSeedViews(topology.BuildRing(n27))
			e.At(10, func() { w.Leave(graph.NodeID(n27)) })
		},
		Faults:     e27Plan(2, e27Arms[2]),
		Auth:       node.AuthConfig{Enabled: true},
		Pex:        pex.Config{Enabled: true, Audit: pex.ViewAuditConfig{Enabled: true, KeySeed: 0x27}},
		MinLatency: 1, MaxLatency: 2,
		Horizon: e27Horizon(q),
	})
	cells = append(cells, pin(t, "pex+poison, E27 defended, seed 2", res.Trace,
		fmt.Sprintf("pex %+v auth %+v converged=%d", res.Pex, res.Auth, res.PexConvergedAt)))

	res, verdict := goldenRegister(4, true)
	cells = append(cells, pin(t, "tq register over pex, seed 4", res.Trace, verdict))

	res, verdict = goldenRegister(4, false)
	cells = append(cells, pin(t, "dynreg register over pex, seed 4", res.Trace, verdict))

	// Rejoining identities judged over rejoin-bridged sessions.
	res = Execute(Scenario{
		Seed:    1,
		Overlay: ringOverlay,
		Churn: churn.Config{InitialPopulation: 12,
			ArrivalRate: 0.15, Session: churn.ExpSessions(50),
			RejoinProb: 0.6, Downtime: churn.FixedSessions(6)},
		Protocol: func() otq.Protocol {
			return &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 800}
		},
		Identity:      node.IdentityConfig{Durable: true},
		QueryAt:       40,
		Horizon:       700,
		BridgeRejoins: true,
	})
	cells = append(cells, pin(t, "rejoin churn, rejoin bridging, seed 1", res.Trace, outcomeVerdict(res.Outcome)))

	// The E29 judged pex world under count-only retention: the digest
	// can only be folded live.
	lite := e29Cell{n: 1000, horizon: 88, queryAt: 44, lite: true}
	d := newEventDigest()
	sc := e29Scenario(1, lite)
	script := sc.Script
	sc.Script = func(w *node.World, e *sim.Engine) {
		w.Trace.Stream(d.fold)
		script(w, e)
	}
	res = Execute(sc)
	cells = append(cells, pinDigest(t, "E29 pex world n=1000, count-only trace, seed 1", res.Trace, d, outcomeVerdict(res.Outcome)))
	return cells
}

// TestGoldenPins asserts the checked-in behaviour pins: any change to an
// event stream, a trace counter or a verdict fails here. Regenerate with
// -update-golden only for a deliberate behaviour change, and explain it
// in CHANGES.md.
func TestGoldenPins(t *testing.T) {
	got, err := json.MarshalIndent(goldenCells(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantCells, gotCells []goldenCell
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("golden file unreadable: %v", err)
	}
	if err := json.Unmarshal(got, &gotCells); err != nil {
		t.Fatal(err)
	}
	if len(wantCells) != len(gotCells) {
		t.Fatalf("golden table has %d cells, the code produced %d", len(wantCells), len(gotCells))
	}
	for i := range wantCells {
		if wantCells[i] != gotCells[i] {
			t.Errorf("cell %q moved:\nwant %+v\ngot  %+v", wantCells[i].Cell, wantCells[i], gotCells[i])
		}
	}
	if !t.Failed() {
		t.Fatal("golden file differs from the rendered table only in formatting")
	}
}
