package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fuzzFaults is FuzzWorld's fixed fault menu. The reconfig clause needs
// the reconfiguration layer and the poison clause the pex sublayer; the
// decoder switches those on rather than skip the input.
var fuzzFaults = []string{
	"",
	"burst:pgb=0.08,pbg=0.2,lossbad=0.95;dup:p=0.2",
	"crash:nodes=2+3,recover=30@40",
	"corrupt:nodes=3,p=0.25;replay:nodes=3,p=0.3,window=12;forge:nodes=4,as=2,p=0.3",
	"equiv:nodes=3,peers=2+4,p=1",
	"rejoin:nodes=3+4,down=20@50",
	"reconfig:nodes=1,every=30,count=3,rotate=1,adaptive=1,retain=64@40",
	"poison:nodes=4,rate=1,sybils=2,base=1000,dead=1,target=2@24-",
}

// fuzzWorld is one decoded FuzzWorld input: the knobs a scenario is
// rebuilt from for each run (protocols and fault plans are single-use).
type fuzzWorld struct {
	seed                                     uint64
	n                                        int
	horizon                                  sim.Time
	manual, churn, lossy                     bool
	reliable, auth, audit, durable, reconfig bool
	pex                                      bool
	faults                                   string
	protocol                                 int // 0 flood, 1 echo, 2 none
}

// decodeFuzzWorld maps any byte string onto a valid small world: n in
// [4, 32], horizon in [60, 200]. Missing bytes read as zero, and invalid
// combinations are mapped to valid ones — audit switches auth on, pex
// switches the overlay to manual link control.
func decodeFuzzWorld(data []byte) fuzzWorld {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		at++
		return data[at-1]
	}
	fw := fuzzWorld{seed: 1 + (uint64(next()) | uint64(next())<<8)}
	fw.n = 4 + int(next())%29
	fw.horizon = 60 + sim.Time(next())%141
	shape := next()
	fw.manual, fw.churn, fw.lossy = shape&1 != 0, shape&2 != 0, shape&4 != 0
	layers := next()
	fw.reliable, fw.auth, fw.audit = layers&1 != 0, layers&2 != 0, layers&4 != 0
	fw.durable, fw.reconfig, fw.pex = layers&8 != 0, layers&16 != 0, layers&32 != 0
	fw.protocol = int(next()) % 3
	fw.faults = fuzzFaults[int(next())%len(fuzzFaults)]
	switch {
	case strings.HasPrefix(fw.faults, "reconfig:"):
		fw.reconfig = true
	case strings.HasPrefix(fw.faults, "poison:"):
		fw.pex = true
	}
	if fw.audit {
		fw.auth = true
	}
	if fw.pex {
		fw.manual = true
	}
	return fw
}

// scenario builds a fresh scenario for one run of the world.
func (fw fuzzWorld) scenario(lite bool) Scenario {
	n := fw.n
	sc := Scenario{
		Seed:       fw.seed,
		Overlay:    ringOverlay,
		LiteTrace:  lite,
		MinLatency: 1, MaxLatency: 2,
		Reliable: node.ReliableConfig{Enabled: fw.reliable},
		Auth:     node.AuthConfig{Enabled: fw.auth, Parole: 60},
		Audit:    node.AuditConfig{Enabled: fw.audit, Pull: true},
		Identity: node.IdentityConfig{Durable: fw.durable},
		Reconfig: node.ReconfigConfig{Enabled: fw.reconfig},
		Pex: pex.Config{Enabled: fw.pex,
			Audit: pex.ViewAuditConfig{Enabled: fw.audit, KeySeed: fw.seed}},
		Horizon: fw.horizon,
	}
	if fw.lossy {
		sc.LossRate = 0.05
	}
	if fw.manual {
		sc.Overlay = manualOverlay
	}
	if fw.churn {
		sc.Churn = churn.Config{InitialPopulation: n, Immortal: true,
			ArrivalRate: 0.05, Session: churn.ExpSessions(40),
			RejoinProb: 0.3, Downtime: churn.FixedSessions(8)}
	}
	// Populate (unless churn does), then wire a manual overlay at t=1:
	// pex seeds its views from a ring, plain link control draws the cycle.
	sc.Script = func(w *node.World, e *sim.Engine) {
		if !fw.churn {
			for i := 1; i <= n; i++ {
				w.Join(graph.NodeID(i))
			}
		}
		if !fw.manual {
			return
		}
		e.At(1, func() {
			if fw.pex {
				w.PexSeedViews(topology.BuildRing(n))
				return
			}
			for i := 1; i <= n; i++ {
				u, v := graph.NodeID(i), graph.NodeID(i%n+1)
				if w.Proc(u) != nil && w.Proc(v) != nil {
					w.SetLink(u, v, true)
				}
			}
		})
	}
	switch fw.protocol {
	case 0:
		sc.Protocol = func() otq.Protocol { return &otq.FloodTTL{TTL: n/2 + 1, MaxLatency: 2} }
	case 1:
		sc.Protocol = func() otq.Protocol {
			return &otq.EchoWave{RescanInterval: 3, QuietFor: 30, MaxRescans: 100}
		}
	}
	if sc.Protocol != nil {
		sc.QueryAt = 20
		sc.BridgeRejoins = true
	}
	if fw.faults != "" {
		pl, err := fault.Parse(fmt.Sprintf("%s;seed=%d", fw.faults, fw.seed))
		if err != nil {
			panic(err.Error())
		}
		sc.Faults = pl
	}
	return sc
}

// FuzzWorld decodes bytes into a small whole world — overlay, churn, a
// fault plan from a fixed menu, sublayer toggles, protocol — and checks
// what every world must keep: it runs without panicking, replays to the
// same event digest, its live verdict equals the otq.CheckWith replay of
// its full trace, and its count-only twin agrees with the full run on
// every trace counter and on the verdict.
func FuzzWorld(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 12, 40, 0, 0, 1, 0})
	f.Add([]byte{2, 0, 12, 100, 1, 0x07, 1, 3})
	f.Add([]byte{3, 0, 16, 140, 3, 0x0f, 0, 5})
	f.Add([]byte{4, 0, 8, 120, 0, 0x13, 1, 6})
	f.Add([]byte{5, 0, 28, 100, 6, 0x26, 0, 7})
	f.Add([]byte{6, 0, 12, 90, 2, 0x01, 2, 2})
	f.Add([]byte{7, 0, 10, 80, 5, 0x3f, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		fw := decodeFuzzWorld(data)
		full := Execute(fw.scenario(false))
		again := Execute(fw.scenario(false))
		d1, d2 := newEventDigest(), newEventDigest()
		full.Trace.Replay(d1.fold)
		again.Trace.Replay(d2.fold)
		if d1.h != d2.h || d1.n != d2.n {
			t.Fatalf("%+v: replay diverged: digest %016x over %d events, then %016x over %d",
				fw, d1.h, d1.n, d2.h, d2.n)
		}
		if full.Run != nil {
			replayed := otq.CheckWith(full.Trace, full.Run,
				func(id graph.NodeID) float64 { return float64(id) },
				otq.CheckOptions{BridgeRejoins: true})
			if live, batch := outcomeVerdict(full.Outcome), outcomeVerdict(replayed); live != batch {
				t.Fatalf("%+v: live verdict %s, replayed %s", fw, live, batch)
			}
		}
		lite := Execute(fw.scenario(true))
		if got, want := lite.Trace.Len(), full.Trace.Len(); got != want {
			t.Fatalf("%+v: count-only Len %d, full %d", fw, got, want)
		}
		if got, want := lite.Trace.Messages(""), full.Trace.Messages(""); got != want {
			t.Fatalf("%+v: count-only Messages %+v, full %+v", fw, got, want)
		}
		if got, want := lite.Trace.MaxConcurrency(), full.Trace.MaxConcurrency(); got != want {
			t.Fatalf("%+v: count-only MaxConcurrency %d, full %d", fw, got, want)
		}
		if got, want := outcomeVerdict(lite.Outcome), outcomeVerdict(full.Outcome); got != want {
			t.Fatalf("%+v: count-only verdict %s, full %s", fw, got, want)
		}
	})
}
