package otq_test

import (
	"reflect"
	"testing"

	"repro/internal/churn"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

func ringOverlay(seed uint64) topology.Overlay { return topology.NewRing(seed) }
func meshOverlay(uint64) topology.Overlay      { return topology.NewMesh() }
func manualOverlay(uint64) topology.Overlay    { return topology.NewManual() }

// cycleScript populates a manual overlay with an exact n-cycle.
func cycleScript(n int) func(*node.World, *sim.Engine) {
	return func(w *node.World, _ *sim.Engine) {
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
		}
	}
}

// e29World is E29's judged pex world (manual overlay, ring-seeded pex
// views, rejoining churn, a TTL-10 flood launched mid-run) at n members.
func e29World(seed uint64, n int, horizon sim.Time, lite bool) exp.Scenario {
	return exp.Scenario{
		Seed:    seed,
		Overlay: manualOverlay,
		Script: func(w *node.World, e *sim.Engine) {
			e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
		},
		Churn: churn.Config{InitialPopulation: n, Immortal: true,
			ArrivalRate: float64(n) / 10000.0, Session: churn.ExpSessions(float64(horizon) / 3),
			RejoinProb: 0.3, Downtime: churn.FixedSessions(8)},
		Protocol: func() otq.Protocol {
			return &otq.FloodTTL{TTL: 10, MaxLatency: 2}
		},
		MinLatency: 1, MaxLatency: 2,
		Pex:       pex.Config{Enabled: true, SampleEvery: horizon},
		LiteTrace: lite,
		QueryAt:   horizon / 2,
		Horizon:   horizon,
	}
}

func idValue(id graph.NodeID) float64 { return float64(id) }

// TestStreamCheckMatchesBatchScenarios pins the live checker Execute
// judges every query with against the set-based oracle across the
// suite's scenario shapes: every protocol family, churn, loss,
// crash/rejoin fault plans, both bridging notions, the auth sublayer's
// quarantine marks, and E29's pex world. Each run's full trace is
// re-judged by the oracle and by CheckWith's replay; all three Outcome
// structs must be bit-identical. E29's world also runs as its count-only
// twin, whose live verdict must match.
func TestStreamCheckMatchesBatchScenarios(t *testing.T) {
	mustPlan := func(s string) *fault.Plan {
		plan, err := fault.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	scenarios := map[string]func(seed uint64) exp.Scenario{
		"echo wave under churn": func(seed uint64) exp.Scenario {
			return exp.Scenario{
				Seed:    seed,
				Overlay: ringOverlay,
				Churn: churn.Config{InitialPopulation: 12, Immortal: true,
					ArrivalRate: 0.1, Session: churn.ExpSessions(60)},
				Protocol: func() otq.Protocol {
					return &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 500}
				},
				MinLatency: 1, MaxLatency: 2,
				QueryAt: 50, Horizon: 800,
			}
		},
		"flood on the mesh": func(seed uint64) exp.Scenario {
			return exp.Scenario{
				Seed:    seed,
				Overlay: meshOverlay,
				Churn:   churn.Config{InitialPopulation: 10, Immortal: true},
				Protocol: func() otq.Protocol {
					return &otq.FloodTTL{TTL: 2, MaxLatency: 2}
				},
				QueryAt: 5, Horizon: 120,
			}
		},
		"lossy repeated flood with mortal churn": func(seed uint64) exp.Scenario {
			return exp.Scenario{
				Seed:    seed,
				Overlay: ringOverlay,
				Churn: churn.Config{InitialPopulation: 10,
					ArrivalRate: 0.2, Session: churn.ExpSessions(80)},
				Protocol: func() otq.Protocol {
					return &otq.RepeatedFlood{TTL: 4, MaxLatency: 2, MaxRounds: 3}
				},
				LossRate: 0.1,
				QueryAt:  30, Horizon: 400,
			}
		},
		"gossip push-sum": func(seed uint64) exp.Scenario {
			return exp.Scenario{
				Seed:    seed,
				Overlay: meshOverlay,
				Churn:   churn.Config{InitialPopulation: 8, Immortal: true},
				Protocol: func() otq.Protocol {
					return &otq.GossipPushSum{RoundInterval: 2, Rounds: 60, Seed: seed}
				},
				QueryAt: 5, Horizon: 300,
			}
		},
		"crash plan with recovery bridging": func(seed uint64) exp.Scenario {
			return exp.Scenario{
				Seed:    seed,
				Overlay: manualOverlay,
				Script:  cycleScript(8),
				Protocol: func() otq.Protocol {
					return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
				},
				Faults:           mustPlan("crash:nodes=4,recover=50@60;seed=5"),
				Reliable:         node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
				QueryAt:          25,
				Horizon:          1500,
				BridgeRecoveries: true,
			}
		},
		"rejoin churn with rejoin bridging": func(seed uint64) exp.Scenario {
			return exp.Scenario{
				Seed:    seed,
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
			}
		},
		"corruption storm behind auth quarantine": func(seed uint64) exp.Scenario {
			return exp.Scenario{
				Seed:    seed,
				Overlay: manualOverlay,
				Script:  cycleScript(8),
				Protocol: func() otq.Protocol {
					return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
				},
				Faults:   mustPlan("corrupt:nodes=3,p=0.5;seed=4"),
				Reliable: node.ReliableConfig{Enabled: true},
				Auth:     node.AuthConfig{Enabled: true},
				QueryAt:  25,
				Horizon:  1500,
			}
		},
		// E29's n=300 world at the quick horizon.
		"E29 pex world": func(seed uint64) exp.Scenario {
			return e29World(seed, 300, 96, false)
		},
	}
	for name, mk := range scenarios {
		for seed := uint64(1); seed <= 2; seed++ {
			sc := mk(seed)
			res := exp.Execute(sc)
			opts := otq.CheckOptions{BridgeRecoveries: sc.BridgeRecoveries, BridgeRejoins: sc.BridgeRejoins}
			oracle := otq.OracleCheck(res.Trace, res.Run, idValue, opts)
			if !reflect.DeepEqual(oracle, res.Outcome) {
				t.Errorf("%s seed %d: live checker diverged from the oracle\noracle: %+v\nlive:   %+v",
					name, seed, oracle, res.Outcome)
			}
			if replay := otq.CheckWith(res.Trace, res.Run, idValue, opts); !reflect.DeepEqual(oracle, replay) {
				t.Errorf("%s seed %d: replay diverged from the oracle\noracle: %+v\nreplay: %+v",
					name, seed, oracle, replay)
			}
			if sc.Pex.Enabled {
				lite := mk(seed)
				lite.LiteTrace = true
				if out := exp.Execute(lite).Outcome; !reflect.DeepEqual(oracle, out) {
					t.Errorf("%s seed %d: count-only twin diverged from the oracle\noracle: %+v\nlite:   %+v",
						name, seed, oracle, out)
				}
			}
		}
	}
}
