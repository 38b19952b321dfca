package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tq"
)

// workload is one whole-world cell the benchmark runs over and over, each
// world from its own seed.
type workload struct {
	name string
	// countWorlds is how many leading worlds of a run the deterministic
	// counters average over, so that they depend on the seed alone and
	// not on how many worlds the host managed to fit into the run.
	countWorlds int
	// goldenWorlds is how many default-seed worlds a traced run replays
	// against the golden digest table.
	goldenWorlds int
	// unlisted marks a workload BENCHMARK.json does not name; it still
	// runs, checked like every other, when asked for by name.
	unlisted bool
	run      func(seed uint64, tr *tracer) result
}

// result is everything one world yields.
type result struct {
	setup, total time.Duration // host time: to the end of tick 1, and setup+run+judge
	events       uint64
	counters     counters
	// verdict is nil when the world's output passed its checks.
	verdict error
	// Register operations issued, completed (certified or flagged), and
	// silently wrong; tick latencies from invoke mark to completion mark.
	regOps, regDone, regSilent int
	readTicks, writeTicks      []int64
	regReads, regSoft          int
	digest                     uint64 // traced worlds only
}

// counters are a world's deterministic per-layer counts, keyed by their
// per-layer metric names.
type counters map[string]float64

var workloads = []*workload{
	{name: "pex-scale", countWorlds: 2, goldenWorlds: 2, run: runPexScale},
	{name: "byz-storm", countWorlds: 20, goldenWorlds: 10, run: runByzStorm},
	{name: "view-poison", countWorlds: 4, goldenWorlds: 4, run: runViewPoison},
	// tq-register is unlisted: on the current code its register serves a
	// stale value as current (a regularity violation tq.StreamChecker
	// counts) in about 1% of worlds, world 10007 of run seed 1 among
	// them, so a run that reaches such a world ends correct=false.
	{name: "tq-register", countWorlds: 4, goldenWorlds: 4, unlisted: true, run: runTQRegister},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// world holds what every workload shares while one world runs: the host
// clock from the first call, the engine, and the tracer.
type world struct {
	start  time.Time
	setup  time.Duration
	engine *sim.Engine
	w      *node.World
	tr     *tracer
}

func newWorld(tr *tracer) *world {
	return &world{start: time.Now(), engine: sim.New(), tr: tr}
}

// build constructs the node world and, in a traced world, hangs the
// digest sink on its trace before anything is recorded.
func (x *world) build(ov topology.Overlay, f node.BehaviorFactory, layer string, cfg node.Config) *node.World {
	x.w = node.NewWorld(x.engine, ov, x.tr.factory(layer, f), cfg)
	x.tr.attachDigest(x.w.Trace)
	return x.w
}

// endSetup runs the world to the end of tick 1 and stops the setup clock.
func (x *world) endSetup() {
	x.engine.RunUntil(1)
	x.setup = time.Since(x.start)
}

// runUntil is every post-setup RunUntil, spanned as sim.run_s.
func (x *world) runUntil(t sim.Time) {
	x.tr.run(func() { x.engine.RunUntil(t) })
}

// finish stops the world clock (setup + run + judge) and gathers the
// counters, which are read after the clock stops.
func (x *world) finish(verdict error) result {
	total := time.Since(x.start)
	res := result{
		setup:    x.setup,
		total:    total,
		events:   x.engine.Fired(),
		counters: layerCounters(x.engine, x.w),
		verdict:  verdict,
	}
	res.digest = x.tr.digestValue()
	return res
}

// layerCounters reads the counters every world reports, zero for the
// layers a workload does not stack.
func layerCounters(e *sim.Engine, w *node.World) counters {
	c := counters{}
	c["sim.events"] = float64(e.Fired())
	c["core.trace_events"] = float64(w.Trace.Len())
	msgs := w.Trace.Messages("")
	c["node.msgs_sent"] = float64(msgs.Sent)
	c["node.msgs_delivered"] = float64(msgs.Delivered)
	c["node.msgs_dropped"] = float64(msgs.Dropped)
	sent := func(tags ...string) float64 {
		n := 0
		for _, t := range tags {
			n += w.Trace.Messages(t).Sent
		}
		return float64(n)
	}
	px := w.PexTotals()
	c["pex.exchanges"] = float64(px.Exchanges)
	c["pex.records_shipped"] = float64(px.RecordsShipped)
	c["pex.records_merged"] = float64(px.RecordsMerged)
	c["pex.rejected"] = float64(px.RejectedSig + px.RejectedStale + px.RejectedHop +
		px.RejectedDup + px.RejectedBad + px.RejectedBlacklisted)
	c["pex.msgs"] = sent(node.PexExchangeTag, node.PexReplyTag)
	rel := w.ReliableTotals()
	c["reliable.acked"] = float64(rel.Acked)
	c["reliable.retries"] = float64(rel.Retries)
	c["reliable.giveups"] = float64(rel.GiveUps)
	au := w.AuthTotals()
	c["auth.accepted"] = float64(au.Accepted)
	c["auth.rejected"] = float64(au.RejectedCorrupt + au.RejectedReplay + au.DroppedQuarantined)
	c["auth.quarantines"] = float64(au.Quarantines)
	ad := w.AuditTotals()
	c["audit.receipts_sent"] = float64(ad.ReceiptsSent)
	c["audit.proofs_forwarded"] = float64(ad.ProofsForwarded)
	c["audit.msgs"] = sent(node.AuditReceiptTag, node.AuditProofTag, node.AuditPullTag, node.AuditPullRespTag)
	c["identity.restores"] = float64(w.IdentityTotals().Restores)
	rc := w.ReconfigTotals()
	c["reconfig.committed"] = float64(rc.Committed)
	c["reconfig.drain_timeouts"] = float64(rc.DrainTimeouts)
	c["reconfig.stale_epoch_drops"] = float64(rc.StaleEpochDrops)
	joins, leaves := w.Turnover()
	c["churn.joins"] = float64(joins)
	c["churn.leaves"] = float64(leaves)
	// Messages no sublayer sent: the query or register protocol's own.
	c["app.msgs"] = float64(msgs.Sent) - c["pex.msgs"] - c["audit.msgs"] -
		sent(node.AckTag, node.ReconfigPrepareTag, node.ReconfigAckTag, node.ReconfigCommitTag)
	return c
}

// Shared world parameters (E28-E30 use the same churn and latency shape).
func churnConfig(n int, arrival float64) churn.Config {
	return churn.Config{
		InitialPopulation: n,
		Immortal:          true,
		ArrivalRate:       arrival,
		Session:           churn.ExpSessions(40),
		RejoinProb:        0.3,
		Downtime:          churn.FixedSessions(8),
	}
}

func idValue(id graph.NodeID) float64 { return float64(id) }

// --- pex-scale: the E29 cell at n=1000 ---

// pexScaleN is E29's n=1k size. At n=2000 the worlds' heap outgrew what
// the reference kernel tracks: rescaled, their run-to-run spread stayed
// at 12-22% where n=1000 read 5-9%.
const (
	pexScaleN       = 1000
	pexScaleQueryAt = 60
	pexScaleHorizon = 120
)

func runPexScale(seed uint64, tr *tracer) result {
	x := newWorld(tr)
	proto := &otq.FloodTTL{TTL: 10, MaxLatency: 2}
	w := x.build(topology.NewManual(), proto.Factory(), "otq", node.Config{
		MinLatency: 1, MaxLatency: 2,
		Pex:  pex.Config{Enabled: true, SampleEvery: pexScaleHorizon},
		Seed: seed ^ 0xdddd,
	})
	w.Trace.SetCountOnly(true)
	checker := otq.NewStreamChecker(otq.CheckOptions{})
	w.Trace.Stream(tr.sink("otq", checker.Observe))
	// The churn stream joins the population at t=0; the ring seeds the
	// views at t=1, before the first exchange round fires.
	x.engine.At(1, func() {
		tr.span("pex.seed_s", func() { w.PexSeedViews(topology.BuildRing(pexScaleN)) })
	})
	gen := churn.New(seed^0xcccc, churnConfig(pexScaleN, 0.2))
	tr.span("churn.apply_s", func() { w.ApplyChurn(gen, pexScaleHorizon) })
	x.endSetup()

	x.runUntil(pexScaleQueryAt)
	run := proto.Launch(w, w.Present()[0])
	checker.Arm(run)
	x.runUntil(pexScaleHorizon)
	w.Close()
	var out otq.Outcome
	tr.span("otq.stream_check_s", func() { out = checker.Finish(w.Trace.End(), idValue) })
	res := x.finish(pexScaleVerdict(out))
	addQuery(res.counters, out)
	return res
}

// pexScaleVerdict is E29's: the query terminated and judged someone stable.
func pexScaleVerdict(out otq.Outcome) error {
	if !out.Terminated {
		return errors.New("flood query did not terminate")
	}
	if out.StableCount == 0 {
		return errors.New("stream checker judged nobody stable")
	}
	return nil
}

func addQuery(c counters, out otq.Outcome) {
	c["otq.query_ticks"] = float64(out.Duration)
	c["otq.msgs_per_query"] = c["app.msgs"]
}

// --- byz-storm: the E26 reconfig-storm arm ---

const (
	byzN       = 16
	byzLiar    = 3
	byzQueryAt = 25
	byzHorizon = 1500
)

func byzPlan(seed uint64) (*fault.Plan, error) {
	return fault.Parse(fmt.Sprintf(
		"equiv:nodes=%d,peers=2+4,p=1@0-200;rejoin:nodes=%d+6+12,down=40@200;"+
			"reconfig:nodes=1,every=80,count=4,rotate=1,retain=64@120;seed=%d",
		byzLiar, byzLiar, seed^0x26))
}

func runByzStorm(seed uint64, tr *tracer) result {
	x := newWorld(tr)
	proto := &otq.EchoWave{RescanInterval: 3, QuietFor: 150, MaxRescans: 3000}
	w := x.build(topology.NewManual(), proto.Factory(), "otq", node.Config{
		MinLatency: 1, MaxLatency: 2, LossRate: 0.02, Seed: seed,
		Reliable: node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
		Auth:     node.AuthConfig{Enabled: true},
		Audit:    node.AuditConfig{Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40},
		Identity: node.IdentityConfig{Durable: true},
		Reconfig: node.ReconfigConfig{Enabled: true},
	})
	plan, err := byzPlan(seed)
	if err != nil {
		return x.finish(fmt.Errorf("fault plan: %w", err))
	}
	stop := plan.Attach(w)
	for i := 1; i <= byzN; i++ {
		w.Join(graph.NodeID(i))
	}
	for i := 1; i <= byzN; i++ {
		w.SetLink(graph.NodeID(i), graph.NodeID(i%byzN+1), true)
		w.SetLink(graph.NodeID(i), graph.NodeID((i+1)%byzN+1), true)
	}
	x.endSetup()

	x.runUntil(byzQueryAt)
	run := proto.Launch(w, 1)
	x.runUntil(byzHorizon)
	stop()
	w.Close()
	var out otq.Outcome
	tr.span("otq.batch_check_s", func() {
		out = otq.CheckWith(w.Trace, run, nil, otq.CheckOptions{BridgeRejoins: true})
	})
	res := x.finish(byzVerdict(out, w.IdentityTotals(), w.ReconfigTotals()))
	addQuery(res.counters, out)
	return res
}

// byzVerdict is E26's acceptance for the storm arm.
func byzVerdict(out otq.Outcome, id node.IdentityCounters, rc node.ReconfigCounters) error {
	switch {
	case !out.Terminated:
		return errors.New("echo wave did not terminate")
	case !out.ValidModuloProven():
		return fmt.Errorf("answer invalid beyond proven equivocators: %v", out)
	case id.QuarantinesLaundered != 0:
		return fmt.Errorf("%d quarantines laundered", id.QuarantinesLaundered)
	case rc.Committed != rc.Initiated:
		return fmt.Errorf("%d of %d reconfigurations committed", rc.Committed, rc.Initiated)
	}
	return nil
}

// --- view-poison: the E27 defended arm at n=64 ---

const (
	poisonN       = 64
	poisonSybils  = 1000 // fabricated identities are numbered from here
	poisonHorizon = 400
)

var poisoners = []graph.NodeID{4, 9, 13}

func runViewPoison(seed uint64, tr *tracer) result {
	x := newWorld(tr)
	w := x.build(topology.NewManual(), nil, "", node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: seed,
		Auth: node.AuthConfig{Enabled: true},
		Pex: pex.Config{Enabled: true,
			Audit: pex.ViewAuditConfig{Enabled: true, KeySeed: 0x27}},
	})
	plan, err := fault.Parse(fmt.Sprintf(
		"poison:nodes=4+9+13,rate=1,sybils=3,base=%d,dead=1,target=2@24-;"+
			"rejoin:nodes=20+21,down=30@100;seed=%d", poisonSybils, seed^0x27))
	if err != nil {
		return x.finish(fmt.Errorf("fault plan: %w", err))
	}
	stop := plan.Attach(w)
	for i := 1; i <= poisonN; i++ {
		w.Join(graph.NodeID(i))
	}
	tr.span("pex.seed_s", func() { w.PexSeedViews(topology.BuildRing(poisonN)) })
	x.engine.At(10, func() { w.Leave(poisonN) })
	x.endSetup()

	x.runUntil(poisonHorizon)
	stop()
	w.Close()
	views := map[graph.NodeID][]pex.Record{}
	for _, id := range w.Present() {
		views[id] = w.PexView(id)
	}
	return x.finish(poisonVerdict(w.QuarantineEvents(), views))
}

func isPoisoner(id graph.NodeID) bool {
	for _, p := range poisoners {
		if id == p {
			return true
		}
	}
	return false
}

// poisonVerdict is E27's double-sided bar for the defended arm: every
// poisoner convicted, no honest member quarantined, and no fabricated or
// departed record left in an honest view.
func poisonVerdict(quars []node.QuarantineEvent, views map[graph.NodeID][]pex.Record) error {
	convicted := map[graph.NodeID]bool{}
	for _, ev := range quars {
		if !isPoisoner(ev.Offender) {
			return fmt.Errorf("honest member %d quarantined by %d at %d", ev.Offender, ev.By, ev.At)
		}
		convicted[ev.Offender] = true
	}
	if len(convicted) != len(poisoners) {
		return fmt.Errorf("%d of %d poisoners convicted", len(convicted), len(poisoners))
	}
	for id, view := range views {
		if isPoisoner(id) {
			continue
		}
		for _, r := range view {
			if r.ID >= poisonSybils || r.ID == poisonN {
				return fmt.Errorf("member %d holds poisoned record %d", id, r.ID)
			}
		}
	}
	return nil
}

// --- tq-register: the E30 tq cell at n=64 ---

const (
	tqN       = 64
	tqOpsFrom = 120
	tqHorizon = 600
)

func runTQRegister(seed uint64, tr *tracer) result {
	x := newWorld(tr)
	q := int(math.Ceil(1.6 * math.Sqrt(tqN)))
	cl := tq.NewClient(tq.Config{QuorumCoeff: 1.6, WalkTTL: 4, Walkers: q, MaxLease: 64, Seed: seed})
	w := x.build(topology.NewManual(), cl.Factory(), "tq", node.Config{
		MinLatency: 1, MaxLatency: 2, LossRate: 0.05,
		Pex:  pex.Config{Enabled: true, SampleEvery: tqHorizon},
		Seed: seed ^ 0xdddd,
	})
	sc := tq.NewStreamChecker()
	w.Trace.Stream(tr.sink("tq", sc.Observe))
	lat := newOpLatency()
	w.Trace.Stream(lat.observe)
	x.engine.At(1, func() {
		tr.span("pex.seed_s", func() { w.PexSeedViews(topology.BuildRing(tqN)) })
	})
	ops := 0
	x.engine.At(tqOpsFrom, func() {
		writer := w.Present()[0] // an immortal founding member
		cl.Bootstrap(w, 0)
		cl.Attach(w)
		val := 0.0
		x.engine.Every(16, func() { val++; ops++; cl.Write(w, writer, val) })
		turn := 0
		x.engine.Every(7, func() {
			present := w.Present()
			cl.Read(w, present[turn%len(present)])
			turn++
			ops++
		})
	})
	gen := churn.New(seed^0xcccc, churnConfig(tqN, 0.02*tqN))
	tr.span("churn.apply_s", func() { w.ApplyChurn(gen, tqHorizon) })
	x.endSetup()

	x.runUntil(tqHorizon)
	w.Close()
	var rep tq.Report
	tr.span("tq.stream_check_s", func() { rep = sc.Finish() })
	// The register's verdict is per operation: each stale or fabricated
	// value served as current is one failed register op.
	res := x.finish(nil)
	res.regOps = ops
	res.regDone = rep.Reads + rep.NoValue + rep.WriteQuorums + rep.WriteSofts
	res.regSilent = rep.Stale + rep.Fabricated
	res.regReads, res.regSoft = rep.Reads, rep.Soft
	res.readTicks, res.writeTicks = lat.reads, lat.writes

	c := res.counters
	k := cl.Counters()
	c["tq.walks"] = float64(k.Walks)
	c["tq.probes"] = float64(k.Probes)
	c["tq.retries"] = float64(k.Retries)
	c["tq.late_responses"] = float64(k.LateResponses)
	c["tq.ops"] = float64(ops)
	c["tq.quorum_ops"] = float64(k.ReadQuorums + k.WriteQuorums)
	c["tq.started_ops"] = float64(k.Reads + k.Writes)
	c["tq.msgs"] = float64(w.Trace.Messages(tq.TagProbe).Sent + w.Trace.Messages(tq.TagResp).Sent)
	c["tq.reads"] = float64(rep.Reads)
	c["tq.soft_reads"] = float64(rep.Soft)
	return res
}

// opLatency times register operations in sim ticks, from each invoke
// mark to its completion mark.
type opLatency struct {
	readStart, writeStart map[uint64]core.Time
	reads, writes         []int64
}

func newOpLatency() *opLatency {
	return &opLatency{readStart: map[uint64]core.Time{}, writeStart: map[uint64]core.Time{}}
}

func (l *opLatency) observe(ev core.TraceEvent) {
	if ev.Kind != core.TMark || !strings.HasPrefix(ev.Tag, "tq.") {
		return
	}
	kind, rest, _ := strings.Cut(ev.Tag, ":")
	idStr, _, _ := strings.Cut(rest, ":")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return
	}
	done := func(starts map[uint64]core.Time, into *[]int64) {
		if at, ok := starts[id]; ok {
			*into = append(*into, int64(ev.At-at))
			delete(starts, id)
		}
	}
	switch kind {
	case tq.MarkReadStart:
		l.readStart[id] = ev.At
	case tq.MarkRead, tq.MarkReadNone:
		done(l.readStart, &l.reads)
	case tq.MarkWriteStart:
		l.writeStart[id] = ev.At
	case tq.MarkWriteEnd, tq.MarkWriteSoft:
		done(l.writeStart, &l.writes)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
