// Command wwbench is the repository's whole-world benchmark. Each run
// drives one workload's simulated worlds, one at a time on one goroutine
// and one P, for a fixed host-time budget; it checks every world's output
// and prints the end-to-end metrics (untraced) or the per-layer metrics
// (traced) as the last line of standard output:
//
//	bash wwbench/run.sh --workload byz-storm --seed 1 --seconds 30 --trace 0
//
// The worlds are built only through the program's public calls; layer
// spans are taken around those calls from this package. Worlds of seed s
// are seeded s*10000+1, s*10000+2, ... so runs of different seeds share
// no world.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// worldSeed is the seed of world j in a run of seed s.
func worldSeed(s uint64, j int) uint64 { return s*10000 + uint64(j) + 1 }

// goldenFile pins behaviour: the digest of every event of the golden
// worlds, which a traced run replays. It also records the default and
// held-out run seeds.
//
//go:embed golden.json
var goldenFile []byte

type goldenTable struct {
	DefaultSeeds []uint64 `json:"default_seeds"`
	HeldOutSeeds []uint64 `json:"held_out_seeds"`
	// Digests maps workload -> world seed -> digest in hex.
	Digests map[string]map[string]string `json:"digests"`
}

func loadGolden(raw []byte) (goldenTable, error) {
	var g goldenTable
	err := json.Unmarshal(raw, &g)
	return g, err
}

// goldenSeeds are the world seeds a traced run of wl replays: world 0 of
// each of the first default seeds.
func (g goldenTable) goldenSeeds(wl *workload) []uint64 {
	var out []uint64
	for i := 0; i < wl.goldenWorlds && i < len(g.DefaultSeeds); i++ {
		out = append(out, worldSeed(g.DefaultSeeds[i], 0))
	}
	return out
}

func (g goldenTable) lookup(wl *workload, seed uint64) (string, bool) {
	d, ok := g.Digests[wl.name][strconv.FormatUint(seed, 10)]
	return d, ok
}

func hex(d uint64) string { return fmt.Sprintf("%016x", d) }

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []string // human-readable lines printed before the result
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// fail counts n failed operations and says why.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

// account counts one world and its register operations as attempted
// operations, and its verdict and silent register violations as failed.
func (r *report) account(seed uint64, res result) {
	r.attempted += 1 + res.regOps
	if res.verdict != nil {
		r.fail(1, "world %d: %v", seed, res.verdict)
	}
	if res.regSilent > 0 {
		r.fail(res.regSilent, "world %d: %d register reads served a stale or fabricated value as current", seed, res.regSilent)
	}
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds float64
	out     string // directory for profiles
	golden  goldenTable
}

// keepGoing decides, after j worlds, whether to start another: always
// until the counted worlds are done, then while the next world (judged by
// the mean so far) still ends within the budget.
func keepGoing(wl *workload, j int, start time.Time, spent time.Duration, budget float64) bool {
	if j < wl.countWorlds {
		return true
	}
	next := spent / time.Duration(j)
	return (time.Since(start) + next).Seconds() <= budget
}

// refEvery is how often, in host time, the untraced run samples the
// reference kernel between worlds; after a long world it takes one
// sample per refEvery that passed, up to maxRefBurst, so that runs of
// long worlds get as many samples as runs of short ones. refNominal is
// the kernel time of the reference host the end-to-end times are
// rescaled to. Each world is rescaled by the kernel samples taken within
// refWindow of it: the host's speed swings by up to 2x within one run,
// in phases of seconds, and against one run-wide scale those phases
// left the median of short worlds unsteady.
const (
	refEvery    = 500 * time.Millisecond
	maxRefBurst = 8
	refNominal  = 10 * time.Millisecond
	refWindow   = 2 * time.Second
)

// refSample is one timing of the reference kernel, at its offset into
// the run, in seconds.
type refSample struct{ at, took float64 }

// localScale is the factor that rescales a world run over [from, to] to
// the reference host: refNominal over the median kernel time of the
// samples within refWindow of it, or of the nearest sample when none
// is. The samples are in time order.
func localScale(refs []refSample, from, to float64) float64 {
	var took []float64
	nearest, gap := refs[0].took, math.Inf(1)
	for _, r := range refs {
		if r.at >= from-refWindow.Seconds() && r.at <= to+refWindow.Seconds() {
			took = append(took, r.took)
		}
		if d := math.Abs(r.at - from); d < gap {
			nearest, gap = r.took, d
		}
	}
	if len(took) == 0 {
		return refNominal.Seconds() / nearest
	}
	return refNominal.Seconds() / quantile(took, 0.5)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(wl *workload, cfg config) report {
	var rep report
	var worlds []result
	var spent time.Duration
	kernel := newRefKernel()
	var refs []refSample
	var starts []float64 // each world's offset into the run
	lastRef := time.Now().Add(-refEvery)
	start := time.Now()
	for j := 0; keepGoing(wl, j, start, spent, cfg.seconds); j++ {
		for n := min(int(time.Since(lastRef)/refEvery), maxRefBurst); n > 0; n-- {
			at := time.Since(start).Seconds()
			refs = append(refs, refSample{at, kernel.run().Seconds()})
			lastRef = time.Now()
		}
		seed := worldSeed(cfg.seed, j)
		starts = append(starts, time.Since(start).Seconds())
		res := wl.run(seed, nil)
		rep.account(seed, res)
		worlds = append(worlds, res)
		spent += res.total
	}
	// Every host time is rescaled to the reference host (see refKernel
	// and localScale); the unscaled figures are printed as a note.
	var totals, setups, rawTotals, rawSetups, took []float64
	var events uint64
	var scaledSpent float64
	regDone := 0
	for i, res := range worlds {
		t := res.total.Seconds()
		s := localScale(refs, starts[i], starts[i]+t)
		totals = append(totals, t*s)
		setups = append(setups, res.setup.Seconds()*s)
		rawTotals = append(rawTotals, t)
		rawSetups = append(rawSetups, res.setup.Seconds())
		scaledSpent += t * s
		events += res.events
		regDone += res.regDone
	}
	for _, r := range refs {
		took = append(took, r.took)
	}
	tail, pct := worldTail(totals)
	rawTail, _ := worldTail(rawTotals)
	rep.add("events_per_s", float64(events)/scaledSpent, "1/s")
	rep.add("world_p50_s", quantile(totals, 0.5), "s")
	rep.add("world_tail_s", tail, "s")
	rep.add("setup_s", quantile(setups, 0.5), "s")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d worlds in %.2f s; world_tail_s is p%.0f of %d worlds", len(worlds), spent.Seconds(), pct, len(worlds)),
		fmt.Sprintf("reference kernel %.4f ms (median of %d); each world's times are rescaled by the samples within %v of it",
			1e3*quantile(took, 0.5), len(took), refWindow),
		fmt.Sprintf("unscaled host: events_per_s %.6g world_p50_s %.6g world_tail_s %.6g setup_s %.6g",
			float64(events)/spent.Seconds(), quantile(rawTotals, 0.5), rawTail, quantile(rawSetups, 0.5)))
	if worlds[0].regOps > 0 {
		// The register's completed operations per rescaled host second,
		// and its simulated latencies under their reg_* names; the
		// traced run reports the latter as tq.* metrics.
		rep.notes = append(rep.notes, fmt.Sprintf("reg_ops_per_s %.6g 1/s", float64(regDone)/scaledSpent))
		for _, m := range registerMetrics(worlds[:wl.countWorlds]) {
			rep.notes = append(rep.notes, fmt.Sprintf("reg_%s %g %s (sim, first %d worlds)",
				m.name[len("tq."):], m.value, m.unit, wl.countWorlds))
		}
	}
	return rep
}

// worldTail is the highest percentile of the sample with at least ten
// worlds beyond it, never below the median: the median itself when the
// sample is too small for a tail. It returns the value and percentile.
func worldTail(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := n - 11
	if med := n / 2; i < med {
		i = med
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// registerMetrics are the tq-register simulated outcomes over the given
// worlds' pooled operations.
func registerMetrics(worlds []result) []metric {
	var reads, writes []float64
	soft, valued := 0, 0
	for _, res := range worlds {
		for _, t := range res.readTicks {
			reads = append(reads, float64(t))
		}
		for _, t := range res.writeTicks {
			writes = append(writes, float64(t))
		}
		soft += res.regSoft
		valued += res.regReads
	}
	readTail := 0.0
	if len(reads) > 0 {
		readTail, _ = worldTail(reads)
	}
	return []metric{
		{"tq.read_p50_ticks", quantile(reads, 0.5), "ticks"},
		{"tq.read_tail_ticks", readTail, "ticks"},
		{"tq.write_p50_ticks", quantile(writes, 0.5), "ticks"},
		{"tq.soft_frac", ratio(float64(soft), float64(valued)), "frac"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostCost is what the runtime spent: allocation and GC and used CPU time.
type hostCost struct {
	allocBytes     uint64
	gcCPU, usedCPU float64
}

func readHost() hostCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(cpu)
	f := func(i int) float64 {
		if cpu[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return cpu[i].Value.Float64()
	}
	return hostCost{allocBytes: ms.TotalAlloc, gcCPU: f(0), usedCPU: f(1) - f(2)}
}

// runTraced measures the per-layer metrics. It replays the golden worlds,
// then runs each seeded world twice, untraced and traced, under a CPU
// profile: the pair must agree on every counter, and the traced one's
// digest must match the golden table wherever the table has the seed.
func runTraced(wl *workload, cfg config) (report, error) {
	var rep report
	start := time.Now()
	for _, seed := range cfg.golden.goldenSeeds(wl) {
		res := wl.run(seed, newTracer())
		rep.account(seed, res)
		checkDigest(&rep, wl, cfg.golden, seed, res.digest, true)
	}
	prof, err := startProfile(cfg.out, fmt.Sprintf("%s-seed%d", wl.name, cfg.seed))
	if err != nil {
		return rep, fmt.Errorf("start profile: %w", err)
	}
	agg := pairTotals{spans: map[string]time.Duration{}}
	var spent time.Duration
	for j := 0; keepGoing(wl, j, start, spent, cfg.seconds); j++ {
		seed := worldSeed(cfg.seed, j)
		before := readHost()
		u := wl.run(seed, nil)
		after := readHost()
		agg.cost.allocBytes += after.allocBytes - before.allocBytes
		agg.cost.gcCPU += after.gcCPU - before.gcCPU
		agg.cost.usedCPU += after.usedCPU - before.usedCPU
		tr := newTracer()
		t := wl.run(seed, tr)
		rep.account(seed, t)
		if !reflect.DeepEqual(u.counters, t.counters) {
			rep.fail(1, "world %d: traced counters differ from untraced:%s", seed, counterDiff(u.counters, t.counters))
		}
		if fmt.Sprint(u.verdict) != fmt.Sprint(t.verdict) || u.regSilent != t.regSilent {
			rep.fail(1, "world %d: traced verdict %v (%d silent), untraced %v (%d silent)",
				seed, t.verdict, t.regSilent, u.verdict, u.regSilent)
		}
		checkDigest(&rep, wl, cfg.golden, seed, t.digest, false)
		for k, v := range tr.spans {
			agg.spans[k] += v
		}
		agg.runChild += tr.runChild
		agg.pairs++
		agg.untraced += u.total
		agg.traced += t.total
		agg.untracedEvents += u.events
		agg.tracedEvents += t.events
		spent += u.total + t.total
		if j < wl.countWorlds {
			agg.counted = append(agg.counted, t)
		}
	}
	cpu, err := prof.stop()
	if err != nil {
		return rep, fmt.Errorf("profile: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d golden worlds, %d untraced/traced pairs; profiles in %s",
		len(cfg.golden.goldenSeeds(wl)), agg.pairs, cfg.out))
	layerMetrics(&rep, agg, cpu, agg.counted[0].regOps > 0)
	return rep, nil
}

// pairTotals sums a traced run's untraced/traced world pairs.
type pairTotals struct {
	counted                      []result // the first countWorlds traced worlds
	spans                        map[string]time.Duration
	runChild                     time.Duration
	pairs                        int
	untraced, traced             time.Duration
	untracedEvents, tracedEvents uint64
	cost                         hostCost
}

// perLayer names every per-layer metric in output order, with its unit,
// except the register's (registerLayer), which follow them in a run of
// a register workload, and the CPU profile's per-module shares
// (cpu.<module>_frac), which come last. Counter metrics are per-world
// means over the counted worlds; span metrics are per-world means over
// the traced worlds.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"}, {"sim.run_s", "s"},
	{"runtime.self_s", "s"}, {"runtime.ns_per_event", "ns"},
	{"runtime.alloc_bytes_per_event", "B"}, {"gc.cpu_frac", "frac"},
	{"node.msgs_sent", "count"}, {"node.msgs_delivered", "count"},
	{"node.msgs_dropped", "count"}, {"node.delivery_ratio", "frac"},
	{"pex.seed_s", "s"}, {"pex.exchanges", "count"}, {"pex.records_shipped", "count"},
	{"pex.records_merged", "count"}, {"pex.merge_ratio", "frac"},
	{"pex.rejected", "count"}, {"pex.msgs", "count"},
	{"reliable.acked", "count"}, {"reliable.retries", "count"},
	{"reliable.giveups", "count"}, {"reliable.useful_ratio", "frac"},
	{"auth.accepted", "count"}, {"auth.rejected", "count"}, {"auth.quarantines", "count"},
	{"audit.receipts_sent", "count"}, {"audit.proofs_forwarded", "count"}, {"audit.msgs", "count"},
	{"identity.restores", "count"},
	{"reconfig.committed", "count"}, {"reconfig.drain_timeouts", "count"},
	{"reconfig.stale_epoch_drops", "count"},
	{"churn.apply_s", "s"}, {"churn.joins", "count"}, {"churn.leaves", "count"},
	{"core.trace_events", "count"},
	{"otq.behavior_s", "s"}, {"otq.stream_check_s", "s"}, {"otq.batch_check_s", "s"},
	{"otq.query_ticks", "ticks"}, {"otq.msgs_per_query", "count"},
	{"trace.overhead_frac", "frac"},
	{"profile.reconcile_frac", "frac"}, {"profile.fingerprint_frac", "frac"},
}

// registerLayer names the register's per-layer metrics; the profile
// share cpu.tq_frac goes with them.
var registerLayer = []struct{ name, unit string }{
	{"tq.behavior_s", "s"}, {"tq.stream_check_s", "s"},
	{"tq.walks", "count"}, {"tq.probes", "count"}, {"tq.retries", "count"},
	{"tq.late_responses", "count"}, {"tq.msgs_per_op", "count"}, {"tq.quorum_ratio", "frac"},
	{"tq.read_p50_ticks", "ticks"}, {"tq.read_tail_ticks", "ticks"},
	{"tq.write_p50_ticks", "ticks"}, {"tq.soft_frac", "frac"},
}

// layerMetrics derives every per-layer metric of a traced run, the
// register's too when register is set.
func layerMetrics(rep *report, agg pairTotals, cpu shares, register bool) {
	c := counters{}
	for _, res := range agg.counted {
		for k, v := range res.counters {
			c[k] += v / float64(len(agg.counted))
		}
	}
	span := func(name string) float64 { return agg.spans[name].Seconds() / float64(agg.pairs) }
	self := span("sim.run_s") - agg.runChild.Seconds()/float64(agg.pairs)
	v := map[string]float64{
		"sim.run_s":                     span("sim.run_s"),
		"runtime.self_s":                self,
		"runtime.ns_per_event":          1e9 * self * float64(agg.pairs) / float64(agg.tracedEvents),
		"runtime.alloc_bytes_per_event": ratio(float64(agg.cost.allocBytes), float64(agg.untracedEvents)),
		"gc.cpu_frac":                   ratio(agg.cost.gcCPU, agg.cost.usedCPU),
		"node.delivery_ratio":           ratio(c["node.msgs_delivered"], c["node.msgs_sent"]),
		"pex.merge_ratio":               ratio(c["pex.records_merged"], c["pex.records_shipped"]),
		"reliable.useful_ratio":         ratio(c["reliable.acked"], c["reliable.acked"]+c["reliable.retries"]),
		"tq.msgs_per_op":                ratio(c["tq.msgs"], c["tq.ops"]),
		"tq.quorum_ratio":               ratio(c["tq.quorum_ops"], c["tq.started_ops"]),
		"trace.overhead_frac":           agg.traced.Seconds()/agg.untraced.Seconds() - 1,
	}
	for _, name := range []string{"pex.seed_s", "churn.apply_s", "otq.behavior_s", "otq.stream_check_s",
		"otq.batch_check_s", "tq.behavior_s", "tq.stream_check_s"} {
		v[name] = span(name)
	}
	for _, m := range registerMetrics(agg.counted) {
		v[m.name] = m.value
	}
	for _, h := range hotPaths {
		v[h.metric] = cpu.hot[h.metric]
	}
	names := perLayer
	if register {
		names = append(names[:len(names):len(names)], registerLayer...)
	}
	for _, m := range names {
		x, ok := v[m.name]
		if !ok {
			x = c[m.name]
		}
		rep.add(m.name, x, m.unit)
	}
	for _, m := range profileModules {
		if m == "tq" && !register {
			continue
		}
		rep.add("cpu."+m+"_frac", cpu.modules[m], "frac")
	}
}

// checkDigest compares a traced world's digest with the golden table; a
// golden world missing from the table is a failure too.
func checkDigest(rep *report, wl *workload, g goldenTable, seed, digest uint64, required bool) {
	want, ok := g.lookup(wl, seed)
	switch {
	case !ok && required:
		rep.fail(1, "world %d: no golden digest", seed)
	case ok && want != hex(digest):
		rep.fail(1, "world %d: digest %s, golden %s", seed, hex(digest), want)
	}
}

func counterDiff(a, b counters) string {
	var keys []string
	for k := range a {
		if a[k] != b[k] {
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf(" %s %g/%g", k, a[k], b[k])
	}
	return out
}

// printResult writes the notes, the metrics by name and unit, and the
// result object, which callers parse, as the last line.
func printResult(w io.Writer, rep report) error {
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	ms := map[string]any{}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-32s %.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "wwbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "run seed; world j is seeded seed*10000+j+1")
	seconds := flag.Float64("seconds", 30, "host-time budget of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "wwbench"), "directory for profiles")
	printGolden := flag.Bool("print-golden", false, "print the golden digest table of the current code and exit")
	flag.Parse()
	// One P: the world's goroutine and the garbage collector share one
	// core, so a world's host time is all the CPU work it causes, and it
	// drifts with the host's speed the way the reference kernel's does.
	// With the GC on the second core, its speed there (shared with other
	// tenants) made runs unsteady and the kernel a poor reference.
	runtime.GOMAXPROCS(1)

	g, err := loadGolden(goldenFile)
	if err != nil {
		return fmt.Errorf("golden table: %w", err)
	}
	if *printGolden {
		return writeGolden(os.Stdout, g)
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	host, err := hostInfo()
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: *seconds, out: *out, golden: g}
	fmt.Printf("host: %s\n", host)
	fmt.Printf("run: workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *trace)
	var rep report
	if *trace == 1 {
		rep, err = runTraced(wl, cfg)
		if err != nil {
			return err
		}
	} else {
		rep = runUntraced(wl, cfg)
	}
	return printResult(os.Stdout, rep)
}

// writeGolden recomputes every workload's golden digests and prints the
// table with the current seed lists.
func writeGolden(w io.Writer, g goldenTable) error {
	g.Digests = map[string]map[string]string{}
	for _, wl := range workloads {
		g.Digests[wl.name] = map[string]string{}
		for _, seed := range g.goldenSeeds(wl) {
			res := wl.run(seed, newTracer())
			if res.verdict != nil {
				return fmt.Errorf("%s world %d: %v", wl.name, seed, res.verdict)
			}
			g.Digests[wl.name][strconv.FormatUint(seed, 10)] = hex(res.digest)
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
