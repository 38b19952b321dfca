package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke tests hold the
// output to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// small runs a workload for the fewest worlds a run allows.
func small(wl *workload) *workload {
	c := *wl
	c.countWorlds, c.goldenWorlds = 1, 1
	return &c
}

func testConfig(t *testing.T) config {
	t.Helper()
	g, err := loadGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 1, seconds: 1e-9, out: t.TempDir(), golden: g}
}

// resultLine prints the report and decodes its last line.
func resultLine(t *testing.T, rep report) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return out
}

// checkMetrics asserts the result carries exactly the named metrics,
// each with its unit.
func checkMetrics(t *testing.T, out map[string]any, want map[string]string) {
	t.Helper()
	got := out["metrics"].(map[string]any)
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, spec names %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m["unit"] != unit {
			t.Errorf("metric %s unit %v, spec %s", name, m["unit"], unit)
		}
	}
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	listed := map[string]bool{}
	for _, sw := range spec.Workloads {
		wl, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wl.unlisted {
			t.Errorf("spec lists %s, which the benchmark marks unlisted", wl.name)
		}
		listed[wl.name] = true
	}
	// Register workloads add the register's metrics to the spec's.
	registerLayers := map[string]string{"cpu.tq_frac": "frac"}
	for k, v := range layers {
		registerLayers[k] = v
	}
	for _, m := range registerLayer {
		registerLayers[m.name] = m.unit
	}
	for _, wl := range workloads {
		if !wl.unlisted && !listed[wl.name] {
			t.Errorf("the spec does not list %s", wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			wl := small(wl)
			out := resultLine(t, runUntraced(wl, testConfig(t)))
			checkMetrics(t, out, e2e)
			if out["attempted"].(float64) < 1 {
				t.Error("no operation attempted")
			}
			rep, err := runTraced(wl, testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Errorf("traced run failed %d operations: %v", rep.failed, rep.notes)
			}
			want := layers
			if wl.name == "tq-register" {
				want = registerLayers
			}
			checkMetrics(t, resultLine(t, rep), want)
		})
	}
}

func TestTamperedDigestFailsTheWorld(t *testing.T) {
	wl, _ := workloadByName("byz-storm")
	wl = small(wl)
	cfg := testConfig(t)
	cfg.seed = 2 // its worlds are not the golden world, which then runs once
	seed := cfg.golden.goldenSeeds(wl)[0]
	want, ok := cfg.golden.lookup(wl, seed)
	if !ok {
		t.Fatalf("golden table has no world %d", seed)
	}
	tampered := map[string]map[string]string{wl.name: {}}
	for k, v := range cfg.golden.Digests[wl.name] {
		tampered[wl.name][k] = v
	}
	flip := "0"
	if want[0] == '0' {
		flip = "1"
	}
	tampered[wl.name][strconv.FormatUint(seed, 10)] = flip + want[1:]
	cfg.golden.Digests = tampered
	rep, err := runTraced(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Fatalf("tampered digest: %d failed operations, want 1 (%v)", rep.failed, rep.notes)
	}
	if out := resultLine(t, rep); out["correct"] != false {
		t.Errorf("tampered digest reported correct")
	}
}

func TestFailedVerdictFailsTheWorld(t *testing.T) {
	wl, _ := workloadByName("byz-storm")
	broken := *small(wl)
	broken.run = func(seed uint64, tr *tracer) result {
		res := wl.run(seed, tr)
		res.verdict = errors.New("forced")
		return res
	}
	rep := runUntraced(&broken, testConfig(t))
	if rep.failed != rep.attempted || rep.failed == 0 {
		t.Fatalf("%d of %d operations failed, want all", rep.failed, rep.attempted)
	}
	if out := resultLine(t, rep); out["correct"] != false {
		t.Errorf("failed verdicts reported correct")
	}

	var r report
	r.account(7, result{regOps: 10, regSilent: 2})
	if r.attempted != 11 || r.failed != 2 {
		t.Errorf("silent register violations: %d of %d failed, want 2 of 11", r.failed, r.attempted)
	}
}

// Each verdict rejects the output it exists to catch.
func TestVerdictsReject(t *testing.T) {
	if pexScaleVerdict(otq.Outcome{Terminated: true}) == nil {
		t.Error("pex-scale: nobody stable accepted")
	}
	if pexScaleVerdict(otq.Outcome{StableCount: 5}) == nil {
		t.Error("pex-scale: non-termination accepted")
	}
	ok := otq.Outcome{Terminated: true}
	if err := byzVerdict(ok, node.IdentityCounters{}, node.ReconfigCounters{Initiated: 4, Committed: 4}); err != nil {
		t.Errorf("byz-storm: clean outcome rejected: %v", err)
	}
	if byzVerdict(ok, node.IdentityCounters{QuarantinesLaundered: 1}, node.ReconfigCounters{}) == nil {
		t.Error("byz-storm: laundered quarantine accepted")
	}
	if byzVerdict(ok, node.IdentityCounters{}, node.ReconfigCounters{Initiated: 4, Committed: 3}) == nil {
		t.Error("byz-storm: uncommitted reconfiguration accepted")
	}
	if byzVerdict(otq.Outcome{Terminated: true, MissedStable: []graph.NodeID{5}}, node.IdentityCounters{}, node.ReconfigCounters{}) == nil {
		t.Error("byz-storm: missed honest member accepted")
	}
	convicted := []node.QuarantineEvent{{Offender: 4}, {Offender: 9}, {Offender: 13}}
	clean := map[graph.NodeID][]pex.Record{1: {{ID: 2}}}
	if err := poisonVerdict(convicted, clean); err != nil {
		t.Errorf("view-poison: clean outcome rejected: %v", err)
	}
	if poisonVerdict(convicted[:2], clean) == nil {
		t.Error("view-poison: unconvicted poisoner accepted")
	}
	if poisonVerdict(append(convicted, node.QuarantineEvent{Offender: 20}), clean) == nil {
		t.Error("view-poison: honest quarantine accepted")
	}
	if poisonVerdict(convicted, map[graph.NodeID][]pex.Record{1: {{ID: poisonSybils + 1}}}) == nil {
		t.Error("view-poison: sybil record accepted")
	}
	if poisonVerdict(convicted, map[graph.NodeID][]pex.Record{1: {{ID: poisonN}}}) == nil {
		t.Error("view-poison: departed record accepted")
	}
}

func TestLocalScaleUsesNearbySamples(t *testing.T) {
	refs := []refSample{{0, 0.010}, {1, 0.020}, {10, 0.005}}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	// Samples at 0 and 1 lie within refWindow of [0.5, 0.8]: median 15 ms.
	if got := localScale(refs, 0.5, 0.8); !near(got, 0.010/0.015) {
		t.Errorf("windowed scale %g, want %g", got, 0.010/0.015)
	}
	// None lies within refWindow of [5, 5.5]; the nearest is at 1.
	if got := localScale(refs, 5, 5.5); !near(got, 0.5) {
		t.Errorf("nearest-sample scale %g, want 0.5", got)
	}
}
