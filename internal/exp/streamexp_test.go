package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// retainsNoEvents reports whether tr is a count-only trace: one whose
// event-log reads panic because it stores no events.
func retainsNoEvents(tr *core.Trace) (refused bool) {
	defer func() { refused = recover() != nil }()
	tr.Events()
	return false
}

// TestStreamCheckLiteTwin: a judged query under count-only retention
// produces the same verdict and counters as the fully retained twin of
// the run, and its trace refuses event-log reads.
func TestStreamCheckLiteTwin(t *testing.T) {
	cell := e29Cell{n: 200, horizon: 96, queryAt: 48}
	full := e29Run(3, cell)
	liteCell := cell
	liteCell.lite = true
	lite := e29Run(3, liteCell)
	if !reflect.DeepEqual(full.Outcome, lite.Outcome) {
		t.Fatalf("count-only retention changed the verdict:\nfull: %+v\nlite: %+v",
			full.Outcome, lite.Outcome)
	}
	if lite.Trace.Len() != full.Trace.Len() || lite.Messages != full.Messages ||
		lite.Trace.MaxConcurrency() != full.Trace.MaxConcurrency() {
		t.Fatalf("counters diverged: lite %d/%+v/%d, full %d/%+v/%d",
			lite.Trace.Len(), lite.Messages, lite.Trace.MaxConcurrency(),
			full.Trace.Len(), full.Messages, full.Trace.MaxConcurrency())
	}
	if !retainsNoEvents(lite.Trace) || retainsNoEvents(full.Trace) {
		t.Fatal("count-only retention did not refuse event-log reads, or full retention did")
	}
}

// The acceptance bar for the streaming checker: a JUDGED 10k-entity full
// world — live pex, churn, a real query — completes under count-only
// retention with full OTQ verdicts.
func TestE29TenKJudgedWorldCompletes(t *testing.T) {
	if raceDetectorOn {
		t.Skip("a judged 10k world takes minutes under the race detector; raced E29 coverage comes from TestAllExperimentsRun/E29")
	}
	cell := e29Cell{n: 10000, horizon: 96, queryAt: 48, lite: true}
	res := e29Run(1, cell)
	if res.Trace.MaxConcurrency() < 10000 {
		t.Fatalf("peak concurrency %d, want >= 10000", res.Trace.MaxConcurrency())
	}
	if !retainsNoEvents(res.Trace) {
		t.Fatal("the 10k world's trace retained its events")
	}
	out := res.Outcome
	if !out.Terminated {
		t.Fatalf("flood query did not terminate: %+v", out)
	}
	if out.StableCount < 10000 {
		t.Fatalf("stable count %d, want >= 10000 (immortal initial population)", out.StableCount)
	}
	if out.CoveredStable == 0 {
		t.Fatalf("query covered nobody: %+v", out)
	}
}

func TestE29Deterministic(t *testing.T) {
	cell := e29Cell{n: 300, horizon: 96, queryAt: 48}
	a := e29Run(7, cell)
	b := e29Run(7, cell)
	if !reflect.DeepEqual(a.Outcome, b.Outcome) || a.Messages != b.Messages {
		t.Fatalf("replays differ:\n%+v %+v\n%+v %+v", a.Outcome, a.Messages, b.Outcome, b.Messages)
	}
}

func TestE29QuickReport(t *testing.T) {
	if raceDetectorOn {
		t.Skip("duplicates TestAllExperimentsRun/E29 under the race detector")
	}
	rep := E29(quick)
	out := rep.String()
	if !strings.Contains(out, "E29") || !strings.Contains(out, "count-only") {
		t.Fatalf("report missing expected rows:\n%s", out)
	}
}
