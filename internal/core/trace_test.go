package core

import (
	"testing"

	"repro/internal/graph"
)

// buildChurnTrace: 1 and 2 present from 0; 3 joins at 5; 2 leaves at 10;
// 3 leaves at 20; trace closed at 30.
func buildChurnTrace() *Trace {
	tr := &Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.EdgeUp(0, 1, 2)
	tr.Join(5, 3)
	tr.EdgeUp(5, 2, 3)
	tr.Leave(10, 2)
	tr.EdgeUp(10, 1, 3)
	tr.Leave(20, 3)
	tr.Close(30)
	return tr
}

func TestTraceOrderingEnforced(t *testing.T) {
	tr := &Trace{}
	tr.Join(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record did not panic")
		}
	}()
	tr.Join(5, 2)
}

func TestSessions(t *testing.T) {
	tr := buildChurnTrace()
	sess := tr.Sessions()
	if got := sess[1]; len(got) != 1 || got[0].From != 0 || got[0].To != 31 {
		t.Errorf("sessions[1] = %+v, want [{0 31}]", got)
	}
	if got := sess[2]; len(got) != 1 || got[0].From != 0 || got[0].To != 10 {
		t.Errorf("sessions[2] = %+v, want [{0 10}]", got)
	}
	if got := sess[3]; len(got) != 1 || got[0].From != 5 || got[0].To != 20 {
		t.Errorf("sessions[3] = %+v, want [{5 20}]", got)
	}
}

func TestRejoinSessions(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 7)
	tr.Leave(5, 7)
	tr.Join(10, 7)
	tr.Close(20)
	sess := tr.Sessions()[7]
	if len(sess) != 2 {
		t.Fatalf("rejoin produced %d sessions, want 2", len(sess))
	}
	if sess[0].To != 5 || sess[1].From != 10 {
		t.Fatalf("rejoin sessions = %+v", sess)
	}
}

func TestDoubleJoinIgnored(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 7)
	tr.Join(3, 7) // duplicate join of an open session: first one wins
	tr.Leave(5, 7)
	sess := tr.Sessions()[7]
	if len(sess) != 1 || sess[0].From != 0 {
		t.Fatalf("double-join sessions = %+v", sess)
	}
}

func TestLeaveWithoutJoinIgnored(t *testing.T) {
	tr := &Trace{}
	tr.Leave(5, 9)
	if len(tr.Sessions()) != 0 {
		t.Fatal("leave without join created a session")
	}
}

func TestEntities(t *testing.T) {
	tr := buildChurnTrace()
	ents := tr.Entities()
	want := []graph.NodeID{1, 2, 3}
	if len(ents) != len(want) {
		t.Fatalf("Entities = %v", ents)
	}
	for i := range want {
		if ents[i] != want[i] {
			t.Fatalf("Entities = %v, want %v", ents, want)
		}
	}
}

func TestPresentAt(t *testing.T) {
	tr := buildChurnTrace()
	cases := []struct {
		t    Time
		want []graph.NodeID
	}{
		{0, []graph.NodeID{1, 2}},
		{5, []graph.NodeID{1, 2, 3}},
		{10, []graph.NodeID{1, 3}}, // leave at 10 means absent at 10 (half-open)
		{25, []graph.NodeID{1}},
	}
	for _, c := range cases {
		got := tr.PresentAt(c.t)
		if len(got) != len(c.want) {
			t.Errorf("PresentAt(%d) = %v, want %v", c.t, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("PresentAt(%d) = %v, want %v", c.t, got, c.want)
			}
		}
	}
}

func TestMaxConcurrency(t *testing.T) {
	tr := buildChurnTrace()
	if mc := tr.MaxConcurrency(); mc != 3 {
		t.Fatalf("MaxConcurrency = %d, want 3", mc)
	}
	if mc := (&Trace{}).MaxConcurrency(); mc != 0 {
		t.Fatalf("empty trace MaxConcurrency = %d", mc)
	}
}

func TestStableBetween(t *testing.T) {
	tr := buildChurnTrace()
	// Interval [6, 15]: 1 is present throughout; 2 leaves at 10; 3 stays
	// until 20, so 3 is stable for [6,15].
	got := tr.StableBetween(6, 15)
	want := []graph.NodeID{1, 3}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("StableBetween(6,15) = %v, want %v", got, want)
	}
	// Entity leaving exactly at the interval end is not stable (half-open).
	got = tr.StableBetween(6, 20)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("StableBetween(6,20) = %v, want [1]", got)
	}
}

func TestEverPresentBetween(t *testing.T) {
	tr := buildChurnTrace()
	got := tr.EverPresentBetween(12, 30)
	// 2 left at 10, so only 1 and 3.
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("EverPresentBetween(12,30) = %v", got)
	}
	got = tr.EverPresentBetween(0, 4)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("EverPresentBetween(0,4) = %v", got)
	}
}

func TestTemporalConversion(t *testing.T) {
	tr := buildChurnTrace()
	tg := tr.Temporal()
	g := tg.Snapshot(7)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
		t.Fatal("temporal snapshot missing edges")
	}
	g = tg.Snapshot(12)
	if g.HasNode(2) {
		t.Fatal("temporal snapshot kept departed node")
	}
	if !g.HasEdge(1, 3) {
		t.Fatal("temporal snapshot missing repair edge")
	}
}

func TestLastTopologyChange(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.EdgeUp(0, 1, 2)
	tr.Leave(20, 2)
	if lt := tr.LastTopologyChange(); lt != 20 {
		t.Fatalf("LastTopologyChange = %d, want 20", lt)
	}
	tr.Mark(25, 1, "query-done") // marks are not topology
	if lt := tr.LastTopologyChange(); lt != 20 {
		t.Fatalf("LastTopologyChange after mark = %d, want 20", lt)
	}
}

func TestRecordAfterClosePanics(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 1)
	tr.Close(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Record after Close did not panic")
		}
	}()
	tr.Join(11, 2)
}

func TestMessages(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.Send(1, 1, 2, "query")
	tr.Deliver(2, 2, 1, "query")
	tr.Send(3, 2, 1, "reply")
	tr.Drop(4, 2, 1, "reply")
	ms := tr.Messages("")
	if ms.Sent != 2 || ms.Delivered != 1 || ms.Dropped != 1 {
		t.Fatalf("Messages(all) = %+v", ms)
	}
	ms = tr.Messages("query")
	if ms.Sent != 1 || ms.Delivered != 1 || ms.Dropped != 0 {
		t.Fatalf("Messages(query) = %+v", ms)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []TraceEventKind{TJoin, TLeave, TEdgeUp, TEdgeDown, TSend, TDeliver, TDrop, TMark}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad string %q", k, s)
		}
		seen[s] = true
	}
}

func TestSessionStatistics(t *testing.T) {
	tr := buildChurnTrace()
	st := tr.SessionStatistics()
	// Sessions: 1 (open to end), 2 ([0,10)), 3 ([5,20)).
	if st.Sessions != 3 || st.Completed != 2 {
		t.Fatalf("Sessions/Completed = %d/%d, want 3/2", st.Sessions, st.Completed)
	}
	if st.MeanLength != 12.5 { // (10 + 15) / 2
		t.Fatalf("MeanLength = %v, want 12.5", st.MeanLength)
	}
	if st.MaxLength != 15 {
		t.Fatalf("MaxLength = %v, want 15", st.MaxLength)
	}
	// 3 joins + 2 leaves over 30 ticks.
	if st.EventsPerTick != 5.0/30 {
		t.Fatalf("EventsPerTick = %v", st.EventsPerTick)
	}
}

func TestSessionStatisticsEmpty(t *testing.T) {
	st := (&Trace{}).SessionStatistics()
	if st.Sessions != 0 || st.MeanLength != 0 || st.EventsPerTick != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestEndAndClose(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 1)
	tr.Join(7, 2)
	if tr.End() != 7 {
		t.Fatalf("End = %d before close", tr.End())
	}
	tr.Close(100)
	if tr.End() != 100 {
		t.Fatalf("End = %d after Close(100)", tr.End())
	}
	// Closing earlier than the last event keeps the later end.
	tr2 := &Trace{}
	tr2.Join(50, 1)
	tr2.Close(10)
	if tr2.End() != 50 {
		t.Fatalf("End = %d after early Close", tr2.End())
	}
}

// A count-only trace keeps counters, not events: every read of the event
// log must refuse loudly instead of answering over an empty log.
func TestCountOnlyRefusesLogReads(t *testing.T) {
	tr := &Trace{}
	tr.SetCountOnly(true)
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.Mark(3, 1, MarkProvenEquivocator)
	tr.Close(10)
	reads := map[string]func(){
		"Events":                     func() { tr.Events() },
		"EventsSince":                func() { tr.EventsSince(0) },
		"Replay":                     func() { tr.Replay(func(TraceEvent) {}) },
		"Sessions":                   func() { tr.Sessions() },
		"SessionsBridgingRecovery":   func() { tr.SessionsBridgingRecovery() },
		"SessionsBridgingRejoin":     func() { tr.SessionsBridgingRejoin() },
		"StableBetween":              func() { tr.StableBetween(0, 5) },
		"StableBetweenBridged":       func() { tr.StableBetweenBridged(0, 5) },
		"StableBetweenRejoinBridged": func() { tr.StableBetweenRejoinBridged(0, 5) },
		"EverPresentBetween":         func() { tr.EverPresentBetween(0, 5) },
		"PresentAt":                  func() { tr.PresentAt(5) },
		"Entities":                   func() { tr.Entities() },
		"Temporal":                   func() { tr.Temporal() },
		"LastTopologyChange":         func() { tr.LastTopologyChange() },
		"SessionStatistics":          func() { tr.SessionStatistics() },
		"MarkedEntities":             func() { tr.MarkedEntities(MarkProvenEquivocator) },
		"ProvenEquivocators":         func() { tr.ProvenEquivocators() },
		"InferClass":                 func() { InferClass(tr) },
	}
	for name, read := range reads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a count-only trace did not panic", name)
				}
			}()
			read()
		}()
	}
	if tr.Len() != 3 || tr.MaxConcurrency() != 2 || tr.End() != 10 {
		t.Fatalf("counters wrong: len %d, peak %d, end %d", tr.Len(), tr.MaxConcurrency(), tr.End())
	}
	if at, ok := tr.FirstMark(MarkProvenEquivocator); !ok || at != 3 {
		t.Fatalf("FirstMark = %d, %v", at, ok)
	}
}
