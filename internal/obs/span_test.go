package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"
)

func TestSpansRingOverflowOrdering(t *testing.T) {
	s := NewSpans(4)
	for i := 0; i < 10; i++ {
		s.Record(Span{Name: "q", Kind: "query", Dur: time.Duration(i)})
	}
	if got := s.Recorded(); got != 10 {
		t.Fatalf("Recorded() = %d, want 10", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot() returned %d spans, want 4", len(snap))
	}
	// Oldest-first completion order: the newest 4 of the 10 recorded.
	for i, sp := range snap {
		if want := SpanID(7 + i); sp.ID != want {
			t.Errorf("Snapshot()[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
}

func TestSpansPartialRingKeepsOrder(t *testing.T) {
	s := NewSpans(8)
	for i := 0; i < 3; i++ {
		s.Record(Span{Name: "q", Kind: "query"})
	}
	snap := s.Snapshot()
	if len(snap) != 3 || s.Dropped() != 0 {
		t.Fatalf("Snapshot len=%d Dropped=%d, want 3 and 0", len(snap), s.Dropped())
	}
	for i, sp := range snap {
		if want := SpanID(1 + i); sp.ID != want {
			t.Errorf("Snapshot()[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
}

func TestSpansNilSafety(t *testing.T) {
	var s *Spans
	if a := s.Start("x", "ingest", 0, SpanContext{}); a != nil {
		t.Fatalf("nil.Start returned %v, want nil", a)
	}
	if id := s.Record(Span{Name: "x"}); id != 0 {
		t.Fatalf("nil.Record returned %d, want 0", id)
	}
	if s.Recorded() != 0 || s.Dropped() != 0 || s.Snapshot() != nil {
		t.Fatal("nil collector counters/snapshot not zero")
	}
	if err := s.WriteChromeTrace(io.Discard); err != nil {
		t.Fatalf("nil.WriteChromeTrace: %v", err)
	}

	var a *ActiveSpan
	if ctx := a.Context(); ctx != (SpanContext{}) {
		t.Fatalf("nil ActiveSpan Context = %+v, want zero", ctx)
	}
	// The chained mutators and End must all tolerate nil.
	a.Attr("k", 1).SetEpoch(2).End()
}

func TestActiveSpanLifecycle(t *testing.T) {
	s := NewSpans(8)
	parent := s.Start("batch", "ingest", 3, SpanContext{})
	if parent.Context().ID == 0 {
		t.Fatal("Start did not assign an ID before End")
	}
	child := s.Start("repair", "maintain", 3, parent.Context())
	child.Attr("swaps", 7).End()
	parent.SetEpoch(4).Attr("applied", 64).End()

	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(snap))
	}
	// Completion order: the child ended first.
	c, p := snap[0], snap[1]
	if c.Name != "repair" || p.Name != "batch" {
		t.Fatalf("completion order wrong: got %q then %q", c.Name, p.Name)
	}
	if c.Parent != p.ID {
		t.Errorf("child.Parent = %d, want parent ID %d", c.Parent, p.ID)
	}
	if c.Attrs["swaps"] != 7 {
		t.Errorf("child attrs not retained: %+v", c)
	}
	if p.Epoch != 4 {
		t.Errorf("SetEpoch not applied: epoch = %d", p.Epoch)
	}
	if c.Dur < 0 || p.Dur < 0 {
		t.Errorf("negative durations: %v %v", c.Dur, p.Dur)
	}
}

func TestSpansRecordBackdatesStart(t *testing.T) {
	s := NewSpans(2)
	before := time.Now()
	s.Record(Span{Name: "q", Kind: "query", Dur: time.Second})
	sp := s.Snapshot()[0]
	if sp.Start.After(before) {
		t.Errorf("Record did not back-date Start by Dur: start %v, recorded at %v", sp.Start, before)
	}
	fixed := time.Unix(100, 0)
	s.Record(Span{Name: "q2", Kind: "query", Start: fixed, Dur: time.Second})
	if got := s.Snapshot()[1].Start; !got.Equal(fixed) {
		t.Errorf("Record overwrote explicit Start: got %v, want %v", got, fixed)
	}
}

func TestSpansConcurrentEmitAndExport(t *testing.T) {
	s := NewSpans(64)
	const writers = 4
	const perWriter = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(epoch int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%2 == 0 {
					a := s.Start("batch", "ingest", epoch, SpanContext{})
					a.Attr("applied", int64(i)).End()
				} else {
					s.Record(Span{Name: "q", Kind: "query", Epoch: epoch, Dur: time.Microsecond})
				}
			}
		}(int64(w))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Snapshot()
			if err := s.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("WriteChromeTrace: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := s.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d", got, writers*perWriter)
	}
}

// chromeTrace mirrors the exporter's output shape for decoding in tests.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   string         `json:"id"`
		BP   string         `json:"bp"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
	Recorded        uint64 `json:"recordedSpans"`
	Dropped         uint64 `json:"droppedSpans"`
}

func TestWriteChromeTraceGolden(t *testing.T) {
	s := NewSpans(8)
	base := time.Unix(1000, 0)
	pubID := s.Record(Span{
		Name: "publish", Kind: "publish", Epoch: 5,
		Start: base, Dur: 2 * time.Millisecond,
		Attrs: map[string]int64{"delta_backlog": 3},
	})
	s.Record(Span{
		Name: "query:bfs", Kind: "query", Cause: "full", Sys: "ligra", Epoch: 5,
		Parent: pubID, Start: base.Add(10 * time.Millisecond), Dur: time.Millisecond,
	})

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if tr.DisplayTimeUnit != "ms" || tr.Recorded != 2 || tr.Dropped != 0 {
		t.Fatalf("header wrong: unit=%q recorded=%d dropped=%d", tr.DisplayTimeUnit, tr.Recorded, tr.Dropped)
	}

	var xEvents, flows, meta int
	var sawFlowStart, sawFlowEnd bool
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			xEvents++
			if ev.Dur == nil {
				t.Errorf("X event %q missing dur", ev.Name)
			}
			if ev.Name == "query:bfs" {
				// ts is microseconds; the query started 10ms after base.
				want := float64(base.Add(10*time.Millisecond).UnixNano()) / 1e3
				if ev.Ts != want {
					t.Errorf("query ts = %v, want %v", ev.Ts, want)
				}
				if ev.Args["parent_id"] != float64(pubID) {
					t.Errorf("query parent_id = %v, want %d", ev.Args["parent_id"], pubID)
				}
				if ev.Args["cause"] != "full" || ev.Args["sys"] != "ligra" {
					t.Errorf("query args missing cause/sys: %v", ev.Args)
				}
			}
			if ev.Name == "publish" && ev.Args["delta_backlog"] != float64(3) {
				t.Errorf("publish attrs not exported: %v", ev.Args)
			}
		case "s":
			flows++
			sawFlowStart = true
			// The flow must originate inside the parent slice: publish runs
			// [base, base+2ms] but the query starts at +10ms, so the start
			// point is clamped to the slice end.
			hi := float64(base.Add(2*time.Millisecond).UnixNano()) / 1e3
			if ev.Ts != hi {
				t.Errorf("flow start ts = %v, want clamped %v", ev.Ts, hi)
			}
		case "f":
			flows++
			sawFlowEnd = true
			if ev.BP != "e" {
				t.Errorf("flow end bp = %q, want \"e\"", ev.BP)
			}
		}
	}
	if xEvents != 2 {
		t.Errorf("X events = %d, want 2", xEvents)
	}
	if flows != 2 || !sawFlowStart || !sawFlowEnd {
		t.Errorf("flow pair incomplete: %d flow events (s=%v f=%v)", flows, sawFlowStart, sawFlowEnd)
	}
	// process_name + the two touched tracks (publish, query).
	if meta != 3 {
		t.Errorf("metadata events = %d, want 3", meta)
	}
}

func TestWriteChromeTraceOrphanParentNoFlow(t *testing.T) {
	s := NewSpans(2)
	// Parent ID 99 was never retained: the slice must still export, with no
	// dangling flow arrow.
	s.Record(Span{Name: "q", Kind: "query", Parent: 99, Dur: time.Millisecond})
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "s" || ev.Ph == "f" {
			t.Fatalf("orphan parent produced flow event: %+v", ev)
		}
	}
}

func TestSpanTracks(t *testing.T) {
	cases := []struct {
		kind string
		tid  int
	}{
		{"ingest", 1}, {"maintain", 1}, {"publish", 2}, {"build", 3}, {"query", 4}, {"future", 4},
	}
	for _, c := range cases {
		if tid, _ := spanTrack(c.kind); tid != c.tid {
			t.Errorf("spanTrack(%q) tid = %d, want %d", c.kind, tid, c.tid)
		}
	}
}
