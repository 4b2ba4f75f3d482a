package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a Spans collector. IDs are assigned
// monotonically from 1 when a span starts (or is recorded); 0 means "no
// span" and is what a zero SpanContext carries.
type SpanID uint64

// SpanContext is the causal handle a finished or in-flight span hands to
// its children: enough to parent-link without retaining the span itself.
// The zero value is a valid "no parent" context.
type SpanContext struct {
	ID    SpanID
	Epoch int64
}

// Span is one completed, causally linked unit of work in the epoch
// lifecycle. Parent links express causality — a repair span is a child of
// the batch that tripped it, a query span is a child of the publish span
// of the epoch it read — and Epoch pins the span to the mutation epoch it
// acted on. Kind buckets spans onto exporter tracks ("ingest", "maintain",
// "publish", "build", "query"); Name says what happened and Cause why
// (rebuild causes, growth causes, refine answer paths); Attrs carries the
// modeled work counts next to the wall-clock Dur, and Labels the few
// attributes that name rather than count (what triggered a derivation).
// See DESIGN.md §6 for the vocabulary.
type Span struct {
	ID     SpanID            `json:"id"`
	Parent SpanID            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Cause  string            `json:"cause,omitempty"`
	Sys    string            `json:"sys,omitempty"`
	Epoch  int64             `json:"epoch"`
	Start  time.Time         `json:"start"`
	Dur    time.Duration     `json:"dur_ns"`
	Attrs  map[string]int64  `json:"attrs,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
}

// DefaultSpanCapacity is the ring size NewSpans(0) selects.
const DefaultSpanCapacity = 4096

// Spans is a bounded ring of completed Spans plus the ID allocator for
// in-flight ones. Start/Record may be called from any goroutine (the
// ingest side starts batch spans while reader goroutines record query
// spans); when the ring is full the oldest spans are overwritten — Dropped
// counts them. All methods are no-ops on a nil receiver, so an
// uninstrumented caller pays nothing.
type Spans struct {
	nextID atomic.Uint64

	mu sync.Mutex
	//vebo:guardedby mu
	buf []Span
	//vebo:guardedby mu
	recorded uint64 // total spans ever recorded; buf holds the newest len(buf)
}

// NewSpans returns a collector retaining the newest capacity spans
// (DefaultSpanCapacity when capacity ≤ 0).
func NewSpans(capacity int) *Spans {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Spans{buf: make([]Span, 0, capacity)}
}

// Start opens a span: the ID is assigned immediately so children can link
// to it via Context before it ends. The span reaches the ring only when
// End is called. Returns nil on a nil collector (and every ActiveSpan
// method is nil-safe), so call sites need no guards.
func (s *Spans) Start(name, kind string, epoch int64, parent SpanContext) *ActiveSpan {
	if s == nil {
		return nil
	}
	return &ActiveSpan{c: s, sp: Span{
		ID:     SpanID(s.nextID.Add(1)),
		Parent: parent.ID,
		Name:   name,
		Kind:   kind,
		Epoch:  epoch,
		Start:  time.Now(),
	}}
}

// Record files an after-the-fact span measured around an already-finished
// call (the query paths use this: the span is only known complete when the
// algorithm returns). The ID is assigned here; sp.Start is kept if set,
// otherwise back-dated by sp.Dur. Returns the assigned ID (0 on a nil
// collector).
func (s *Spans) Record(sp Span) SpanID {
	if s == nil {
		return 0
	}
	sp.ID = SpanID(s.nextID.Add(1))
	if sp.Start.IsZero() {
		sp.Start = time.Now().Add(-sp.Dur)
	}
	s.file(sp)
	return sp.ID
}

func (s *Spans) file(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, sp)
		return
	}
	// Overwrite the oldest slot (the ring index is the filing count modulo
	// capacity): completion order is the ring order.
	s.buf[int((s.recorded-1)%uint64(cap(s.buf)))] = sp
}

// Recorded returns the total number of spans ever filed into the ring.
func (s *Spans) Recorded() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (s *Spans) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded - uint64(len(s.buf))
}

// Snapshot returns the retained spans in completion order, oldest first.
func (s *Spans) Snapshot() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Span, 0, len(s.buf))
	if len(s.buf) < cap(s.buf) {
		return append(out, s.buf...)
	}
	head := int(s.recorded % uint64(cap(s.buf)))
	out = append(out, s.buf[head:]...)
	return append(out, s.buf[:head]...)
}

// ActiveSpan is an in-flight span opened by Spans.Start. It is owned by
// the goroutine that started it (the single-writer ingest paths); End
// files it into the ring. All methods tolerate a nil receiver.
type ActiveSpan struct {
	c  *Spans
	sp Span
}

// Context returns the causal handle children parent-link against. Valid
// from the moment Start returns; the zero context on a nil receiver.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{ID: a.sp.ID, Epoch: a.sp.Epoch}
}

// Attr attaches one modeled work count; returns the receiver for chaining.
func (a *ActiveSpan) Attr(key string, val int64) *ActiveSpan {
	if a == nil {
		return nil
	}
	if a.sp.Attrs == nil {
		a.sp.Attrs = make(map[string]int64, 4)
	}
	a.sp.Attrs[key] = val
	return a
}

// SetEpoch re-pins the span to epoch — batch spans start before the
// updates apply and settle on the post-batch epoch at End.
func (a *ActiveSpan) SetEpoch(epoch int64) *ActiveSpan {
	if a == nil {
		return nil
	}
	a.sp.Epoch = epoch
	return a
}

// End stamps the duration and files the span. Calling End twice files the
// span twice; don't.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.sp.Dur = time.Since(a.sp.Start)
	a.c.file(a.sp)
}

// Chrome-trace export. The format is the Trace Event JSON the Perfetto UI
// and chrome://tracing load directly: "X" complete events carry the spans
// (ts/dur in microseconds), "M" metadata names the tracks, and "s"/"f"
// flow-event pairs draw the causal arrows for parent links whose parent is
// retained in the export set.

// spanTrack maps a span kind onto a stable pseudo-thread so the viewer
// groups the pipeline stages into readable lanes.
func spanTrack(kind string) (tid int, name string) {
	switch kind {
	case "ingest", "maintain":
		return 1, "ingest+maintain"
	case "publish":
		return 2, "publish"
	case "build":
		return 3, "view-build"
	default: // "query" and anything future
		return 4, "query"
	}
}

// chromeEvent is one Trace Event; field order here fixes the JSON key
// order, keeping the export byte-stable for golden tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromePid = 1

func usec(t time.Time) float64        { return float64(t.UnixNano()) / 1e3 }
func usecDur(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace renders the retained spans as Chrome Trace Event JSON
// ({"traceEvents": [...]}), loadable in Perfetto. Every span becomes a
// complete ("X") slice on its kind's track; a parent link whose parent
// span is also retained additionally becomes a flow arrow from parent to
// child. Safe on a nil receiver (renders an empty trace).
func (s *Spans) WriteChromeTrace(w io.Writer) error {
	spans := s.Snapshot()
	present := make(map[SpanID]*Span, len(spans))
	for i := range spans {
		present[spans[i].ID] = &spans[i]
	}

	events := make([]chromeEvent, 0, 2*len(spans)+8)
	tracks := make(map[int]string, 4)
	for _, sp := range spans {
		tid, tname := spanTrack(sp.Kind)
		tracks[tid] = tname
		dur := usecDur(sp.Dur)
		args := map[string]any{
			"span_id": uint64(sp.ID),
			"epoch":   sp.Epoch,
		}
		if sp.Parent != 0 {
			args["parent_id"] = uint64(sp.Parent)
		}
		if sp.Cause != "" {
			args["cause"] = sp.Cause
		}
		if sp.Sys != "" {
			args["sys"] = sp.Sys
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		for k, v := range sp.Labels {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Cat: sp.Kind, Ph: "X",
			Ts: usec(sp.Start), Dur: &dur,
			Pid: chromePid, Tid: tid, Args: args,
		})
		if parent, ok := present[sp.Parent]; ok && sp.Parent != sp.ID {
			// Flow arrow: the start point must lie inside the parent slice,
			// so clamp the child's start into the parent's extent.
			ptid, _ := spanTrack(parent.Kind)
			ts := usec(sp.Start)
			if lo := usec(parent.Start); ts < lo {
				ts = lo
			}
			if hi := usec(parent.Start) + usecDur(parent.Dur); ts > hi {
				ts = hi
			}
			id := fmt.Sprintf("%d", uint64(sp.ID))
			events = append(events, chromeEvent{
				Name: "causal", Cat: "causal", Ph: "s",
				Ts: ts, Pid: chromePid, Tid: ptid, ID: id,
			}, chromeEvent{
				Name: "causal", Cat: "causal", Ph: "f", BP: "e",
				Ts: usec(sp.Start), Pid: chromePid, Tid: tid, ID: id,
			})
		}
	}

	// Track-name metadata, emitted in tid order for determinism.
	tids := make([]int, 0, len(tracks))
	for tid := range tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	meta := make([]chromeEvent, 0, len(tids)+1)
	meta = append(meta, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
		Args: map[string]any{"name": "vebo"},
	})
	for _, tid := range tids {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"name": tracks[tid]},
		})
	}

	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Recorded        uint64        `json:"recordedSpans"`
		Dropped         uint64        `json:"droppedSpans"`
	}{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
		Recorded:        s.Recorded(),
		Dropped:         s.Dropped(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
