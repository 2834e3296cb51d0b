package flight

import "testing"

// fullSpan is an access with every decomposition term non-trivial:
// issued at 10, injected, two hops, a busy-bank wait, four slots of
// service, retired at 20. Total 10 = queue 3 + service 4 + network 3
// (inject + 2 hops).
func fullSpan() []Event {
	id := ComposeID(1, 10)
	return []Event{
		{ID: id, Slot: 10, Stage: StageIssue, Actor: 1},
		{ID: id, Slot: 10, Stage: StageNetInject, Actor: 1},
		{ID: id, Slot: 11, Stage: StageHop, Actor: 0},
		{ID: id, Slot: 12, Stage: StageHop, Actor: 1},
		{ID: id, Slot: 13, Stage: StageBankEnqueue, Actor: 3, Arg: 2},
		{ID: id, Slot: 16, Stage: StageBankService, Actor: 3, Arg: 4},
		{ID: id, Slot: 20, Stage: StageRetire, Actor: 1, Arg: 10},
	}
}

func TestDecompose(t *testing.T) {
	sp := Spans(fullSpan())
	if len(sp) != 1 {
		t.Fatalf("%d spans, want 1", len(sp))
	}
	bd := Decompose(sp[0])
	if !bd.Complete {
		t.Fatal("span not complete")
	}
	if bd.Issue != 10 || bd.Retire != 20 {
		t.Errorf("issue/retire %d/%d, want 10/20", bd.Issue, bd.Retire)
	}
	if bd.Total != 10 {
		t.Errorf("total %d, want 10", bd.Total)
	}
	if bd.Service != 4 {
		t.Errorf("service %d, want 4", bd.Service)
	}
	// inject is not a hop; network = 2 hops.
	if bd.Network != 2 {
		t.Errorf("network %d, want 2", bd.Network)
	}
	if bd.Queue != 10-4-2 {
		t.Errorf("queue %d, want %d", bd.Queue, 10-4-2)
	}
	if bd.Retries != 1 {
		t.Errorf("retries %d, want 1", bd.Retries)
	}
}

func TestDecomposeIncomplete(t *testing.T) {
	id := ComposeID(2, 5)
	// No retire: still in flight (or truncated by the ring).
	open := []Event{
		{ID: id, Slot: 5, Stage: StageIssue},
		{ID: id, Slot: 6, Stage: StageHop},
	}
	if bd := Decompose(Span{ID: id, Events: open}); bd.Complete {
		t.Error("unretired span reported complete")
	}
	// No opening stage: head lost to the ring.
	tail := []Event{
		{ID: id, Slot: 9, Stage: StageBankService, Arg: 4},
		{ID: id, Slot: 13, Stage: StageRetire},
	}
	if bd := Decompose(Span{ID: id, Events: tail}); bd.Complete {
		t.Error("headless span reported complete")
	}
}

func TestDecomposeQueueClamp(t *testing.T) {
	id := ComposeID(0, 0)
	// Service claims more slots than the span covers: queue clamps to 0
	// instead of going negative.
	evs := []Event{
		{ID: id, Slot: 0, Stage: StageIssue},
		{ID: id, Slot: 1, Stage: StageBankService, Arg: 99},
		{ID: id, Slot: 5, Stage: StageRetire},
	}
	bd := Decompose(Span{ID: id, Events: evs})
	if !bd.Complete || bd.Queue != 0 {
		t.Errorf("queue %d (complete=%v), want 0 (clamped)", bd.Queue, bd.Complete)
	}
}

func TestSpansPreserveFirstSeenOrder(t *testing.T) {
	evs := []Event{
		{ID: 30, Slot: 1, Stage: StageIssue},
		{ID: 10, Slot: 2, Stage: StageIssue},
		{ID: 30, Slot: 3, Stage: StageRetire},
		{ID: 20, Slot: 4, Stage: StageIssue},
		{ID: 10, Slot: 5, Stage: StageRetire},
	}
	sp := Spans(evs)
	wantOrder := []uint64{30, 10, 20}
	if len(sp) != len(wantOrder) {
		t.Fatalf("%d spans, want %d", len(sp), len(wantOrder))
	}
	for i, id := range wantOrder {
		if sp[i].ID != id {
			t.Errorf("span %d is %d, want %d (first-seen order)", i, sp[i].ID, id)
		}
	}
	if len(sp[0].Events) != 2 || len(sp[1].Events) != 2 || len(sp[2].Events) != 1 {
		t.Error("events misassigned to spans")
	}
}

func TestAttribute(t *testing.T) {
	// Three identical complete spans plus one incomplete straggler.
	var evs []Event
	for p := 0; p < 3; p++ {
		id := ComposeID(p, 10)
		evs = append(evs,
			Event{ID: id, Slot: 10, Stage: StageIssue, Actor: int32(p)},
			Event{ID: id, Slot: 12, Stage: StageBankService, Actor: 0, Arg: 4},
			Event{ID: id, Slot: 18, Stage: StageRetire, Actor: int32(p)},
		)
	}
	evs = append(evs, Event{ID: ComposeID(9, 17), Slot: 17, Stage: StageIssue, Actor: 9})
	at := Attribute(evs)
	if at.Spans != 3 {
		t.Fatalf("%d complete spans, want 3", at.Spans)
	}
	if at.Total.Mean != 8 || at.Total.P50 != 8 || at.Total.P99 != 8 {
		t.Errorf("total summary %+v, want all 8", at.Total)
	}
	if at.Service.Mean != 4 {
		t.Errorf("service mean %v, want 4", at.Service.Mean)
	}
	if at.Network.Mean != 0 {
		t.Errorf("network mean %v, want 0", at.Network.Mean)
	}
	if at.Queue.Mean != 4 {
		t.Errorf("queue mean %v, want 4", at.Queue.Mean)
	}
}

func TestAttributeEmpty(t *testing.T) {
	at := Attribute(nil)
	if at.Spans != 0 || at.Total.N != 0 || at.Total.Mean != 0 {
		t.Errorf("empty attribution non-zero: %+v", at)
	}
}
