package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wgtt/internal/sim"
)

func TestRecorderWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Log(Event{AtNS: At(3 * sim.Millisecond), Kind: KindDeliver, Node: "ap1", Bytes: 1400})
	r.Log(Event{AtNS: At(5 * sim.Millisecond), Kind: KindSwitch, FromAP: 0, ToAP: 1})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || r.N != 2 {
		t.Fatalf("lines=%d N=%d", len(lines), r.N)
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindDeliver || ev.AtNS != int64(3*sim.Millisecond) || ev.Bytes != 1400 {
		t.Errorf("round trip: %+v", ev)
	}
}

// readAll decodes the JSONL stream a Recorder wrote.
func readAll(t *testing.T, rd io.Reader) []Event {
	t.Helper()
	var out []Event
	for dec := json.NewDecoder(rd); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("event %d: %v", len(out)+1, err)
		}
		out = append(out, ev)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	want := []Event{
		{AtNS: At(3 * sim.Millisecond), Kind: KindDeliver, Node: "ap1",
			Client: "02:c1:00:00:00:01", Bytes: 1400, Seq: 17, Index: 42, FlowID: 1},
		{AtNS: At(4 * sim.Millisecond), Kind: KindFrameTx, Node: "ap1",
			RateMbps: 65, MPDUs: 12},
		{AtNS: At(5 * sim.Millisecond), Kind: KindSwitch, Node: "controller",
			FromAP: 2, ToAP: 3, DurNS: int64(18 * sim.Millisecond)},
		{AtNS: At(6 * sim.Millisecond), Kind: KindUplink, Node: "controller",
			Bytes: 1000, Seq: 9, FlowID: 2},
	}
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	for _, ev := range want {
		r.Log(ev)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, &buf)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 500
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Log(Event{Kind: KindDeliver, Node: "ap1", Bytes: w*perWriter + i})
			}
		}(w)
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.N != writers*perWriter {
		t.Fatalf("N = %d, want %d", r.N, writers*perWriter)
	}
	evs := readAll(t, &buf) // interleaved writes would corrupt the JSONL framing
	if len(evs) != writers*perWriter {
		t.Fatalf("read %d events, want %d", len(evs), writers*perWriter)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestRecorderErrorSticks(t *testing.T) {
	r := NewRecorder(failWriter{})
	for i := 0; i < 5000; i++ { // overflow the bufio buffer to force a write
		r.Log(Event{Kind: KindFrameTx, Node: "ap1", RateMbps: 65})
	}
	if r.Err == nil {
		t.Skip("buffer never flushed; acceptable")
	}
	n := r.N
	r.Log(Event{Kind: KindDeliver})
	if r.N != n {
		t.Error("logging continued after error")
	}
}
