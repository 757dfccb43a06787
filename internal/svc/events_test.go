package svc

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// parseSSE decodes a Server-Sent Events body into its events.
func parseSSE(t *testing.T, body string) []Event {
	t.Helper()
	var out []Event
	var cur Event
	var hasData bool
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if hasData {
				out = append(out, cur)
			}
			cur, hasData = Event{}, false
		case strings.HasPrefix(line, ":"):
			// comment (keepalive)
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.Seq = n
		case strings.HasPrefix(line, "event: "):
			cur.Type = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(line[6:])
			hasData = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return out
}

// stateOf decodes a state event's payload.
func stateOf(t *testing.T, ev Event) stateEvent {
	t.Helper()
	if ev.Type != "state" {
		t.Fatalf("event %d is %q, want state", ev.Seq, ev.Type)
	}
	var st stateEvent
	if err := json.Unmarshal(ev.Data, &st); err != nil {
		t.Fatalf("bad state payload %s: %v", ev.Data, err)
	}
	return st
}

// TestEventStreamReplaysRun submits a real job, lets it finish, and replays
// its whole event stream: the lifecycle states must bracket the run's typed
// trace events, sequence numbers must be dense from zero, and the stream
// must terminate (the handler returns) because the job is terminal.
func TestEventStreamReplaysRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline run")
	}
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 2})
	rr := submitJob(t, h, `{"gen":"grid:12x12","k":3,"seed":9}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body.String())
	}
	st := decodeStatus(t, rr)
	if st.Events == "" {
		t.Fatal("status names no events URL")
	}
	if got := waitTerminal(t, s, st.ID); got.State != StateDone {
		t.Fatalf("job: %s (%s)", got.State, got.Error)
	}

	stream := httptest.NewRecorder()
	h.ServeHTTP(stream, httptest.NewRequest("GET", st.Events, nil))
	if ct := stream.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	evs := parseSSE(t, stream.Body.String())
	if len(evs) < 4 {
		t.Fatalf("only %d events: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d, want dense from 0", i, ev.Seq)
		}
	}
	if st := stateOf(t, evs[0]); st.State != StateQueued {
		t.Fatalf("first event state %q, want queued", st.State)
	}
	if st := stateOf(t, evs[len(evs)-1]); st.State != StateDone {
		t.Fatalf("last event state %q, want done", st.State)
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Type]++
	}
	for _, want := range []string{"level", "init", "refine", "phase"} {
		if kinds[want] == 0 {
			t.Errorf("stream has no %q trace events (saw %v)", want, kinds)
		}
	}
	var ph obs.PhaseReport
	if err := json.Unmarshal(evs[len(evs)-2].Data, &ph); err != nil || ph.Phase != "total" {
		t.Errorf("second-to-last event should be the total phase, got %s %s", evs[len(evs)-2].Type, evs[len(evs)-2].Data)
	}
}

// TestEventStreamResumesFromLastEventID pins the reconnect contract: a
// client presenting Last-Event-ID must get exactly the events after it.
func TestEventStreamResumesFromLastEventID(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline run")
	}
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 2})
	rr := submitJob(t, h, `{"gen":"grid:8x8","k":2,"seed":3}`)
	st := decodeStatus(t, rr)
	waitTerminal(t, s, st.ID)

	full := httptest.NewRecorder()
	h.ServeHTTP(full, httptest.NewRequest("GET", st.Events, nil))
	all := parseSSE(t, full.Body.String())
	if len(all) < 3 {
		t.Fatalf("only %d events", len(all))
	}
	cursor := all[len(all)-3].Seq

	req := httptest.NewRequest("GET", st.Events, nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(cursor, 10))
	resumed := httptest.NewRecorder()
	h.ServeHTTP(resumed, req)
	tail := parseSSE(t, resumed.Body.String())
	if len(tail) != 2 {
		t.Fatalf("resume after %d replayed %d events, want 2", cursor, len(tail))
	}
	if tail[0].Seq != cursor+1 || tail[1].Seq != all[len(all)-1].Seq {
		t.Fatalf("resume replayed seqs %d,%d; want %d,%d", tail[0].Seq, tail[1].Seq, cursor+1, all[len(all)-1].Seq)
	}
}

// TestEventStreamLive connects while the job is still running (parked in the
// blockingRun stub) over a real HTTP server: the queued and running states
// must arrive before the job finishes, and releasing the job must push the
// terminal state and end the stream.
func TestEventStreamLive(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 2,
		run: blockingRun(started, release),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	rr := submitJob(t, h, tinySpec)
	st := decodeStatus(t, rr)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+st.Events, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the live prefix: queued then running, pushed before release.
	br := bufio.NewReader(resp.Body)
	readEvent := func() (typ, data string) {
		t.Helper()
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("stream ended early: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			if strings.HasPrefix(line, "event: ") {
				typ = line[7:]
			}
			if strings.HasPrefix(line, "data: ") {
				data = line[6:]
			}
			if line == "" && data != "" {
				return typ, data
			}
		}
	}
	if typ, data := readEvent(); typ != "state" || !strings.Contains(data, "queued") {
		t.Fatalf("first live event %s %s", typ, data)
	}
	if typ, data := readEvent(); typ != "state" || !strings.Contains(data, "running") {
		t.Fatalf("second live event %s %s", typ, data)
	}

	close(release)
	if typ, data := readEvent(); typ != "state" || !strings.Contains(data, "done") {
		t.Fatalf("terminal live event %s %s", typ, data)
	}
	// Terminal state seals the log; the server must now end the stream.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("stream still open after terminal state (err %v)", err)
	}
	waitTerminal(t, s, st.ID)
}

// TestEventPayloadsAreReportEntries pins the SSE stream to the run report:
// every level, init, refine, rebalance and phase payload of a real job is,
// byte for byte, json.Marshal of the matching entry of that job's non-zeroed
// report, in order. The second job (k=8 on two PEs) ends in a rebalance.
func TestEventPayloadsAreReportEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline run")
	}
	for spec, rebalances := range map[string]int{
		`{"gen":"rgg:9","k":4,"seed":5}`:          0,
		`{"gen":"rgg:11","k":8,"pes":2,"seed":4}`: 1,
	} {
		t.Run(spec, func(t *testing.T) { checkEventPayloads(t, spec, rebalances) })
	}
}

// checkEventPayloads runs one job of TestEventPayloadsAreReportEntries.
func checkEventPayloads(t *testing.T, spec string, rebalances int) {
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 2})
	st := waitTerminal(t, s, decodeStatus(t, submitJob(t, h, spec)).ID)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	body := httptest.NewRecorder()
	h.ServeHTTP(body, httptest.NewRequest("GET", st.Report, nil))
	var rep obs.Report
	if err := json.Unmarshal(body.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rebalance) != rebalances {
		t.Fatalf("report has %d rebalance entries, want %d", len(rep.Rebalance), rebalances)
	}
	want := map[string][]any{
		"level":     entries(rep.Levels),
		"init":      {rep.Init},
		"refine":    entries(rep.Refine),
		"rebalance": entries(rep.Rebalance),
		"phase":     entries(rep.Phases),
	}

	stream := httptest.NewRecorder()
	h.ServeHTTP(stream, httptest.NewRequest("GET", st.Events, nil))
	for _, ev := range parseSSE(t, stream.Body.String()) {
		if ev.Type == "state" {
			continue
		}
		left := want[ev.Type]
		if len(left) == 0 {
			t.Fatalf("event %d (%s %s) has no report entry left", ev.Seq, ev.Type, ev.Data)
		}
		entry, err := json.Marshal(left[0])
		if err != nil {
			t.Fatal(err)
		}
		if string(ev.Data) != string(entry) {
			t.Fatalf("event %d payload %s, report entry %s", ev.Seq, ev.Data, entry)
		}
		want[ev.Type] = left[1:]
	}
	for kind, left := range want {
		if len(left) > 0 {
			t.Errorf("%d %s report entries were never streamed", len(left), kind)
		}
	}
}

// entries boxes a report section for TestEventPayloadsAreReportEntries.
func entries[T any](section []T) []any {
	out := make([]any, len(section))
	for i, e := range section {
		out[i] = e
	}
	return out
}
