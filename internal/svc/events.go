package svc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// eventLogCap bounds the events retained per job. The log is a ring: when a
// run emits more than this, the oldest events are dropped and a reconnecting
// client resumes from the oldest retained one — live progress, not an
// archival trace (the run report is the archive).
const eventLogCap = 1024

// Event is one entry of a job's progress stream: a monotonically increasing
// sequence number (the SSE id, so Last-Event-ID resumes exactly), an event
// type, and a rendered JSON payload.
type Event struct {
	Seq  int64
	Type string
	Data []byte
}

// eventLog is a per-job bounded, seq-numbered broadcast log. Appends come
// from the job's lifecycle transitions and — during the run — from the
// pipeline's observer goroutine; readers are the SSE handlers, each polling
// since(after) and parking on the returned wake channel.
type eventLog struct {
	mu     sync.Mutex
	events []Event // ring contents in order; events[0].Seq is the oldest retained
	next   int64   // seq the next append gets
	closed bool
	wake   chan struct{} // closed and replaced on every append/close (broadcast)
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// append adds one typed event and wakes every parked reader.
func (l *eventLog) append(typ string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		// Payloads are our own structs; a marshal failure is a programming
		// error, but a progress stream must never take the job down with it.
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.events = append(l.events, Event{Seq: l.next, Type: typ, Data: data})
	l.next++
	if len(l.events) > eventLogCap {
		l.events = l.events[len(l.events)-eventLogCap:]
	}
	wake := l.wake
	l.wake = make(chan struct{})
	l.mu.Unlock()
	close(wake)
}

// close seals the log — the job is terminal, no further events — and wakes
// readers so they can drain and hang up.
func (l *eventLog) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	wake := l.wake
	l.mu.Unlock()
	close(wake)
}

// since returns the retained events with Seq > after, a channel that is
// closed on the next append, and whether the log is sealed. An after below
// the retention window resumes from the oldest retained event.
func (l *eventLog) since(after int64) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.events
	// Binary search is overkill for a 1024-cap ring scanned from a cursor
	// that usually sits at the tail.
	i := 0
	for i < len(evs) && evs[i].Seq <= after {
		i++
	}
	out := make([]Event, len(evs)-i)
	copy(out, evs[i:])
	return out, l.wake, l.closed
}

// payloadBytes sums the rendered payloads of the retained events.
func (l *eventLog) payloadBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, ev := range l.events {
		n += int64(len(ev.Data))
	}
	return n
}

// stateEvent is the payload of a lifecycle transition; the run's trace
// events carry their run report entries (obs.TraceRecord).
type stateEvent struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// trace appends one pipeline trace event to the stream as its report entry.
// It runs on the pipeline's critical path (via core.WithObserver), so it only
// marshals and appends — readers are woken, never waited for.
func (l *eventLog) trace(ev core.TraceEvent) { l.append(obs.TraceRecord(ev)) }

// state records a lifecycle transition on the stream.
func (l *eventLog) state(st State, errMsg string) {
	l.append("state", stateEvent{State: st, Error: errMsg})
}

// sseKeepalive is how often an idle stream sends a comment line so
// intermediaries do not reap the connection while a job sits queued.
const sseKeepalive = 15 * time.Second

// handleEvents is GET /api/v1/jobs/{id}/events: the job's progress as a
// Server-Sent Events stream. Every event carries its sequence number as the
// SSE id, so a client reconnecting with Last-Event-ID (or ?after=N) replays
// exactly the events it missed — within the log's retention window — and
// the stream ends when the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "response writer does not support streaming"})
		return
	}

	after := int64(-1)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad after cursor: " + err.Error()})
			return
		}
		after = n
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // SSE through buffering proxies
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		evs, wake, closed := j.events.since(after)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
			after = ev.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if closed {
			// Terminal state reached and fully replayed: end the stream so
			// clients (and tests) observe EOF rather than idling forever.
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
