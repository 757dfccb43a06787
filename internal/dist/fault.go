package dist

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection for the socket backend. A FaultSchedule is a deterministic
// list of rules — "on the Nth write of connection pe1, kill it" — consulted
// by a thin net.Conn wrapper that SocketTransport and SocketHub thread in
// front of every connection when a schedule is attached with SetFaults. An
// empty (or nil) schedule is the identity, mirroring Metered: zero cost, no
// wrapper, so production runs are untouched.
//
// Because the byte streams of the socket protocol are deterministic for a
// fixed seed, the sequence of Read/Write calls on every connection is too —
// an (op, nth) pair addresses the exact same protocol moment on every run.
// That is what makes chaos tests reproducible: the same schedule kills the
// same connection at the same superstep, in-process or across OS processes.

// FaultOp selects which conn operations a rule fires on.
type FaultOp int

const (
	// OpRead fires on Read calls.
	OpRead FaultOp = iota
	// OpWrite fires on Write calls.
	OpWrite
)

func (o FaultOp) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// FaultAction is what an armed rule does to the operation.
type FaultAction int

const (
	// ActKill closes the underlying connection before the operation, so the
	// operation (and every later one) fails — a crashed peer.
	ActKill FaultAction = iota
	// ActDelay sleeps the rule's Delay before the operation — a stalled
	// peer or congested link. The operation then proceeds normally.
	ActDelay
	// ActDrop (writes only) swallows the payload and reports success — a
	// lost frame; the reader on the other side stalls until its deadline.
	ActDrop
	// ActDup (writes only) writes the payload twice — a duplicated frame;
	// the reader desynchronizes and fails its next decode.
	ActDup
)

func (a FaultAction) String() string {
	switch a {
	case ActKill:
		return "kill"
	case ActDelay:
		return "delay"
	case ActDrop:
		return "drop"
	case ActDup:
		return "dup"
	}
	return fmt.Sprintf("dist.FaultAction(%d)", int(a))
}

// FaultRule arms one fault: on the Nth Op (1-based, counted per connection)
// of the first connection whose label matches Conn and reaches that count,
// perform Action. Every rule fires AT MOST ONCE per schedule: recovery
// replaces failed connections with fresh ones whose op counters restart at
// zero, and a rule that re-fired on the replacement would kill every retry
// forever. Want the same fault twice? Arm two rules. An empty Conn matches
// every connection. Labels are assigned at wrap time: the socket transport
// labels PE connections "pe<N>", the hub labels its side "hub<N>", and the
// remote worker labels its control connection "ctrl".
type FaultRule struct {
	Conn   string
	Op     FaultOp
	Nth    int
	Action FaultAction
	Delay  time.Duration // ActDelay only
}

func (r FaultRule) String() string {
	conn := r.Conn
	if conn == "" {
		conn = "*"
	}
	s := fmt.Sprintf("%s:%s:%d:%s", conn, r.Op, r.Nth, r.Action)
	if r.Action == ActDelay {
		s += ":" + r.Delay.String()
	}
	return s
}

// FaultSchedule is a fixed set of fault rules plus the injection counter.
// Safe for concurrent use by many wrapped connections. The zero value (and
// nil) is the empty schedule: Wrap returns connections unchanged.
type FaultSchedule struct {
	rules    []FaultRule
	fired    []atomic.Bool // one-shot latch per rule
	injected atomic.Int64
}

// ParseFaultSchedule parses a semicolon-separated rule list, one rule per
// "conn:op:nth:action[:delay]" clause — e.g. "ctrl:read:3:kill" or
// "pe0:write:2:delay:50ms;*:write:9:drop". conn is a connection label ("*"
// or empty for any), op is read|write, nth the 1-based operation index,
// action kill|delay|drop|dup (delay takes a trailing duration). An empty
// string parses to an empty schedule.
func ParseFaultSchedule(s string) (*FaultSchedule, error) {
	sched := &FaultSchedule{}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 4 {
			return nil, fmt.Errorf("dist: fault clause %q: want conn:op:nth:action[:delay]", clause)
		}
		var r FaultRule
		if parts[0] != "*" {
			r.Conn = parts[0]
		}
		switch parts[1] {
		case "read":
			r.Op = OpRead
		case "write":
			r.Op = OpWrite
		default:
			return nil, fmt.Errorf("dist: fault clause %q: unknown op %q", clause, parts[1])
		}
		if _, err := fmt.Sscanf(parts[2], "%d", &r.Nth); err != nil || r.Nth < 1 {
			return nil, fmt.Errorf("dist: fault clause %q: bad operation index %q", clause, parts[2])
		}
		switch parts[3] {
		case "kill":
			r.Action = ActKill
		case "delay":
			r.Action = ActDelay
			if len(parts) < 5 {
				return nil, fmt.Errorf("dist: fault clause %q: delay needs a duration", clause)
			}
			d, err := time.ParseDuration(parts[4])
			if err != nil {
				return nil, fmt.Errorf("dist: fault clause %q: %v", clause, err)
			}
			r.Delay = d
		case "drop":
			r.Action = ActDrop
		case "dup":
			r.Action = ActDup
		default:
			return nil, fmt.Errorf("dist: fault clause %q: unknown action %q", clause, parts[3])
		}
		sched.rules = append(sched.rules, r)
	}
	sched.fired = make([]atomic.Bool, len(sched.rules))
	return sched, nil
}

// Injected reports how many faults the schedule has fired so far — the
// assertion hook of chaos tests ("the kill actually happened").
func (s *FaultSchedule) Injected() int64 {
	if s == nil {
		return 0
	}
	return s.injected.Load()
}

// Empty reports whether the schedule has no rules (nil included).
func (s *FaultSchedule) Empty() bool { return s == nil || len(s.rules) == 0 }

// Wrap returns conn with the schedule's matching rules armed, counting ops
// per wrapped connection under the given label. The identity when the
// schedule is empty.
func (s *FaultSchedule) Wrap(label string, conn net.Conn) net.Conn {
	if s.Empty() {
		return conn
	}
	matched := false
	for _, r := range s.rules {
		if r.Conn == "" || r.Conn == label {
			matched = true
			break
		}
	}
	if !matched {
		return conn
	}
	return &faultConn{Conn: conn, sched: s, label: label}
}

// faultConn counts Read/Write calls and fires the schedule's rules.
type faultConn struct {
	net.Conn
	sched *FaultSchedule
	label string

	mu     sync.Mutex
	reads  int
	writes int
}

// apply advances the op counter and returns the armed rule, if any.
func (c *faultConn) apply(op FaultOp) *FaultRule {
	c.mu.Lock()
	var nth int
	if op == OpRead {
		c.reads++
		nth = c.reads
	} else {
		c.writes++
		nth = c.writes
	}
	c.mu.Unlock()
	for i := range c.sched.rules {
		r := &c.sched.rules[i]
		if r.Op == op && r.Nth == nth && (r.Conn == "" || r.Conn == c.label) &&
			c.sched.fired[i].CompareAndSwap(false, true) {
			c.sched.injected.Add(1)
			return r
		}
	}
	return nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	if r := c.apply(OpRead); r != nil {
		switch r.Action {
		case ActKill:
			c.Conn.Close()
			return 0, fmt.Errorf("dist: fault injected: %s killed before read %d", c.label, r.Nth)
		case ActDelay:
			time.Sleep(r.Delay)
		}
		// Drop and dup are write-side faults; on reads they degrade to the
		// operation itself (dropping a read would desynchronize the wrapper,
		// not the peer).
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if r := c.apply(OpWrite); r != nil {
		switch r.Action {
		case ActKill:
			c.Conn.Close()
			return 0, fmt.Errorf("dist: fault injected: %s killed before write %d", c.label, r.Nth)
		case ActDelay:
			time.Sleep(r.Delay)
		case ActDrop:
			return len(p), nil
		case ActDup:
			if n, err := c.Conn.Write(p); err != nil {
				return n, err
			}
		}
	}
	return c.Conn.Write(p)
}
