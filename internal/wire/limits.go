package wire

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrLimit is the sentinel wrapped by every decode-budget rejection:
// errors.Is(err, wire.ErrLimit) distinguishes "the peer declared more than
// this process is willing to allocate" from truncation or corruption.
var ErrLimit = errors.New("wire: declared size exceeds decode budget")

// LimitError reports a length-prefixed quantity whose declared size exceeds
// the configured decode budget. Rejecting the declaration before allocating
// is the point: a hostile or corrupt peer can write a five-byte varint
// announcing a multi-gigabyte frame, and the decoder must answer with an
// error, not with an attempted allocation.
type LimitError struct {
	What     string // what was declared: "frame", ...
	Declared uint64 // the size the input announced
	Limit    uint64 // the budget in force
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("wire: declared %s size %d exceeds decode budget %d", e.What, e.Declared, e.Limit)
}

// Unwrap makes errors.Is(err, ErrLimit) hold for every LimitError.
func (e *LimitError) Unwrap() error { return ErrLimit }

// defaultMaxFrame is the control-frame payload budget in force until
// SetMaxFrame overrides it. One frame carries at most one subgraph shard or
// partition vector, so a gigabyte is far beyond any honest peer.
const defaultMaxFrame = 1 << 30

// maxFrameBytes is the configurable frame budget (atomic: decoders run on
// many goroutines; configuration is a startup-time act). Zero means "the
// default", so the package needs no init-time store.
var maxFrameBytes atomic.Uint64

// maxFrame returns the control-frame payload budget in force.
func maxFrame() uint64 {
	if n := maxFrameBytes.Load(); n != 0 {
		return n
	}
	return defaultMaxFrame
}

// SetMaxFrame sets the control-frame payload budget; 0 restores
// defaultMaxFrame. Call it at process startup (kappa serve/worker expose it
// as -max-frame), before any connection is served.
func SetMaxFrame(n uint64) { maxFrameBytes.Store(n) }
