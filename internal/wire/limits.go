package wire

import "sync/atomic"

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
