package remote

import "fmt"

// WorkerError is the typed failure of one worker connection: which worker
// (by id, which equals its initially assigned PE; -1 when the failure
// happened before any assignment) and in which protocol phase. The
// supervision loop in ServeWith treats worker errors as retryable — the
// worker is declared dead, its shards move, the level re-runs — and only
// surfaces one when recovery itself is exhausted, so a WorkerError escaping
// it means the system could not reach a healthy configuration.
type WorkerError struct {
	PE    int    // worker id (== first assigned PE); -1 before assignment
	Phase string // "handshake", "job", "result", "reassign", "done"
	Err   error
}

func (e *WorkerError) Error() string {
	if e.PE < 0 {
		return fmt.Sprintf("remote: worker failed during %s: %v", e.Phase, e.Err)
	}
	return fmt.Sprintf("remote: worker %d failed during %s: %v", e.PE, e.Phase, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// workerErr builds a WorkerError.
func workerErr(pe int, phase string, err error) *WorkerError {
	return &WorkerError{PE: pe, Phase: phase, Err: err}
}
