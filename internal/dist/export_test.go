package dist

import "sync/atomic"

// NewFaultSchedule returns a schedule armed with the given rules, for the
// external tests that arm faults without parsing a schedule string.
func NewFaultSchedule(rules ...FaultRule) *FaultSchedule {
	return &FaultSchedule{rules: rules, fired: make([]atomic.Bool, len(rules))}
}

// Rules returns the schedule's rules, in firing-priority order.
func (s *FaultSchedule) Rules() []FaultRule { return s.rules }
