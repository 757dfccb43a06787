package pq

import "testing"

func TestGainQueueReset(t *testing.T) {
	q := NewGainQueue(4)
	q.Push(0, 5, 1)
	q.Push(3, 9, 2)
	q.Reset(8) // grow across a reset with residual content
	if !q.Empty() {
		t.Fatal("queue must be empty after Reset")
	}
	for v := int32(0); v < 8; v++ {
		if q.Contains(v) {
			t.Fatalf("node %d present after Reset", v)
		}
	}
	q.Push(7, 1, 0)
	q.Push(2, 3, 0)
	if v, g := q.PopMax(); v != 2 || g != 3 {
		t.Fatalf("PopMax = (%d,%d), want (2,3)", v, g)
	}
	// Shrinking reset reuses storage.
	q.Reset(2)
	q.Push(1, 4, 0)
	if v, _ := q.PopMax(); v != 1 {
		t.Fatal("queue broken after shrinking Reset")
	}
}

// TestGainQueueZeroValueReset pins the form every refine.Workspace uses: a
// zero GainQueue is ready after its first Reset.
func TestGainQueueZeroValueReset(t *testing.T) {
	var q GainQueue
	q.Reset(5)
	if !q.Empty() || q.Contains(4) {
		t.Fatal("zero value must be empty after Reset")
	}
	q.Push(4, 2, 0)
	q.Push(0, 7, 0)
	q.Push(2, 7, 1)
	q.AdjustBy(4, 9)
	for _, want := range []int32{4, 2, 0} {
		if v, _ := q.PopMax(); v != want {
			t.Fatalf("PopMax = %d, want %d", v, want)
		}
	}
	if !q.Empty() {
		t.Fatal("queue must be empty after popping every node")
	}
}
