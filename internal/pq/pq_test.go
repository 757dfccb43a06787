package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPushPopOrdering(t *testing.T) {
	q := NewGainQueue(10)
	gains := []int64{3, -1, 7, 0, 5, 5, -9, 2, 2, 4}
	for v, g := range gains {
		q.Push(int32(v), g, uint32(v))
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	var got []int64
	for !q.Empty() {
		_, g := q.PopMax()
		got = append(got, g)
	}
	want := append([]int64(nil), gains...)
	sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestUpdateAndAdjust(t *testing.T) {
	q := NewGainQueue(4)
	q.Push(0, 1, 0)
	q.Push(1, 2, 0)
	q.Push(2, 3, 0)
	q.Update(0, 10)
	if v, g := q.Max(); v != 0 || g != 10 {
		t.Fatalf("Max = (%d,%d) after Update, want (0,10)", v, g)
	}
	q.AdjustBy(1, 20)
	if v, _ := q.Max(); v != 1 {
		t.Fatalf("Max = %d after AdjustBy, want 1", v)
	}
	q.AdjustBy(3, 5) // absent: must be a no-op
	if q.Contains(3) {
		t.Fatal("AdjustBy inserted an absent node")
	}
	if g := q.Gain(1); g != 22 {
		t.Fatalf("Gain(1) = %d, want 22", g)
	}
}

func TestRemove(t *testing.T) {
	q := NewGainQueue(5)
	for v := int32(0); v < 5; v++ {
		q.Push(v, int64(v), 0)
	}
	q.Remove(4)
	q.Remove(4) // double remove is a no-op
	q.Remove(2)
	if q.Len() != 3 {
		t.Fatalf("Len = %d after removes", q.Len())
	}
	if v, _ := q.PopMax(); v != 3 {
		t.Fatalf("Max after removing 4 is %d, want 3", v)
	}
	if q.Contains(2) || q.Contains(4) {
		t.Fatal("removed nodes still reported present")
	}
}

func TestClear(t *testing.T) {
	q := NewGainQueue(3)
	q.Push(0, 1, 0)
	q.Push(1, 2, 0)
	q.Reset(3)
	if !q.Empty() || q.Contains(0) || q.Contains(1) {
		t.Fatal("Reset did not empty the queue")
	}
	q.Push(0, 5, 0) // reusable after Reset
	if v, g := q.Max(); v != 0 || g != 5 {
		t.Fatal("queue unusable after Reset")
	}
}

func TestTiebreakOrdersEqualGains(t *testing.T) {
	q := NewGainQueue(3)
	q.Push(0, 7, 1)
	q.Push(1, 7, 9)
	q.Push(2, 7, 5)
	order := []int32{}
	for !q.Empty() {
		v, _ := q.PopMax()
		order = append(order, v)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("tiebreak order = %v, want [1 2 0]", order)
	}
}

func TestPushDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	q := NewGainQueue(2)
	q.Push(1, 0, 0)
	q.Push(1, 0, 0)
}

// TestHeapPropertyRandom drives the queue with random operations and
// cross-checks against a naive model.
func TestHeapPropertyRandom(t *testing.T) {
	master := rng.New(555)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		const n = 32
		q := NewGainQueue(n)
		model := map[int32]int64{}
		for step := 0; step < 300; step++ {
			op := r.Intn(4)
			v := int32(r.Intn(n))
			switch {
			case op == 0 && !q.Contains(v):
				g := int64(r.Intn(41) - 20)
				q.Push(v, g, uint32(r.Uint64()))
				model[v] = g
			case op == 1 && q.Contains(v):
				g := int64(r.Intn(41) - 20)
				q.Update(v, g)
				model[v] = g
			case op == 2:
				q.Remove(v)
				delete(model, v)
			case op == 3 && !q.Empty():
				v, g := q.PopMax()
				mg, ok := model[v]
				if !ok || mg != g {
					return false
				}
				// must be max of model
				for _, g2 := range model {
					if g2 > g {
						return false
					}
				}
				delete(model, v)
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rng.New(1)
	const n = 1 << 14
	for i := 0; i < b.N; i++ {
		q := NewGainQueue(n)
		for v := int32(0); v < n; v++ {
			q.Push(v, int64(r.Intn(100)), uint32(r.Uint64()))
		}
		for !q.Empty() {
			q.PopMax()
		}
	}
}

// BenchmarkGainQueueRun is one FM search's worth of queue traffic on a
// grown queue: about 500 entries with gains clustered on a few values
// staged and sealed, a few of them adjusted (leaving the run for the heap),
// and everything drained. Once the queue has grown it allocates nothing.
func BenchmarkGainQueueRun(b *testing.B) {
	const n = 512
	r := rng.New(26)
	gains, ties := make([]int64, n), make([]uint32, n)
	for v := range gains {
		gains[v] = int64(r.Intn(5)) - int64(r.Intn(5))
		ties[v] = uint32(r.Uint64())
	}
	var q GainQueue
	search := func() {
		q.Reset(n)
		for v := int32(0); v < n; v++ {
			q.Stage(v, gains[v], ties[v])
		}
		q.Seal()
		for v := int32(0); v < n; v += 16 {
			q.AdjustBy(v, 2)
		}
		for !q.Empty() {
			q.PopMax()
		}
	}
	search() // grow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}
