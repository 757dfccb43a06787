package mem

import (
	"sync"
	"testing"
)

func TestArenaReuse(t *testing.T) {
	a := NewArena()
	s1 := a.Int32(100)
	if len(s1) != 100 {
		t.Fatalf("len = %d, want 100", len(s1))
	}
	a.PutInt32(s1)
	s2 := a.Int32(50)
	if cap(s2) < 100 {
		t.Fatalf("expected the returned buffer to be reused, got cap %d", cap(s2))
	}
	st := a.Stats()
	if st.Borrows != 2 || st.Reused != 1 || st.Misses != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (2, 1, 1)", st.Borrows, st.Reused, st.Misses)
	}
}

func TestArenaStatsBytes(t *testing.T) {
	a := NewArena()
	s := a.Int32(100) // 400 fresh bytes
	st := a.Stats()
	if st.AllocatedBytes != 400 || st.LiveBytes != 400 || st.PooledBytes != 0 {
		t.Fatalf("after borrow: %+v", st)
	}
	a.PutInt32(s)
	st = a.Stats()
	if st.AllocatedBytes != 400 || st.LiveBytes != 0 || st.PooledBytes != 400 {
		t.Fatalf("after return: %+v", st)
	}
	s2 := a.Int32(50) // reuse: live counts the full backing capacity
	st = a.Stats()
	if st.AllocatedBytes != 400 || st.LiveBytes != 400 || st.PooledBytes != 0 {
		t.Fatalf("after reuse: %+v", st)
	}
	a.PutInt32(s2)
	// Adopted slices (returned without a borrow) must not drive the live
	// gauge negative.
	a.PutInt64(make([]int64, 8))
	if st := a.Stats(); st.LiveBytes != 0 {
		t.Fatalf("live bytes = %d after adoption, want 0", st.LiveBytes)
	}
}

func TestArenaBestFit(t *testing.T) {
	a := NewArena()
	small := a.Int64(10)
	big := a.Int64(1000)
	a.PutInt64(small)
	a.PutInt64(big)
	got := a.Int64(5)
	if cap(got) >= 1000 {
		t.Fatal("best fit should prefer the small buffer for a small request")
	}
}

func TestArenaBoolZeroed(t *testing.T) {
	a := NewArena()
	b := a.Bool(16)
	for i := range b {
		b[i] = true
	}
	a.PutBool(b)
	b2 := a.Bool(16)
	for i, v := range b2 {
		if v {
			t.Fatalf("Bool returned dirty cell at %d", i)
		}
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	if len(a.Int32(7)) != 7 || len(a.Float64(3)) != 3 || len(a.Bool(2)) != 2 ||
		len(a.Int64(1)) != 1 || len(a.Uint32(4)) != 4 || len(a.Bytes(5)) != 5 || len(a.Uint64(6)) != 6 {
		t.Fatal("nil arena must fall back to make")
	}
	a.PutInt32(nil) // must not panic
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Fatal("nil arena stats must be zero")
	}
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := a.Int32(64 + i)
				s[0] = int32(i) // touch to catch aliasing between borrowers
				u := a.Uint32(32)
				u[0] = uint32(i)
				a.PutUint32(u)
				a.PutInt32(s)
			}
		}()
	}
	wg.Wait()
}

func TestArenaBounded(t *testing.T) {
	a := NewArena()
	// Returning more than maxFree slices must not grow the free list
	// without bound.
	for i := 0; i < 10*maxFree; i++ {
		a.PutInt32(make([]int32, 8))
	}
	if len(a.i32) > maxFree {
		t.Fatalf("free list grew to %d, cap is %d", len(a.i32), maxFree)
	}
}
