package mpi

import "testing"

// TestBufPoolSizeClasses pins the agreement between the two halves of the
// pool: PutBuf files a buffer by ⌊log₂ cap⌋, GetBuf serves a request from
// ⌈log₂ n⌉ and re-slices whatever it finds there to [:n]. The two must
// agree that everything filed under a class is large enough for everything
// served from it, or GetBuf panics on a recycled buffer.
func TestBufPoolSizeClasses(t *testing.T) {
	// Exactly the requests n in (2^(class-1), 2^class] draw on a class.
	for class := 0; 1<<class <= 4096; class++ {
		for n := 1<<class>>1 + 1; n <= 1<<class; n++ {
			if got, _ := getClass(n); got != class {
				t.Fatalf("request %d is served by class %d, want %d", n, got, class)
			}
		}
	}
	for c := 1; c <= 4100; c++ {
		// A capacity is filed where it covers the class's largest request.
		class, pooled := putClass(c)
		if !pooled {
			t.Fatalf("cap %d is not pooled", c)
		}
		if 1<<class > c || c >= 2<<class {
			t.Fatalf("cap %d filed under class %d, want 2^class ≤ cap < 2^(class+1)", c, class)
		}
		// And through the pool itself: whichever buffer of the class comes
		// back, it re-slices to that request.
		PutBuf(make([]float64, c))
		buf := GetBuf(1 << class)
		if len(buf) != 1<<class {
			t.Fatalf("cap %d: GetBuf(%d) returned length %d", c, 1<<class, len(buf))
		}
		PutBuf(buf)
	}
}

func TestBufPoolDropsUnpoolable(t *testing.T) {
	PutBuf(nil)
	PutBuf(make([]float64, 0))
	if GetBuf(0) != nil {
		t.Error("GetBuf(0) is not nil")
	}
	if _, pooled := putClass(1 << maxPoolClass); !pooled {
		t.Errorf("cap 1<<%d is the largest class and must be pooled", maxPoolClass)
	}
	if _, pooled := putClass(2 << maxPoolClass); pooled {
		t.Errorf("cap 2<<%d has no class and must be dropped", maxPoolClass)
	}
	if _, pooled := getClass(1<<maxPoolClass + 1); pooled {
		t.Errorf("request 1<<%d+1 must bypass the pool", maxPoolClass)
	}
	PutBuf(make([]float64, 0, 2<<maxPoolClass)) // no class to index: must not panic
	if n := 1<<maxPoolClass + 1; len(GetBuf(n)) != n {
		t.Errorf("GetBuf(%d) has the wrong length", n)
	}
}

// TestBufBoxClearedWhenTaken checks that GetBuf empties the box it takes a
// buffer from before shelving the box: a box resting in boxPool that still
// pointed at a payload would keep it alive (and reachable by two owners).
func TestBufBoxClearedWhenTaken(t *testing.T) {
	for i := 0; i < 100; i++ {
		PutBuf(make([]float64, 8))
		_ = GetBuf(8)
		box := boxPool.Get().(*bufBox)
		if box.b != nil {
			t.Fatalf("a box in boxPool still holds a buffer of capacity %d", cap(box.b))
		}
		boxPool.Put(box)
	}
}
