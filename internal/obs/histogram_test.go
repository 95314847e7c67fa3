package obs

import (
	"sync"
	"testing"
)

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// SearchFloat64s puts v == bound into the bucket it bounds.
	want := []uint64{2, 1, 1, 2} // (<=1)=0.5,1  (<=10)=5  (<=100)=50  (+Inf)=500,1000
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 || s.Sum != 1556.5 {
		t.Fatalf("count %d sum %v", s.Count, s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets()...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count %d, want 8000", s.Count)
	}
	if s.Sum < 7.999 || s.Sum > 8.001 {
		t.Fatalf("sum %v, want ~8", s.Sum)
	}
}

func TestHistogramPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(2, 1)
}
