package infer

import (
	"sync"
	"testing"

	"selnet/internal/tensor"
)

func TestProgramRunsInOrder(t *testing.T) {
	p := NewProgram()
	var got []string
	p.Add("a", func() { got = append(got, "a") })
	p.Add("b", func() { got = append(got, "b") })
	p.Add("c", func() { got = append(got, "c") })
	p.Run()
	p.Run()
	want := []string{"a", "b", "c", "a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("ran %d steps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %q, want %q", i, got[i], want[i])
		}
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
}

func newTestPool(maxBatch int, compiles *int) *Pool {
	return NewPool(maxBatch, func(batch int) *Plan {
		if compiles != nil {
			*compiles++
		}
		return NewPlan(batch, NewProgram(), nil, nil, nil, nil, nil)
	})
}

func TestPoolClassRounding(t *testing.T) {
	p := newTestPool(33, nil)
	if got := p.MaxBatch(); got != 64 {
		t.Fatalf("MaxBatch = %d, want 64 (33 rounded up)", got)
	}
	for _, tc := range []struct{ n, capacity int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {33, 64}, {64, 64},
	} {
		pl := p.Get(tc.n)
		if pl.Batch != tc.capacity {
			t.Fatalf("Get(%d) plan capacity %d, want %d", tc.n, pl.Batch, tc.capacity)
		}
		p.Put(pl)
	}
	// Rows counts the rows requested, not the capacity that served them.
	if st := p.Stats(); st.Rows != 1+2+3+4+5+33+64 {
		t.Fatalf("Rows = %d, want %d", st.Rows, 1+2+3+4+5+33+64)
	}
}

func TestPoolReusesResidentPlan(t *testing.T) {
	compiles := 0
	p := newTestPool(8, &compiles)
	pl := p.Get(4)
	p.Put(pl)
	for i := 0; i < 10; i++ {
		pl2 := p.Get(3) // same class as 4
		if pl2 != pl {
			t.Fatalf("checkout %d got a different plan", i)
		}
		p.Put(pl2)
	}
	if compiles != 1 {
		t.Fatalf("compiled %d times, want 1", compiles)
	}
	st := p.Stats()
	if st.Checkouts != 11 || st.Misses != 1 || st.Compiles != 1 {
		t.Fatalf("stats = %+v, want 11 checkouts, 1 miss, 1 compile", st)
	}
}

func TestPoolConcurrentCheckoutsGetDistinctPlans(t *testing.T) {
	p := newTestPool(8, nil)
	a := p.Get(8)
	b := p.Get(8)
	if a == b {
		t.Fatal("two concurrent checkouts shared one plan")
	}
	p.Put(a)
	p.Put(b)
}

func TestPoolDropReleasesAndRecompiles(t *testing.T) {
	compiles := 0
	p := NewPool(4, func(batch int) *Plan {
		compiles++
		buf := tensor.NewPooled(batch, 4)
		return NewPlan(batch, NewProgram(), buf, buf, nil, nil, []*tensor.Dense{buf})
	})
	pl := p.Get(4)
	p.Put(pl)
	p.Drop()
	pl2 := p.Get(4)
	if pl2 == pl {
		t.Fatal("Drop left the old plan resident")
	}
	p.Put(pl2)
	st := p.Stats()
	if st.Drops != 1 || st.Compiles != 2 {
		t.Fatalf("stats = %+v, want 1 drop, 2 compiles", st)
	}
}

func TestPoolGetOutOfRangePanics(t *testing.T) {
	p := newTestPool(8, nil)
	for _, n := range []int{0, -1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", n)
				}
			}()
			p.Get(n)
		}()
	}
}

func TestPoolStatsMerge(t *testing.T) {
	a := PoolStats{Checkouts: 1, Rows: 5, Misses: 2, Compiles: 3, Drops: 4}
	b := PoolStats{Checkouts: 10, Rows: 50, Misses: 20, Compiles: 30, Drops: 40}
	got := a.Merge(b)
	want := PoolStats{Checkouts: 11, Rows: 55, Misses: 22, Compiles: 33, Drops: 44}
	if got != want {
		t.Fatalf("Merge = %+v, want %+v", got, want)
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	p := newTestPool(16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pl := p.Get(1 + i%16)
				pl.Run()
				p.Put(pl)
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Checkouts != 8*200 {
		t.Fatalf("checkouts = %d, want %d", st.Checkouts, 8*200)
	}
}

// A checkout that straddles a Drop must not resurrect the retired
// generation: Put sees the stale epoch and releases the plan.
func TestPoolPutAfterDropReleases(t *testing.T) {
	p := NewPool(4, func(batch int) *Plan {
		buf := tensor.NewPooled(batch, 4)
		return NewPlan(batch, NewProgram(), buf, buf, nil, nil, []*tensor.Dense{buf})
	})
	pl := p.Get(4)
	p.Drop()
	p.Put(pl)
	if pl.bufs != nil {
		t.Fatal("stale plan was not released on Put")
	}
	pl2 := p.Get(4)
	if pl2 == pl {
		t.Fatal("dropped plan was resurrected from the pool")
	}
	if st := p.Stats(); st.Compiles != 2 {
		t.Fatalf("compiles = %d, want 2 (stale plan must not re-pool)", st.Compiles)
	}
	p.Put(pl2)
}
