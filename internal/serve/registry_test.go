package serve

import (
	"sync"
	"testing"
)

func TestRegistryPublishGetListRemove(t *testing.T) {
	r := NewRegistry(nil)
	if _, ok := r.Get("a"); ok {
		t.Fatal("empty registry returned a model")
	}
	if _, err := r.Publish("", newFakeEst(2), ""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.Publish("a", nil, ""); err == nil {
		t.Fatal("nil estimator accepted")
	}

	m1, err := r.Publish("a", newFakeEst(2), "a.gob")
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if m1.Generation != 1 || m1.Source != "a.gob" {
		t.Fatalf("entry = %+v", m1)
	}
	if _, err := r.Publish("b", newFakeEst(3), ""); err != nil {
		t.Fatalf("publish b: %v", err)
	}
	if l := r.List(); len(l) != 2 || l[0].Name != "a" || l[1].Name != "b" {
		t.Fatalf("list = %v", l)
	}

	// Hot-swap: same name, new estimator, generation bumps; the old
	// handle stays usable.
	m2, err := r.Publish("a", newFakeEst(2), "a2.gob")
	if err != nil {
		t.Fatalf("republish: %v", err)
	}
	if m2.Generation != 2 {
		t.Fatalf("generation = %d, want 2", m2.Generation)
	}
	got, _ := r.Get("a")
	if got != m2 {
		t.Fatal("Get did not observe the swap")
	}
	if m1.Est.Dim() != 2 {
		t.Fatal("old handle broken by swap")
	}

	if !r.Remove("a") || r.Remove("a") {
		t.Fatal("remove semantics wrong")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
}

// TestRegistryConcurrentSwapAndGet hammers lock-free reads against
// copy-on-write swaps; run with -race.
func TestRegistryConcurrentSwapAndGet(t *testing.T) {
	r := NewRegistry(func(est Estimator) *Batcher {
		return NewBatcher(est, BatcherConfig{})
	})
	if _, err := r.Publish("m", newFakeEst(2), ""); err != nil {
		t.Fatalf("publish: %v", err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, ok := r.Get("m")
				if !ok {
					t.Error("model vanished mid-swap")
					return
				}
				_ = m.Est.Estimate([]float64{1, 2}, 0.3)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := r.Publish("m", newFakeEst(2), ""); err != nil {
			t.Errorf("swap %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	m, _ := r.Get("m")
	if m.Generation != 201 {
		t.Fatalf("generation = %d, want 201", m.Generation)
	}
}

func TestRegistryPublishIf(t *testing.T) {
	r := NewRegistry(nil)
	var swaps int
	r.SetSwapHook(func(name string, old, next *Model) { swaps++ })

	// Absent name + nil expectation: installs.
	e1 := newFakeEst(2)
	m1, swapped, err := r.PublishIf("m", e1, "first", nil)
	if err != nil || !swapped || m1.Generation != 1 {
		t.Fatalf("initial PublishIf: %v %v %+v", swapped, err, m1)
	}
	// Absent expectation no longer holds: no-op, no side effects.
	if _, swapped, _ := r.PublishIf("m", newFakeEst(2), "x", nil); swapped {
		t.Fatal("stale nil expectation swapped")
	}
	// Matching expectation: swaps and bumps generation.
	e2 := newFakeEst(2)
	m2, swapped, err := r.PublishIf("m", e2, "second", e1)
	if err != nil || !swapped || m2.Generation != 2 {
		t.Fatalf("matching PublishIf: %v %v %+v", swapped, err, m2)
	}
	// Stale expectation (an operator swapped e3 in between): abandoned.
	e3 := newFakeEst(2)
	if _, err := r.Publish("m", e3, "manual"); err != nil {
		t.Fatal(err)
	}
	if _, swapped, _ := r.PublishIf("m", newFakeEst(2), "shadow", e2); swapped {
		t.Fatal("stale expectation clobbered the manual publish")
	}
	cur, _ := r.Get("m")
	if cur.Est != Estimator(e3) || cur.Generation != 3 {
		t.Fatalf("current entry %+v, want the manual publish at gen 3", cur)
	}
	if swaps != 3 {
		t.Fatalf("swap hook fired %d times, want 3 (no-ops must not fire it)", swaps)
	}
}
