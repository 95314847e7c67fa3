package ingest

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"selnet/internal/estimator"
	"selnet/internal/lshsampling"
	"selnet/internal/selnet"
	"selnet/internal/vecdata"
)

// cloneFailNet is a retrain-mode estimator whose CloneEstimator fails
// while fail is set.
type cloneFailNet struct {
	*selnet.Net
	fail *atomic.Bool
}

func (n *cloneFailNet) CloneEstimator() (estimator.Estimator, error) {
	if n.fail.Load() {
		return nil, errors.New("clone failed")
	}
	return n.Net.CloneEstimator()
}

// bindFailLSH is a refresh-mode estimator whose clones' BindDB fails
// while fail is set.
type bindFailLSH struct {
	*lshsampling.Estimator
	fail *atomic.Bool
}

func (e *bindFailLSH) CloneEstimator() (estimator.Estimator, error) {
	return &bindFailLSH{e.Estimator.Clone(), e.fail}, nil
}

func (e *bindFailLSH) BindDB(db *vecdata.Database) error {
	if e.fail.Load() {
		return errors.New("bind failed")
	}
	return e.Estimator.BindDB(db)
}

// TestCycleFailureExits drives a cycle into each failure exit of the
// shadow step (a failed clone in retrain mode, a failed rebind in
// refresh mode): the batches still apply and count, the applied
// sequence advances, the serving model and its generation stay put, no
// outcome counter moves, and the next cycle with a working shadow
// publishes as usual.
func TestCycleFailureExits(t *testing.T) {
	db, train, valid := cosineData(61, 150, 4, 8)
	for _, tc := range []struct {
		mode  string
		build func(fail *atomic.Bool) estimator.Estimator
	}{
		{"retrain", func(fail *atomic.Bool) estimator.Estimator {
			return &cloneFailNet{tinyModel(62, db.Dim, 1), fail}
		}},
		{"refresh", func(fail *atomic.Bool) estimator.Estimator {
			lsh, err := lshsampling.Build(rand.New(rand.NewSource(63)), db, lshsampling.DefaultConfig())
			if err != nil {
				t.Fatalf("build lsh: %v", err)
			}
			return &bindFailLSH{lsh, fail}
		}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			var fail atomic.Bool
			fail.Store(true)
			est := tc.build(&fail)
			cycles := make(chan Cycle, 4)
			p, reg := newPipeline(t, Config{
				Update:  forceRetrain(),
				OnCycle: func(_ string, c Cycle) { cycles <- c },
			})
			if _, err := reg.Publish("m", est, "test"); err != nil {
				t.Fatal(err)
			}
			if err := p.Attach("m", est, db.Clone(), train, valid); err != nil {
				t.Fatal(err)
			}
			if st := p.UpdaterStats()["m"]; st.Mode != tc.mode {
				t.Fatalf("mode = %q, want %q", st.Mode, tc.mode)
			}
			gen0 := mustGet(t, reg, "m").Generation

			a, b := []float64{0.1, 0.2, 0.3, 0.4}, []float64{0.4, 0.3, 0.2, 0.1}
			ack, err := p.Enqueue("m", [][]float64{a, b}, [][]float64{a})
			if err != nil {
				t.Fatal(err)
			}
			c := <-cycles
			if c.Err == nil {
				t.Fatalf("cycle %+v: want an error", c)
			}
			if c.Batches != 1 || c.Inserted != 2 || c.Deleted != 1 || c.Swapped {
				t.Fatalf("failed cycle = %+v", c)
			}
			if !p.WaitApplied("m", ack.Seq) {
				t.Fatal("apply did not complete")
			}
			st := p.UpdaterStats()["m"]
			if st.AppliedSeq != ack.Seq || st.BatchesApplied != 1 || st.InsertedVecs != 2 || st.DeletedVecs != 1 {
				t.Fatalf("stats after failed cycle = %+v", st)
			}
			if st.Retrained != 0 || st.Skipped != 0 || st.Refreshed != 0 || st.SwapGeneration != 0 {
				t.Fatalf("failed cycle moved an outcome counter: %+v", st)
			}
			if m := mustGet(t, reg, "m"); m.Est != est || m.Generation != gen0 {
				t.Fatalf("failed cycle changed the serving model: gen %d -> %d", gen0, m.Generation)
			}

			fail.Store(false)
			ack, err = p.Enqueue("m", [][]float64{a}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c = <-cycles
			if c.Err != nil || !c.Swapped {
				t.Fatalf("working cycle = %+v", c)
			}
			if !p.WaitApplied("m", ack.Seq) {
				t.Fatal("apply did not complete")
			}
			m := mustGet(t, reg, "m")
			if m.Est == est || m.Generation != c.Generation || c.Generation <= gen0 {
				t.Fatalf("working cycle did not publish: gen %d -> %d (cycle %d)", gen0, m.Generation, c.Generation)
			}
			st = p.UpdaterStats()["m"]
			if st.BatchesApplied != 2 || st.InsertedVecs != 3 || st.Retrained+st.Refreshed != 1 || st.SwapGeneration != c.Generation {
				t.Fatalf("stats after working cycle = %+v", st)
			}
		})
	}
}
