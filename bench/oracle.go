package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"selnet/internal/serve"
	"selnet/internal/tensor"
)

// Tolerances of the correctness oracle. A static workload's answers are
// computed by the same code on the same weights as the reference, so
// they agree to rounding; monotonicity holds by construction of the
// piece-wise linear estimate, up to the rounding of one interpolation.
const (
	refRelTol  = 1e-9
	monoRelTol = 1e-9
)

// checkRange is the part of the contract that holds for any model: an
// estimate is a finite count between 0 and the data set's size.
func checkRange(est, card float64) error {
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return fmt.Errorf("estimate %v is not finite", est)
	}
	if est < 0 || est > card {
		return fmt.Errorf("estimate %v outside [0, %v]", est, card)
	}
	return nil
}

// checkMonotone is the paper's consistency: for one query vector,
// estimates must not decrease as the threshold grows. ts is ascending.
func checkMonotone(ts, ests []float64) error {
	for i := 1; i < len(ests); i++ {
		if ts[i] >= ts[i-1] && ests[i] < ests[i-1]-monoRelTol*math.Max(1, math.Abs(ests[i-1])) {
			return fmt.Errorf("not monotone in t: f(t=%v)=%v > f(t=%v)=%v", ts[i-1], ests[i-1], ts[i], ests[i])
		}
	}
	return nil
}

func checkReference(est, ref float64) error {
	if math.Abs(est-ref) > refRelTol*math.Max(1, math.Abs(ref)) {
		return fmt.Errorf("estimate %v differs from the in-process model's %v", est, ref)
	}
	return nil
}

// oracle checks every answer of a run and counts what it saw.
type oracle struct {
	// ref is the served model loaded in-process; nil when updates retrain
	// the served model, where only the model-independent checks apply.
	ref serve.Estimator
	// card is |D|: the mirror's size, or under updates the largest size
	// the mirror reaches.
	card float64
	// refs memoizes the reference answers of a request: streams cycle
	// over a fixed set of bodies and the reference model never changes.
	refs map[*request][]float64
	// ladders holds, per point_hot key, the last estimate seen at each
	// threshold slot (NaN before the first).
	ladders map[int]*[fxThresholds]float64

	attempted int
	failed    int
	firstErr  error
}

func newOracle(ref serve.Estimator, card float64) *oracle {
	return &oracle{ref: ref, card: card, refs: map[*request][]float64{}, ladders: map[int]*[fxThresholds]float64{}}
}

func (o *oracle) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// transportError counts a request that got no HTTP answer at all.
func (o *oracle) transportError(err error) {
	o.attempted++
	o.fail(err)
}

// check validates one answered estimate request and returns its
// estimates (nil when the answer is unusable). It counts one attempt.
func (o *oracle) check(req *request, status int, body []byte) []float64 {
	o.attempted++
	if status != http.StatusOK {
		o.fail(fmt.Errorf("status %d: %.200s", status, body))
		return nil
	}
	ests, err := parseEstimates(body, len(req.ts))
	if err != nil {
		o.fail(err)
		return nil
	}
	if err := o.checkEstimates(req, ests); err != nil {
		o.fail(err)
	}
	return ests
}

func (o *oracle) checkEstimates(req *request, ests []float64) error {
	var want []float64
	if o.ref != nil {
		want = o.reference(req)
	}
	for i, est := range ests {
		if err := checkRange(est, o.card); err != nil {
			return err
		}
		if want != nil {
			if err := checkReference(est, want[i]); err != nil {
				return err
			}
		}
	}
	for lo := 0; lo < len(ests); lo += req.perVector {
		hi := lo + req.perVector
		if err := checkMonotone(req.ts[lo:hi], ests[lo:hi]); err != nil {
			return err
		}
	}
	if req.key >= 0 {
		l := o.ladders[req.key]
		if l == nil {
			l = new([fxThresholds]float64)
			for i := range l {
				l[i] = math.NaN()
			}
			o.ladders[req.key] = l
		}
		l[req.slot] = ests[0]
		var ts, seen []float64
		for slot, v := range l {
			if !math.IsNaN(v) {
				ts = append(ts, float64(slot))
				seen = append(seen, v)
			}
		}
		return checkMonotone(ts, seen)
	}
	return nil
}

// reference evaluates req on the in-process model, through the batch
// entry point for batches as the daemon does.
func (o *oracle) reference(req *request) []float64 {
	if want, ok := o.refs[req]; ok {
		return want
	}
	var want []float64
	if len(req.ts) == 1 {
		want = []float64{o.ref.Estimate(req.xs[0], req.ts[0])}
	} else {
		x := tensor.New(len(req.xs), o.ref.Dim())
		for i, row := range req.xs {
			copy(x.Row(i), row)
		}
		want = o.ref.EstimateBatch(x, req.ts)
	}
	o.refs[req] = want
	return want
}

// parseEstimates decodes either estimate response shape into want
// values.
func parseEstimates(body []byte, want int) ([]float64, error) {
	var resp struct {
		Estimate  *float64  `json:"estimate"`
		Estimates []float64 `json:"estimates"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable answer %.200q: %w", body, err)
	}
	ests := resp.Estimates
	if resp.Estimate != nil {
		ests = []float64{*resp.Estimate}
	}
	if len(ests) != want {
		return nil, fmt.Errorf("answer carries %d estimates, want %d", len(ests), want)
	}
	return ests, nil
}
