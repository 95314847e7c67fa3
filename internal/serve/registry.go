// Package serve is the model-serving subsystem behind the selestd
// daemon: a registry of trained SelNet models with lock-free reads and
// copy-on-write hot-swap, a per-model Batcher that gates single-query
// estimates across hot-swaps, an LRU cache of recent estimates, and an
// HTTP server tying them together with graceful, drain-aware shutdown.
//
// The subsystem serves any estimator.Estimator; in practice that is
// *selnet.Net, whose inference methods are read-only and safe for
// concurrent use (see the concurrency note on Net.EstimateBatch).
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/estimator"
)

// Estimator and BatchIntoEstimator are the estimator package's types
// under the names the benchmark module (bench/) still uses; they go once
// it names package estimator (ROADMAP item 17).
type (
	Estimator          = estimator.Estimator
	BatchIntoEstimator = estimator.BatchInto
)

// Model is one registry entry: an estimator plus its serving apparatus
// (per-model Batcher) and metadata. Models are immutable once
// published; hot-swapping replaces the whole entry.
type Model struct {
	// Name is the registry key, chosen at load time (not the estimator's
	// architecture name).
	Name string
	// Est is the underlying estimator.
	Est estimator.Estimator
	// Source records where the model was loaded from (a file path).
	Source string
	// LoadedAt is the publication time.
	LoadedAt time.Time
	// Generation increments on every swap of this name, starting at 1.
	Generation uint64

	batcher *Batcher
}

// Batcher returns the model's single-estimate gate. It is nil only on
// models of a registry built without one; every model a Server serves,
// the router's ensemble included, has one.
func (m *Model) Batcher() *Batcher { return m.batcher }

// Registry maps model names to Models. Reads are lock-free: the live
// table is an immutable map behind an atomic pointer, and every mutation
// copies it (copy-on-write), so in-flight requests holding a *Model are
// never blocked — or affected — by a hot-swap. Writers serialize on a
// mutex.
type Registry struct {
	table atomic.Pointer[map[string]*Model]

	mu         sync.Mutex // serializes writers
	generation map[string]uint64
	newBatcher func(estimator.Estimator) *Batcher
	onSwap     func(name string, old, next *Model)
}

// NewRegistry returns an empty registry. newBatcher, if non-nil, is
// invoked for each published model to build its Batcher; the registry
// closes the old model's batcher after a swap.
func NewRegistry(newBatcher func(estimator.Estimator) *Batcher) *Registry {
	r := &Registry{
		generation: make(map[string]uint64),
		newBatcher: newBatcher,
	}
	empty := map[string]*Model{}
	r.table.Store(&empty)
	return r
}

// SetSwapHook registers fn to be called after every Publish or Remove
// with the displaced entry (nil on first publish) and its replacement
// (nil on Remove). Install it before the registry sees traffic; the hook
// runs on the writer's goroutine, outside the registry lock.
func (r *Registry) SetSwapHook(fn func(name string, old, next *Model)) { r.onSwap = fn }

// Get returns the model published under name, or false. The returned
// *Model and its estimator remain valid even if the name is swapped or
// removed concurrently. Its batcher, however, begins closing once the
// model is swapped out: admitted requests still finish, but a Submit
// racing the swap can return ErrBatcherClosed — callers should fall
// back to direct inference on the handle's estimator (the HTTP server
// does).
func (r *Registry) Get(name string) (*Model, bool) {
	m, ok := (*r.table.Load())[name]
	return m, ok
}

// List returns the published models sorted by name.
func (r *Registry) List() []*Model {
	t := *r.table.Load()
	out := make([]*Model, 0, len(t))
	for _, m := range t {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of published models.
func (r *Registry) Len() int { return len(*r.table.Load()) }

// Publish installs est under name, replacing any existing model with
// that name (hot-swap). The previous model's batcher, if any, is closed
// in the background after draining. It returns the new entry.
func (r *Registry) Publish(name string, est estimator.Estimator, source string) (*Model, error) {
	m, _, err := r.publish(name, est, source, false, nil)
	return m, err
}

// PublishIf installs est under name only while the currently published
// estimator is still expected (interface identity; expected nil means
// "name is absent"). It returns swapped=false, with no side effects,
// when something else was published in the meantime — the compare-and-
// swap the ingest pipeline uses so a shadow retrain that raced a manual
// model load never clobbers the operator's model.
func (r *Registry) PublishIf(name string, est estimator.Estimator, source string, expected estimator.Estimator) (*Model, bool, error) {
	return r.publish(name, est, source, true, expected)
}

func (r *Registry) publish(name string, est estimator.Estimator, source string, conditional bool, expected estimator.Estimator) (*Model, bool, error) {
	if name == "" {
		return nil, false, fmt.Errorf("serve: empty model name")
	}
	if est == nil {
		return nil, false, fmt.Errorf("serve: nil estimator for %q", name)
	}
	m := &Model{
		Name:     name,
		Est:      est,
		Source:   source,
		LoadedAt: time.Now(),
	}

	r.mu.Lock()
	if conditional {
		var curEst estimator.Estimator
		if cur := (*r.table.Load())[name]; cur != nil {
			curEst = cur.Est
		}
		if curEst != expected {
			r.mu.Unlock()
			return nil, false, nil
		}
	}
	if r.newBatcher != nil {
		// Built after the conditional check, so a failed publish builds
		// no Batcher. A Batcher starts no goroutine of its own.
		m.batcher = r.newBatcher(est)
	}
	r.generation[name]++
	m.Generation = r.generation[name]
	old := r.swapLocked(name, m)
	r.mu.Unlock()

	if old != nil {
		// Drain in-flight work, then release the displaced generation's
		// compiled plans; off the writer's goroutine so Publish never
		// waits on the old model's queue.
		go retireModel(old)
	}
	if r.onSwap != nil {
		r.onSwap(name, old, m)
	}
	return m, true, nil
}

// retireModel drains a displaced model's batcher and drops its compiled
// plans. Requests still holding the old *Model keep working — a dropped
// pool recompiles lazily — but the common case frees the old
// generation's buffers as soon as its in-flight estimates return.
func retireModel(old *Model) {
	if old.batcher != nil {
		old.batcher.Close()
	}
	if d, ok := old.Est.(estimator.PlanDropper); ok {
		d.DropPlans()
	}
}

// Remove unpublishes name, returning whether it was present. Like a
// swap, the removed model's batcher drains and closes in the background.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	old := r.swapLocked(name, nil)
	r.mu.Unlock()
	if old == nil {
		return false
	}
	go retireModel(old)
	if r.onSwap != nil {
		r.onSwap(name, old, nil)
	}
	return true
}

// swapLocked installs m under name (or deletes name when m is nil) by
// copying the live table, and returns the previous entry. Callers hold
// r.mu.
func (r *Registry) swapLocked(name string, m *Model) *Model {
	cur := *r.table.Load()
	next := make(map[string]*Model, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	old := next[name]
	if m == nil {
		delete(next, name)
	} else {
		next[name] = m
	}
	r.table.Store(&next)
	return old
}

// Close drains and closes every published model's batcher and empties
// the registry.
func (r *Registry) Close() {
	r.mu.Lock()
	cur := *r.table.Load()
	empty := map[string]*Model{}
	r.table.Store(&empty)
	r.mu.Unlock()
	for _, m := range cur {
		if m.batcher != nil {
			m.batcher.Close()
		}
		if d, ok := m.Est.(estimator.PlanDropper); ok {
			d.DropPlans()
		}
	}
}
