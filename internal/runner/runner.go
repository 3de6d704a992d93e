// Package runner is the deterministic parallel execution engine behind
// every multi-run evaluation in this repository: policy comparisons
// (sim.Compare), the experiment sweeps and ablations, the multi-rack
// cluster simulation, and the ghbench command all fan their independent
// simulation runs through For (or Map, its slice-returning wrapper).
//
// The determinism contract: a simulation run is a pure function of its
// Config — every run owns its RNG (seeded from the config), its
// database, and its policy instances, and shares only immutable inputs
// (racks, specs, traces). For exploits that: it executes runs on a
// bounded worker pool and each run writes only its own index slot, so
// the output is bit-identical to a serial loop regardless of how the
// scheduler interleaves workers. Parallelism 1 degenerates to exactly
// the legacy serial loop (in order, on the calling goroutine, stopping
// at the first failure).
//
// Where a fan-out needs per-run noise streams that are independent but
// reproducible, DeriveSeed maps (parent seed, stable run key) to a
// child seed — never derive seeds from completion order.
package runner

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultParallelism resolves a Parallelism knob: values above 1 are
// taken as-is, 1 means serial, and 0 (or negative) means one worker per
// available CPU (runtime.GOMAXPROCS(0)).
func DefaultParallelism(p int) int {
	if p > 0 {
		return p
	}
	// Worker count never reaches results: tasks write by index, so output
	// is bit-identical at every parallelism level (see internal/sim/parallel_test.go).
	return runtime.GOMAXPROCS(0) //lint:ghlint ignore determinism pool sizing only, proven result-invariant
}

// PanicError is a panic recovered from a task, preserving the panic
// value and the stack of the panicking goroutine. For converts panics
// to errors in every mode (including serial) so that a panicking run
// yields the same outcome regardless of parallelism, and one bad run
// cannot tear down the whole pool.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %d panicked: %v", e.Index, e.Value)
}

// For runs fn(0) … fn(n-1) with at most parallelism concurrent calls.
// fn must depend only on its index (and state owned by that index);
// whatever it writes into per-index slots is then identical for every
// parallelism level.
//
// Workers claim contiguous chunks of indices in index order, so
// neighbouring indices run on the same worker and their slots stay in
// one core's cache. The chunk size follows from n and the worker count
// (about sixteen chunks per worker, so uneven per-index costs still
// balance); it is not a knob.
//
// Error semantics are deterministic: if any task fails, For returns the
// error of the lowest failing index — the same error a serial loop
// would have stopped at. A failure skips the rest of its chunk and every
// chunk above it, but every index below the lowest known failure still
// runs, so the reported error never depends on scheduling. Panics are
// captured as *PanicError carrying the panicking index. Parallelism 1
// runs serially, in order, on the calling goroutine, stopping at the
// first failure.
func For(parallelism, n int, fn func(i int) error) error {
	if n < 0 {
		return errNegative(n)
	}
	if n == 0 {
		return nil
	}
	p := DefaultParallelism(parallelism)
	if p > n {
		p = n
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			if err := call(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	chunk := (n + chunksPerWorker*p - 1) / (chunksPerWorker * p)
	var (
		next   atomic.Int64 // next chunk to claim
		minErr atomic.Int64 // lowest failing index; n = none
		mu     sync.Mutex   // serializes failures
		first  error        // the error at minErr, written under mu
		wg     sync.WaitGroup
	)
	minErr.Store(int64(n))
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(1)-1) * chunk
				if lo >= n || int64(lo) > minErr.Load() {
					// Chunks are claimed in index order: every chunk
					// left lies above the end or above a failure.
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				// A failure lowers minErr to at most i, which ends the
				// chunk.
				for i := lo; i < hi && int64(i) < minErr.Load(); i++ {
					if err := call(i, fn); err != nil {
						mu.Lock()
						if int64(i) < minErr.Load() {
							first = err
							minErr.Store(int64(i))
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	if minErr.Load() < int64(n) {
		return first
	}
	return nil
}

// chunksPerWorker sets For's chunk size, ⌈n / (chunksPerWorker·p)⌉:
// 32 indices for a 1000-rack fleet on two workers, 1 for the small
// sweeps.
const chunksPerWorker = 16

// Map runs fn over 0 … n-1 through For and returns the results in index
// order, with For's scheduling, error and panic semantics.
func Map[T any](parallelism, n int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, errNegative(n)
	}
	out := make([]T, n)
	err := For(parallelism, n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func errNegative(n int) error { return fmt.Errorf("runner: negative task count %d", n) }

// call invokes one task with panic capture.
func call(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// DeriveSeed deterministically derives a child RNG seed from a parent
// seed and a stable run key (a policy name, a sweep cell label, a rack
// index — anything that identifies the run independent of scheduling).
// The same (parent, key) pair always yields the same child; distinct
// keys decorrelate their noise streams. The key is hashed with FNV-1a
// and mixed with the parent through a SplitMix64 finalizer.
func DeriveSeed(parent int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := uint64(parent) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
