package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaultParallelism(t *testing.T) {
	if got := DefaultParallelism(1); got != 1 {
		t.Errorf("DefaultParallelism(1) = %d", got)
	}
	if got := DefaultParallelism(7); got != 7 {
		t.Errorf("DefaultParallelism(7) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := DefaultParallelism(0); got != want {
		t.Errorf("DefaultParallelism(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := DefaultParallelism(-3); got != want {
		t.Errorf("DefaultParallelism(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, par := range []int{1, 2, 4, 8, 64} {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			out, err := Map(par, 100, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 100 {
				t.Fatalf("len = %d", len(out))
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestMapZeroAndNegativeN(t *testing.T) {
	out, err := Map(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("n=0: out=%v err=%v", out, err)
	}
	if _, err := Map(4, -1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n should error")
	}
}

// TestMapLowestIndexError pins the deterministic error contract: with
// several failing tasks, Map reports the lowest failing index — exactly
// the error a serial loop stops at — at every parallelism level.
func TestMapLowestIndexError(t *testing.T) {
	errA := errors.New("task 3 failed")
	errB := errors.New("task 60 failed")
	for _, par := range []int{1, 2, 8} {
		_, err := Map(par, 100, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 60:
				return 0, errB
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Errorf("parallelism %d: err = %v, want lowest-index error %v", par, err, errA)
		}
	}
}

func TestMapPanicRecovered(t *testing.T) {
	for _, par := range []int{1, 4} {
		_, err := Map(par, 10, func(i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want *PanicError", par, err)
		}
		if pe.Index != 5 || pe.Value != "boom" {
			t.Errorf("parallelism %d: PanicError = %+v", par, pe)
		}
		if !strings.Contains(pe.Error(), "task 5 panicked: boom") {
			t.Errorf("Error() = %q", pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Error("panic stack not captured")
		}
	}
}

// TestMapPanicBeatsLaterError: a panic at a lower index wins over an
// ordinary error at a higher index.
func TestMapPanicBeatsLaterError(t *testing.T) {
	_, err := Map(4, 20, func(i int) (int, error) {
		if i == 2 {
			panic(i)
		}
		if i == 10 {
			return 0, errors.New("later")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("err = %v, want panic at index 2", err)
	}
}

// TestMapBoundedConcurrency verifies the pool never runs more tasks at
// once than the requested parallelism.
func TestMapBoundedConcurrency(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	_, err := Map(par, 50, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		// Let the first few tasks pile up before anyone finishes.
		once.Do(func() { close(gate) })
		<-gate
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > par {
		t.Errorf("peak concurrency %d exceeds parallelism %d", p, par)
	}
}

// TestMapStress is the -race-targeted pool hammer: many batches of tiny
// tasks, with error-returning and panicking runs mixed in, checking
// error propagation, panic recovery, and that every worker exits (no
// goroutine leak across batches).
func TestMapStress(t *testing.T) {
	before := runtime.NumGoroutine()
	var completed atomic.Int64
	for round := 0; round < 50; round++ {
		round := round
		n := 1 + round%97
		failAt := -1
		if round%3 == 1 {
			failAt = round % n
		}
		panicAt := -1
		if round%5 == 2 {
			panicAt = (round * 7) % n
		}
		out, err := Map(1+round%9, n, func(i int) (int, error) {
			completed.Add(1)
			switch i {
			case failAt:
				return 0, fmt.Errorf("round %d task %d", round, i)
			case panicAt:
				panic(i)
			}
			return i + round, nil
		})
		wantFail := failAt
		if panicAt >= 0 && (wantFail < 0 || panicAt < wantFail) {
			wantFail = panicAt
		}
		switch {
		case wantFail >= 0 && err == nil:
			t.Fatalf("round %d: expected failure at %d, got none", round, wantFail)
		case wantFail < 0 && err != nil:
			t.Fatalf("round %d: unexpected error %v", round, err)
		case wantFail < 0:
			for i, v := range out {
				if v != i+round {
					t.Fatalf("round %d: out[%d] = %d", round, i, v)
				}
			}
		case wantFail == failAt:
			if want := fmt.Sprintf("round %d task %d", round, failAt); err.Error() != want {
				t.Fatalf("round %d: err = %q, want %q", round, err, want)
			}
		default:
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Index != panicAt {
				t.Fatalf("round %d: err = %v, want panic at %d", round, err, panicAt)
			}
		}
	}
	if completed.Load() == 0 {
		t.Fatal("no tasks ran")
	}
	// Clean shutdown: the pool retains no goroutines between batches.
	runtime.GC()
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d — pool leak", before, after)
	}
}

// TestMapConcurrentBatches runs pools from many goroutines at once (the
// nested fan-out shape the experiment runners use: cells × policies).
func TestMapConcurrentBatches(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := Map(4, 40, func(i int) (int, error) {
				inner, err := Map(2, 5, func(j int) (int, error) { return i + j, nil })
				if err != nil {
					return 0, err
				}
				sum := 0
				for _, v := range inner {
					sum += v
				}
				return sum + g, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range out {
				if want := 5*i + 10 + g; v != want {
					t.Errorf("g=%d out[%d] = %d, want %d", g, i, v, want)
				}
			}
		}()
	}
	wg.Wait()
}

// chunkOf is For's chunk size for n tasks on p workers.
func chunkOf(p, n int) int {
	if p > n {
		p = n
	}
	return (n + chunksPerWorker*p - 1) / (chunksPerWorker * p)
}

// TestForRunsEachIndexOnce covers the sizes where chunking has edges:
// empty, a single task, fewer tasks than workers, one chunk's worth and
// its neighbours, and a fleet-sized batch.
func TestForRunsEachIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		c := chunkOf(p, 1000)
		for _, n := range []int{0, 1, p - 1, p, c - 1, c, c + 1, chunksPerWorker*p - 1, chunksPerWorker*p + 1, 1000} {
			runs := make([]atomic.Int32, n)
			if err := For(p, n, func(i int) error { runs[i].Add(1); return nil }); err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("p=%d n=%d: index %d ran %d times", p, n, i, got)
				}
			}
		}
	}
	if err := For(2, -1, func(int) error { return nil }); err == nil {
		t.Error("negative n should error")
	}
}

// TestForLowestChunkErrorWins: failures scattered over several chunks
// always report the lowest failing index, however the chunks race.
func TestForLowestChunkErrorWins(t *testing.T) {
	const n = 1000
	for _, p := range []int{1, 2, 4} {
		c := chunkOf(p, n)
		fail := map[int]bool{7*c + 3: true, 2*c + c/2: true, 20 * c: true, n - 1: true}
		for round := 0; round < 20; round++ {
			err := For(p, n, func(i int) error {
				if fail[i] {
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
			if want := fmt.Sprintf("task %d", 2*c+c/2); err == nil || err.Error() != want {
				t.Fatalf("p=%d round %d: err = %v, want %s", p, round, err, want)
			}
		}
	}
}

// TestForLateHigherFailureLoses: a higher index that fails after a
// lower failure is recorded must not replace it. Task 0 fails once task
// 2 (the other worker's chunk) is running; task 2 fails after that.
func TestForLateHigherFailureLoses(t *testing.T) {
	highStarted, lowDone := make(chan struct{}), make(chan struct{})
	err := For(2, 64, func(i int) error { // chunks of 2: tasks 0 and 2 on different workers
		switch i {
		case 0:
			<-highStarted
			close(lowDone)
			return errors.New("low")
		case 2:
			close(highStarted)
			<-lowDone
			// Give task 0's worker time to record its failure first; a
			// shorter wait can only make this test miss a bug, never
			// fail on correct code.
			time.Sleep(20 * time.Millisecond)
			return errors.New("high")
		}
		return nil
	})
	if err == nil || err.Error() != "low" {
		t.Fatalf("err = %v, want low", err)
	}
}

// TestForFailureMidChunk: an error or a panic in the middle of a chunk
// skips the rest of that chunk, yet every lower index still runs
// exactly once, and a panic reports its own index.
func TestForFailureMidChunk(t *testing.T) {
	const n = 1000
	for _, p := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		c := chunkOf(p, n)
		if c < 3 {
			continue
		}
		at := 5*c + c/2 // mid-chunk
		for _, panics := range []bool{false, true} {
			runs := make([]atomic.Int32, n)
			err := For(p, n, func(i int) error {
				runs[i].Add(1)
				if i == at {
					if panics {
						panic("mid-chunk")
					}
					return errors.New("mid-chunk")
				}
				return nil
			})
			var pe *PanicError
			if panics && (!errors.As(err, &pe) || pe.Index != at) {
				t.Fatalf("p=%d: err = %v, want a panic at %d", p, err, at)
			}
			if !panics && (err == nil || err.Error() != "mid-chunk") {
				t.Fatalf("p=%d: err = %v", p, err)
			}
			for i := 0; i <= at; i++ {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("p=%d panics=%v: index %d below the failure ran %d times", p, panics, i, got)
				}
			}
			for i := at + 1; i < (at/c+1)*c; i++ {
				if got := runs[i].Load(); got != 0 {
					t.Fatalf("p=%d panics=%v: index %d after the failure in its chunk ran", p, panics, i)
				}
			}
		}
	}
}

// TestForMatchesSerial: For's slots and Map's results are identical at
// parallelism 1, 2, 4 and one worker per CPU.
func TestForMatchesSerial(t *testing.T) {
	const n = 1000
	f := func(i int) uint64 { return uint64(DeriveSeed(int64(i), "for")) }
	var want []uint64
	for _, p := range []int{1, 2, 4, 0} {
		slots := make([]uint64, n)
		if err := For(p, n, func(i int) error { slots[i] = f(i); return nil }); err != nil {
			t.Fatal(err)
		}
		mapped, err := Map(p, n, func(i int) (uint64, error) { return f(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = slots
		}
		for i := range want {
			if slots[i] != want[i] || mapped[i] != want[i] {
				t.Fatalf("p=%d: index %d: For %d Map %d, want %d", p, i, slots[i], mapped[i], want[i])
			}
		}
	}
}
