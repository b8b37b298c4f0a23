package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps one shared, lazily-started worker pool for the
// sample-level fan-out: session window batches, DVS-set attacks and
// filters, PGD crafting and accuracy blocks. No kernel dispatches to
// it — every kernel is serial and pins its accumulation order, so
// results are bit-identical at any worker count, and the budget only
// decides how many blocks run at once. Work is handed out as blocks
// claimed from an atomic counter, so fast workers steal the blocks
// slow workers never reach, and cost imbalance between items
// self-balances.

var (
	// workerTarget is the configured worker budget; <= 0 means "use
	// runtime.GOMAXPROCS(0) at call time".
	workerTarget atomic.Int32

	poolOnce sync.Once
	poolJobs chan *poolJob
	poolCap  int // workers spawned by startPool, fixed at first use

	// jobFree recycles job headers, so a launch allocates nothing once
	// the list has grown to the most launches ever in flight at once.
	jobMu   sync.Mutex
	jobFree []*poolJob
)

// SetWorkers sets the fan-out budget: how many ParallelFor blocks run
// at once. n <= 0 restores the default (GOMAXPROCS). Results are the
// same at every value; only speed and memory change. Targets above the
// pool size (GOMAXPROCS at first parallel use) are clamped at dispatch
// — they cannot buy more CPU-bound parallelism. Safe to call
// concurrently.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerTarget.Store(int32(n))
}

// Workers reports the current fan-out budget (>= 1).
func Workers() int {
	if w := workerTarget.Load(); w > 0 {
		return int(w)
	}
	w := runtime.GOMAXPROCS(0) //axsnn:allow-alloc runtime query; allocates nothing
	if w < 1 {
		w = 1
	}
	return w
}

// poolJob is one ParallelFor launch: blocks of grain elements of [0, n)
// are claimed atomically from next until exhausted.
type poolJob struct {
	next   atomic.Int64
	blocks int
	n      int
	grain  int
	body   func(lo, hi int)
	wg     sync.WaitGroup
}

// drain claims and runs blocks until none remain.
func (j *poolJob) drain() {
	for {
		b := int(j.next.Add(1)) - 1
		if b >= j.blocks {
			return
		}
		lo := b * j.grain
		j.body(lo, min(lo+j.grain, j.n))
	}
}

// startPool launches the persistent workers. They idle on an unbuffered
// channel, so a job submission only ever reaches a worker that is ready
// to run it; busy workers are simply not enlisted.
func startPool() {
	poolJobs = make(chan *poolJob)
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	poolCap = n
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolJobs {
				j.drain()
				j.wg.Done()
			}
		}()
	}
}

// acquireJob pops a recycled job header, or makes the first ones.
func acquireJob() *poolJob {
	jobMu.Lock()
	defer jobMu.Unlock()
	if k := len(jobFree); k > 0 {
		j := jobFree[k-1]
		jobFree = jobFree[:k-1]
		return j
	}
	return new(poolJob) //axsnn:allow-alloc free list grows to the high-water mark of concurrent launches
}

// releaseJob parks a finished job header (after its wg.Wait) for reuse.
func releaseJob(j *poolJob) {
	j.body = nil // drop the caller's closure
	jobMu.Lock()
	defer jobMu.Unlock()
	jobFree = append(jobFree, j) //axsnn:allow-alloc free list grows to the high-water mark of concurrent launches
}

// ParallelFor splits [0, n) into blocks of ~grain elements and runs body
// over them with up to Workers() goroutines. It is the one fan-out
// primitive: higher layers (session window batches, per-stream event
// attacks, AQF set filtering, PGD crafting and accuracy blocks) schedule
// coarse-grained work on the same budget instead of spawning their own
// goroutines. Blocks are claimed atomically, so cost imbalance between
// items self-balances; body invocations may run concurrently and must
// only write disjoint state. The caller always participates, so the
// call never blocks on a saturated pool; nested calls degrade to serial
// instead of deadlocking. With one worker (or one block) body runs
// inline as body(0, n). A launch allocates nothing beyond what body
// itself captures: job headers come from a free list.
func ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	blocks := (n + grain - 1) / grain
	if w <= 1 || blocks <= 1 {
		body(0, n)
		return
	}
	poolOnce.Do(startPool)
	// The pool is sized once (GOMAXPROCS at first use); a larger
	// SetWorkers target cannot buy more CPU-bound parallelism, so clamp
	// the partitioning to what can actually run (helpers + caller).
	w = min(w, poolCap+1, blocks)
	job := acquireJob()
	job.next.Store(0)
	job.blocks, job.n, job.grain, job.body = blocks, n, grain, body
	// Enlist up to w-1 idle workers; the try-send only succeeds when a
	// worker is parked on the channel, so a busy pool (nested fan-out)
	// costs nothing and the caller just drains alone.
enlist:
	for i := 0; i < w-1; i++ {
		job.wg.Add(1)
		select {
		case poolJobs <- job:
		default:
			job.wg.Done()
			break enlist // no idle worker left
		}
	}
	job.drain()
	job.wg.Wait()
	releaseJob(job)
}
