package plan

// This file is the worker-pool scheduler for multi-query serving. The
// paper's §4.2 cross-query computation reuse only pays off at the wall
// clock when queries actually run concurrently against the shared
// cache; RunAll is that serving loop, scheduling whole query nodes:
// planning (canary profiling included) and execution of each node
// happen inside one worker, so higher-order nodes (duration, temporal)
// recurse entirely within their worker while every basic component of
// every node shares one single-flighted cross-query cache. This is the
// multi-query entry point the Session facade exposes as ExecuteAll.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/video"
)

// RunAll plans and executes every query node over the video on a pool of
// `workers` goroutines. All nodes share one SharedCache (the planner's
// configured cache, or a fresh one for this call), so common detector
// and classifier work is computed once regardless of which worker needs
// it first. Each worker charges a forked virtual clock; forks are merged
// into the session clock before returning, keeping ledger totals
// worker-count independent.
//
// Results align positionally with nodes and are identical to running the
// nodes sequentially in order (hits, counts, track IDs — virtual-time
// attribution per query may shift, since the single-flight guard decides
// who pays shared model costs).
//
// workers <= 0 uses GOMAXPROCS; workers == 1 runs sequentially on the
// caller's goroutine.
func (pl *Planner) RunAll(nodes []core.QueryNode, v *video.Video, workers int) ([]*RunResult, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	opts := pl.opts
	if opts.Cache == nil {
		opts.Cache = exec.NewSharedCache()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(nodes) {
		workers = len(nodes)
	}

	results := make([]*RunResult, len(nodes))

	// Materialized-result reuse (§4.2) applies per node; only misses
	// are scheduled.
	var pending []int
	for i, node := range nodes {
		if opts.ResultCache != nil {
			if r, ok := opts.ResultCache.Get(Fingerprint(node, v)); ok {
				results[i] = r
				continue
			}
		}
		pending = append(pending, i)
	}

	runOne := func(inner *Planner, i int) error {
		r, err := inner.runNode(nodes[i], v)
		if err != nil {
			return fmt.Errorf("plan: query %s: %w", nodes[i].NodeName(), err)
		}
		if opts.ResultCache != nil {
			opts.ResultCache.Put(Fingerprint(nodes[i], v), r)
		}
		results[i] = r
		return nil
	}

	if workers == 1 || len(pending) <= 1 {
		inner := &Planner{opts: opts}
		for _, i := range pending {
			if err := runOne(inner, i); err != nil {
				return nil, err
			}
		}
		return results, nil
	}

	jobs := make(chan int)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wopts := opts
			wopts.Env = opts.Env.Fork()
			defer opts.Env.Clock.Merge(wopts.Env.Clock)
			inner := &Planner{opts: wopts}
			for i := range jobs {
				if failed.Load() {
					continue // drain remaining jobs after a failure
				}
				if err := runOne(inner, i); err != nil {
					errs[w] = err
					failed.Store(true)
				}
			}
		}(w)
	}
	for _, i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
