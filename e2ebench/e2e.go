package main

import (
	"fmt"
	"runtime"
	"time"

	qdhj "repro"
	"repro/internal/exp"
)

// newJoin builds the workload's join through the public API, wired to sk.
func newJoin(w workload, ds *exp.Dataset, sk *sink) *qdhj.Join {
	opts := []qdhj.JoinOption{
		qdhj.WithResultCounts(sk.counts),
		qdhj.WithAdaptHook(func(ev qdhj.AdaptEvent) { sk.adapt(ev.OutT, ev.NewK) }),
	}
	if w.enumerate {
		opts = append(opts, qdhj.WithResults(sk.result))
	}
	if w.batch > 1 {
		opts = append(opts, qdhj.WithBatchSize(w.batch))
	}
	if w.shards > 1 {
		opts = append(opts, qdhj.WithShards(w.shards))
	}
	if w.supervised {
		opts = append(opts, qdhj.WithSupervision(qdhj.Supervision{}))
	}
	return qdhj.NewJoin(ds.Cond, ds.Windows, paperOptions(), opts...)
}

// pass is one timed pass of a feed.
type pass struct {
	tuples int
	wall   time.Duration
	allocs uint64 // heap objects allocated in the timed region
	bytes  uint64 // heap bytes allocated in the timed region
	out    outcome
	err    error // a panic or a non-nil Join.Err

	joinResults int64 // Join.Results() after Close

	// Supervision counters read from the Join after Close.
	checkpoints int
	ckptTime    time.Duration
	restarts    int
}

// timed runs body as the timed region of one repeat: a collection first so
// that garbage from earlier work is not charged to it, then wall time and
// heap allocation deltas around body. A panic in body is returned as an
// error.
func timed(body func()) (wall time.Duration, allocs, bytes uint64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		body()
	}()
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// runPublic feeds the dataset through a fresh qdhj.Join in a closed loop:
// one goroutine, the next Push starts when the previous one returns. The
// timed region runs from the first Push through Close. j is a join newJoin
// built on sk and not yet pushed to, or nil to build one.
func runPublic(w workload, ds *exp.Dataset, sk *sink, j *qdhj.Join) pass {
	if j == nil {
		j = newJoin(w, ds, sk)
	}
	sk.reset()
	r := pass{tuples: len(ds.Arrivals)}
	r.wall, r.allocs, r.bytes, r.err = timed(func() {
		for _, e := range ds.Arrivals {
			if e.TS > sk.clock {
				sk.clock = e.TS
			}
			j.Push(e)
		}
		j.Close()
	})
	if r.err == nil {
		if err := j.Err(); err != nil {
			r.err = fmt.Errorf("join: %w", err)
		}
	}
	if r.err != nil {
		return r
	}
	r.out = sk.outcome(j.AvgK())
	r.joinResults = j.Results()
	if w.supervised {
		r.checkpoints, r.ckptTime, r.restarts = j.Checkpoints(), j.CheckpointTime(), j.Restarts()
	}
	return r
}

// runOperatorOnly feeds the dataset through the NoSlack counting-only
// operator (no disorder handling, no feedback loop, no sinks) at the
// workload's batch size and returns its throughput in tuples/s.
func runOperatorOnly(w workload, ds *exp.Dataset) (float64, error) {
	var opts []qdhj.JoinOption
	if w.batch > 1 {
		opts = append(opts, qdhj.WithBatchSize(w.batch))
	}
	j := qdhj.NewJoin(ds.Cond, ds.Windows, qdhj.Options{Policy: qdhj.NoSlack}, opts...)
	wall, _, _, err := timed(func() {
		for _, e := range ds.Arrivals {
			j.Push(e)
		}
		j.Close()
	})
	if err != nil {
		return 0, err
	}
	return float64(len(ds.Arrivals)) / wall.Seconds(), nil
}
