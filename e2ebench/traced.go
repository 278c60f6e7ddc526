package main

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/profiler"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// layer identifies one traced layer of the pipeline.
type layer int

const (
	lStats    layer = iota // Statistics Manager observe (and the async feeder barrier)
	lKslack                // K-slack push, SetK, flush
	lSyncer                // Synchronizer push and close
	lJoin                  // MSWJ operator: expire, probe, insert, materialize
	lProfiler              // Tuple-Productivity Profiler records
	lMonitor               // Result-Size Monitor observe
	lFeedback              // boundary decision bookkeeping around the policy
	lAdapt                 // the Model policy's Decide (Alg. 3 search)
	lEmit                  // the application's result sinks
	lShard                 // shard router hand-off and interval flush
	lFault                 // supervision checkpoints
	nLayers
)

var layerNames = [nLayers]string{
	"stats", "kslack", "syncer", "join", "profiler", "monitor",
	"feedback", "adapt", "emit", "shard", "fault",
}

// tracer accumulates the self time of nested spans: a span's duration minus
// the part covered by its timed children. Spans nest strictly (every layer
// call returns before its caller does), so a stack suffices.
type tracer struct {
	base  time.Time
	self  [nLayers]time.Duration
	stack []frame
}

type frame struct {
	l     layer
	start time.Duration
	child time.Duration
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), stack: make([]frame, 0, 16)}
}

func (t *tracer) enter(l layer) {
	t.stack = append(t.stack, frame{l: l, start: time.Since(t.base)})
}

// exit closes the innermost span and returns its full duration.
func (t *tracer) exit() time.Duration {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(t.base) - f.start
	t.self[f.l] += d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	return d
}

// timedPolicy times the policy's Decide as the adapt layer.
type timedPolicy struct {
	adapt.Policy
	tr     *tracer
	decide []time.Duration
}

func (p *timedPolicy) Decide(now stream.Time, snap *profiler.Snapshot) stream.Time {
	p.tr.enter(lAdapt)
	k := p.Policy.Decide(now, snap)
	p.decide = append(p.decide, p.tr.exit())
	return k
}

// timedRuntime wraps the in-process shard runtime behind the core.Runtime
// seam and times every call into it as the shard layer.
type timedRuntime struct {
	*shard.Runtime
	tr    *tracer
	flush []time.Duration // FlushInterval durations, barrier wait included
}

var _ core.Runtime = (*timedRuntime)(nil)

func (r *timedRuntime) Route(e *stream.Tuple) {
	r.tr.enter(lShard)
	r.Runtime.Route(e)
	r.tr.exit()
}

func (r *timedRuntime) FlushInterval(visit func(ts, delay stream.Time, nCross, nOn int64), emit func(stream.Result)) {
	r.tr.enter(lShard)
	r.Runtime.FlushInterval(visit, emit)
	r.flush = append(r.flush, r.tr.exit())
}

func (r *timedRuntime) Close() {
	r.tr.enter(lShard)
	r.Runtime.Close()
	r.tr.exit()
}

// harness is the pipeline of core.Pipeline rebuilt from the layer packages'
// public functions, with a span around every call into a layer. It follows
// core.Pipeline call for call — single-threaded or sharded, per-tuple or
// batched — and, for supervised workloads, takes the supervised runtime's
// boundary checkpoints, so its results and K trajectory equal the public
// API's on the same feed.
type harness struct {
	tr   *tracer
	sink *sink

	loop   *feedback.Loop
	policy *timedPolicy
	model  *adapt.Model
	ks     []*kslack.Buffer
	sync   *syncer.Synchronizer
	op     *join.Operator // single-threaded path
	rt     *timedRuntime  // sharded path

	batch    []*stream.Tuple
	batchCap int

	// Supervision: the arrival log since the last checkpoint and the
	// checkpoint cadence (one per measurement period, the default).
	supervised bool
	log        []*stream.Tuple
	ckptEvery  int
	sinceCkpt  int
	ckpts      int

	// Counters sampled at every adaptation boundary.
	boundaries  int64
	kslackBuf   int64
	syncBuf     int64
	windowTotal int64
	// Counters of the probe input.
	syncIn     int64
	inOrder    int64
	outOfOrder int64
}

func newHarness(w workload, ds *exp.Dataset, sk *sink, tr *tracer) *harness {
	cfg := paperConfig()
	m := len(ds.Windows)
	sharded := w.shards > 1
	h := &harness{tr: tr, sink: sk, supervised: w.supervised}
	h.loop = feedback.New(feedback.Config{
		Windows: ds.Windows,
		Adapt:   cfg,
		Policy: func(env feedback.Env) adapt.Policy {
			// The classic pipeline builds its model on the raw Statistics
			// Manager (core.FeedbackPolicy); so does the harness.
			h.model = adapt.NewModel(env.Adapt, env.Windows, env.Stats, env.Monitor)
			h.policy = &timedPolicy{Policy: h.model, tr: tr}
			return h.policy
		},
		Async: sharded,
	})
	if sharded {
		h.rt = &timedRuntime{tr: tr, Runtime: shard.New(shard.Config{
			N:       w.shards,
			Cond:    ds.Cond,
			Windows: ds.Windows,
			OnOutOfOrder: func(delay stream.Time) {
				h.outOfOrder++
				tr.enter(lProfiler)
				h.loop.RecordOutOfOrder(0, delay)
				tr.exit()
			},
		})}
		h.sync = syncer.New(m, func(e *stream.Tuple) {
			h.syncIn++
			h.rt.Route(e)
		})
	} else {
		opts := []join.Option{
			join.WithProcessedHook(h.processed),
			join.WithCountEmit(h.count),
		}
		if w.enumerate {
			opts = append(opts, join.WithEmit(func(r stream.Result) {
				tr.enter(lEmit)
				sk.result(r)
				tr.exit()
			}))
		}
		h.op = join.New(ds.Cond, ds.Windows, opts...)
		release := h.probe
		if w.batch > 1 {
			h.batchCap = w.batch
			h.batch = make([]*stream.Tuple, 0, w.batch)
			release = h.bufferRelease
		}
		h.sync = syncer.New(m, func(e *stream.Tuple) {
			h.syncIn++
			release(e)
		})
	}
	h.ks = make([]*kslack.Buffer, m)
	for i := range h.ks {
		h.ks[i] = kslack.New(0, h.syncPush)
	}
	if w.supervised {
		h.ckptEvery = max(1, int(cfg.P/cfg.L))
	}
	return h
}

func (h *harness) syncPush(e *stream.Tuple) {
	h.tr.enter(lSyncer)
	h.sync.Push(e)
	h.tr.exit()
}

func (h *harness) probe(e *stream.Tuple) {
	h.tr.enter(lJoin)
	h.op.Process(e)
	h.tr.exit()
}

func (h *harness) bufferRelease(e *stream.Tuple) {
	h.batch = append(h.batch, e)
	if len(h.batch) >= h.batchCap {
		h.flushBatch()
	}
}

func (h *harness) flushBatch() {
	if len(h.batch) == 0 {
		return
	}
	h.tr.enter(lJoin)
	h.op.ProcessBatch(h.batch)
	h.tr.exit()
	clear(h.batch)
	h.batch = h.batch[:0]
}

// processed is the operator's productivity hook.
func (h *harness) processed(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
	h.tr.enter(lProfiler)
	if inOrder {
		h.inOrder++
		h.loop.RecordInOrder(0, e.Delay, nCross, nOn)
	} else {
		h.outOfOrder++
		h.loop.RecordOutOfOrder(0, e.Delay)
	}
	h.tr.exit()
}

// count is the operator's per-arrival result-count hook.
func (h *harness) count(ts stream.Time, n int64) {
	h.tr.enter(lMonitor)
	h.loop.ObserveResult(ts, n)
	h.tr.exit()
	h.tr.enter(lEmit)
	h.sink.counts(ts, n)
	h.tr.exit()
}

// replay is the sharded runtime's interval-merge visitor.
func (h *harness) replay(ts, delay stream.Time, nCross, nOn int64) {
	h.inOrder++
	h.tr.enter(lProfiler)
	h.loop.RecordInOrder(0, delay, nCross, nOn)
	h.tr.exit()
	if nOn > 0 {
		h.count(ts, nOn)
	}
}

// push feeds one raw arrival, as core.Pipeline.Push (and, when supervised,
// plan.Supervised.TryPush) does.
func (h *harness) push(e *stream.Tuple) {
	if h.supervised {
		h.log = append(h.log, e)
	}
	h.tr.enter(lStats)
	now := h.loop.Observe(e)
	h.tr.exit()
	h.tr.enter(lKslack)
	h.ks[e.Src].Push(e)
	h.tr.exit()
	at, ok := h.loop.Boundary(now)
	if !ok {
		return
	}
	h.adaptStep(at)
	if h.supervised {
		h.sinceCkpt++
		if h.sinceCkpt >= h.ckptEvery {
			h.checkpoint()
		}
	}
}

func (h *harness) adaptStep(at stream.Time) {
	h.boundaries++
	for _, k := range h.ks {
		h.kslackBuf += int64(k.Len())
	}
	h.syncBuf += int64(h.sync.Len())
	if h.op != nil {
		for i := 0; i < h.op.M(); i++ {
			h.windowTotal += int64(h.op.WindowLen(i))
		}
	}

	h.tr.enter(lFeedback)
	var outT stream.Time
	if h.rt != nil {
		h.tr.enter(lStats)
		h.loop.Sync()
		h.tr.exit()
		outT = h.rt.Watermark()
		h.rt.FlushInterval(h.replay, nil)
	} else {
		h.flushBatch()
		outT = h.op.HighWatermark()
	}
	newK := h.loop.DecideAt(at, outT)[0]
	h.tr.enter(lKslack)
	for _, k := range h.ks {
		k.SetK(newK)
	}
	h.tr.exit()
	h.tr.exit()
	h.sink.adapt(outT, newK)
}

// checkpoint captures what core.Pipeline.Checkpoint captures: quiesce and
// flush the interval, then snapshot the spine, the loop and the join state.
// The arrival log restarts.
func (h *harness) checkpoint() {
	h.tr.enter(lFault)
	tt := fault.NewTupleTable()
	if h.rt != nil {
		h.tr.enter(lStats)
		h.loop.Sync()
		h.tr.exit()
		h.rt.FlushInterval(h.replay, nil)
	}
	h.flushBatch()
	_ = h.sync.State(tt)
	_ = h.loop.State()
	for _, k := range h.ks {
		_ = k.State(tt)
	}
	if h.rt != nil {
		_ = h.rt.State(tt)
	} else {
		_ = h.op.State(tt)
	}
	h.log = h.log[:0]
	h.sinceCkpt = 0
	h.ckpts++
	h.tr.exit()
}

// finish flushes every buffer at end of input, as core.Pipeline.Finish.
func (h *harness) finish() {
	h.tr.enter(lKslack)
	for _, k := range h.ks {
		k.Flush()
	}
	h.tr.exit()
	h.tr.enter(lSyncer)
	for i := range h.ks {
		h.sync.Close(i)
	}
	h.tr.exit()
	h.flushBatch()
	if h.rt != nil {
		h.tr.enter(lStats)
		h.loop.Close()
		h.tr.exit()
		h.rt.FlushInterval(h.replay, nil)
		h.rt.Close()
	}
	h.log = nil
}

// tracedPass is one timed pass of the feed through the traced harness.
type tracedPass struct {
	pass
	h *harness
}

// runTraced feeds the dataset through a fresh harness in the same closed
// loop as runPublic.
func runTraced(w workload, ds *exp.Dataset, sk *sink) tracedPass {
	sk.reset()
	tr := newTracer()
	h := newHarness(w, ds, sk, tr)
	r := tracedPass{pass: pass{tuples: len(ds.Arrivals)}, h: h}
	r.wall, r.allocs, r.bytes, r.err = timed(func() {
		for _, e := range ds.Arrivals {
			if e.TS > sk.clock {
				sk.clock = e.TS
			}
			h.push(e)
		}
		h.finish()
	})
	if r.err != nil {
		return r
	}
	r.out = sk.outcome(h.loop.AvgK(0))
	r.checkpoints = h.ckpts
	return r
}
