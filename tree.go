package qdhj

import (
	"repro/internal/dist"
	"repro/internal/feedback"
)

// TreeJoin is an m-way join executed as a left-deep tree of binary join
// operators, each fronted by its own Synchronizer — the distributed MSWJ
// deployment shape of Sec. V of the paper. It shares the join condition
// model and the K-slack disorder handling with Join, but trades the single
// MJoin-style operator for composable binary stages.
//
// By default the buffers stay at the fixed size k. WithTreeAdaptation puts
// the quality-driven feedback loop in charge instead (k then only seeds the
// buffers until the first decision): one global Same-K decision exactly
// like Join's, or — with WithPerStageK — one K per binary stage, chosen
// from that stage's two input delay profiles and stage-local selectivity
// against its share of the recall requirement derived at the tree root.
//
// TreeJoin runs the plan-tree engine on the spine: with WithPerStageK it
// makes exactly the decisions of NewJoin(..., WithPlan(ParsePlan("tree"))).
type TreeJoin struct {
	t  *dist.PlanTree
	at *dist.AdaptivePlanTree // adaptive driver of t; nil on fixed-K runs
}

// TreeResult is one result of a TreeJoin: the constituent tuples in stream
// order, the result timestamp, and the delay annotation of the tuple whose
// arrival produced it.
type TreeResult struct {
	TS     Time
	Delay  Time
	Tuples []*Tuple
}

// TreeOption configures the optional adaptation of a TreeJoin or
// PipelinedTreeJoin.
type TreeOption func(*treeOpts)

type treeOpts struct {
	adapt    *Options
	perStage bool
	onDecide func(at Time, ks []Time)
}

// WithTreeAdaptation enables the quality-driven feedback loop on the tree:
// buffer sizes are re-decided every adaptation interval from the recall
// requirement opt.Gamma, exactly as Join does for the single operator. The
// zero Options value gives the paper's defaults (Γ = 0.95, P = 1 min,
// L = 1 s, NonEqSel). Options.Policy selects the buffer-sizing policy;
// StaticSlack is rejected — build the tree without adaptation instead.
func WithTreeAdaptation(opt Options) TreeOption {
	return func(o *treeOpts) { o.adapt = &opt }
}

// WithPerStageK gives every binary tree stage its own decision scope: stage
// j's K is chosen from the delay profiles of its two inputs (the merged
// left-subtree streams and raw stream j+1) and the stage-local selectivity
// snapshot. The instant requirement Γ′ derived at the tree root composes
// along root-to-leaf paths: each raw stream contributes one Γ′^(1/m)
// factor to the stage whose buffer it enters, so stage 0 (two raw inputs)
// decides against Γ′^(2/m) and every other stage against Γ′^(1/m). On
// asymmetric-delay inputs this buys strictly less total buffered delay
// than the global Same-K for the same recall target (DESIGN.md §8/§9).
// Implies WithTreeAdaptation with default Options unless one is given.
func WithPerStageK() TreeOption {
	return func(o *treeOpts) {
		o.perStage = true
		if o.adapt == nil {
			o.adapt = &Options{}
		}
	}
}

// WithTreeDecideHook registers a callback observing every adaptation
// decision: the boundary time and the chosen K per decision scope (one
// entry under Same-K, one per stage under WithPerStageK; the slice is
// reused — copy to retain).
func WithTreeDecideHook(f func(at Time, ks []Time)) TreeOption {
	return func(o *treeOpts) { o.onDecide = f }
}

// validate rejects option sets that would silently do nothing.
func (o *treeOpts) validate() {
	if o.onDecide != nil && o.adapt == nil {
		panic("qdhj: WithTreeDecideHook without WithTreeAdaptation/WithPerStageK — no decisions will ever fire; enable adaptation or drop the hook")
	}
}

// adaptiveConfig maps the qdhj Options onto the dist adaptation config.
func (o *treeOpts) adaptiveConfig(initialK Time) dist.AdaptiveConfig {
	var pf feedback.PolicyFactory
	switch o.adapt.Policy {
	case MaxSlack:
		pf = feedback.MaxKPolicy()
	case NoSlack:
		pf = feedback.NoKPolicy()
	case StaticSlack:
		panic("qdhj: WithTreeAdaptation with the StaticSlack policy — a static buffer needs no feedback loop; build the tree without WithTreeAdaptation and pass the buffer size as k")
	default:
		pf = feedback.ModelPolicy()
	}
	return dist.AdaptiveConfig{
		Adapt:    execConfig(*o.adapt, &joinOpts{}).Adapt,
		PerStage: o.perStage,
		Policy:   pf,
		InitialK: initialK,
		OnDecide: o.onDecide,
	}
}

// NewTreeJoin creates the binary-tree join with the common buffer size k on
// every input stream — fixed for the whole run unless a WithTreeAdaptation
// or WithPerStageK option enables the feedback loop.
//
// The deployment shape is the left-deep spine; for bushy shapes or
// stage-wise sharding, plan explicitly and run through
// NewJoin(..., WithPlan(p)).
func NewTreeJoin(cond *Condition, windows []Time, k Time, emit func(TreeResult), opts ...TreeOption) *TreeJoin {
	var o treeOpts
	for _, op := range opts {
		op(&o)
	}
	o.validate()
	var sink func(dist.Partial)
	if emit != nil {
		sink = func(p dist.Partial) {
			emit(TreeResult{TS: p.TS, Delay: p.Delay, Tuples: p.Parts})
		}
	}
	spine := dist.Spine(len(windows))
	if o.adapt != nil {
		at := dist.NewAdaptivePlanTree(cond, windows, spine, o.adaptiveConfig(k), sink)
		return &TreeJoin{t: at.Tree(), at: at}
	}
	return &TreeJoin{t: dist.NewPlanTree(cond, windows, spine, k, sink)}
}

// Push feeds a raw arrival. Pushing into a closed tree panics.
func (j *TreeJoin) Push(t *Tuple) {
	if j.at != nil {
		j.at.Push(t)
		return
	}
	j.t.Push(t)
}

// SetK changes the common buffer size on all streams. On an adaptive tree
// the feedback loop overrides it at the next interval boundary.
func (j *TreeJoin) SetK(k Time) { j.t.SetK(k) }

// Close flushes all buffers at end of input. Closing twice panics, as does
// pushing afterwards.
func (j *TreeJoin) Close() { j.t.Finish() }

// Results returns the number of results produced so far.
func (j *TreeJoin) Results() int64 { return j.t.Results() }

// Operators returns the number of binary join operators in the tree.
func (j *TreeJoin) Operators() int { return j.t.Operators() }

// Adaptations returns the number of buffer-size decisions taken (0 without
// adaptation).
func (j *TreeJoin) Adaptations() int64 {
	if j.at == nil {
		return 0
	}
	return j.at.Loop().Decisions()
}

// CurrentKs returns the most recent buffer-size decision, one entry per
// decision scope: a single global K under Same-K adaptation, K_j per stage
// under WithPerStageK, nil without adaptation. The slice is live; copy to
// retain.
func (j *TreeJoin) CurrentKs() []Time {
	if j.at == nil {
		return nil
	}
	return j.at.Loop().Ks()
}

// BufferedDelaySum returns the aggregate buffered delay the run paid:
// Σ over adaptation intervals of Σ over the m raw-input buffers of the
// applied K. Per-stage adaptation exists to shrink it (0 without
// adaptation).
func (j *TreeJoin) BufferedDelaySum() float64 {
	if j.at == nil {
		return 0
	}
	return j.at.BufferedDelaySum()
}

// PipelinedTreeJoin runs a TreeJoin on its own goroutine behind a channel
// API: Push hands arrivals to the tree goroutine and Results delivers the
// results as they are produced. The tree is exactly the one NewTreeJoin
// builds with the same options, so results, K decisions and
// BufferedDelaySum are deterministic and identical to the synchronous
// run's; only the producer is decoupled from the join work, and a
// WithTreeDecideHook callback runs on the tree goroutine. For multicore
// tree execution plan a stage-sharded tree instead:
// NewJoin(..., WithPlan(ParsePlan("tree-shard:N", ...))).
type PipelinedTreeJoin struct {
	j      *TreeJoin
	in     chan *Tuple
	out    chan TreeResult
	done   chan struct{} // closed when the tree goroutine has exited
	closed bool
	// failure is the recovered panic value of the tree goroutine (a
	// panicking Where predicate, say); Wait re-raises it. Written before
	// done closes, read after.
	failure any
}

// NewPipelinedTreeJoin creates the pipelined variant with input and result
// channels of the given size (≤0 selects a default).
func NewPipelinedTreeJoin(cond *Condition, windows []Time, k Time, buffer int, opts ...TreeOption) *PipelinedTreeJoin {
	if buffer <= 0 {
		buffer = 256
	}
	// Both channels are buffered so the producer and the result consumer
	// each run up to buffer items ahead of the tree goroutine instead of
	// handing off in lockstep on every tuple.
	p := &PipelinedTreeJoin{
		in:   make(chan *Tuple, buffer),
		out:  make(chan TreeResult, buffer),
		done: make(chan struct{}),
	}
	p.j = NewTreeJoin(cond, windows, k, func(r TreeResult) { p.out <- r }, opts...)
	go p.run()
	return p
}

// run is the tree goroutine. A panic ends the run: it is recorded for Wait,
// and Results closes so the consumer's drain loop ends.
func (p *PipelinedTreeJoin) run() {
	defer close(p.done)
	defer close(p.out)
	defer func() {
		p.failure = recover()
	}()
	for t := range p.in {
		p.j.Push(t)
	}
	p.j.Close()
}

// Push feeds a raw arrival from the single producer goroutine. Pushing
// after Close panics. Once the tree goroutine has panicked, arrivals are
// discarded and Wait re-raises the panic.
func (p *PipelinedTreeJoin) Push(t *Tuple) {
	if p.closed {
		panic("qdhj: Push on a closed PipelinedTreeJoin — Close ended the input and the tree is flushing; build a new PipelinedTreeJoin")
	}
	select {
	case p.in <- t:
	case <-p.done:
	}
}

// Close signals end of input. Closing twice panics.
func (p *PipelinedTreeJoin) Close() {
	if p.closed {
		panic("qdhj: Close on a closed PipelinedTreeJoin — the input has already ended; build a new PipelinedTreeJoin for another run")
	}
	p.closed = true
	close(p.in)
}

// Results returns the result channel; drain it until it closes.
func (p *PipelinedTreeJoin) Results() <-chan TreeResult { return p.out }

// Wait blocks until the tree goroutine has exited; call after draining
// Results. If the tree panicked — where the synchronous TreeJoin would have
// panicked from Push — Wait panics with the same value.
func (p *PipelinedTreeJoin) Wait() {
	<-p.done
	if p.failure != nil {
		panic(p.failure)
	}
}

// BufferedDelaySum returns the aggregate buffered delay; see
// TreeJoin.BufferedDelaySum. Call after Wait.
func (p *PipelinedTreeJoin) BufferedDelaySum() float64 { return p.j.BufferedDelaySum() }
