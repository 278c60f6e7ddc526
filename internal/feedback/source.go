package feedback

import (
	"slices"

	"repro/internal/stats"
	"repro/internal/stream"
)

// scopeSource adapts the shared Statistics Manager to one decision scope's
// adapt.Source: model input i is the merge of the raw streams in groups[i].
// Singleton groups (the global Same-K scope, a tree stage's raw right input)
// delegate to the manager unchanged, so a single-scope loop is statistically
// identical to the pre-extraction pipeline. Multi-stream groups (the left
// side of a tree stage: the streams bound in the partial results) merge as
// follows:
//
//   - CDF: the count-weighted average of the member CDFs — the delay
//     distribution of a tuple drawn uniformly from the group's arrivals,
//     which is exactly what the left input's constituents are.
//   - KSync: the group minimum. K^sync_i is "free" buffering the model
//     subtracts from the K a stream still needs; for a composite input the
//     least-buffered member bounds what all constituents are guaranteed,
//     so the minimum is the conservative (never recall-overestimating)
//     choice.
//   - MaxDelayRecent: the maximum over all member streams of both groups,
//     bounding the scope's Alg. 3 search exactly as the global MaxD^H
//     bounds the global search.
type scopeSource struct {
	mgr    *stats.Manager
	groups [][]int
	member []float64 // scratch for one member CDF during a group merge
}

func newScopeSource(mgr *stats.Manager, groups [][]int) *scopeSource {
	return &scopeSource{mgr: mgr, groups: groups}
}

// CDF implements adapt.Source. A group merge accumulates the member terms
// in member order, then divides once, so it reuses dst and one member
// scratch slice without allocating in steady state.
func (s *scopeSource) CDF(i int, dst []float64) []float64 {
	g := s.groups[i]
	if len(g) == 1 {
		return s.mgr.CDF(g[0], dst)
	}
	var tot int64
	n := 0
	for _, st := range g {
		h := s.mgr.Hist(st)
		if h.Total() == 0 {
			continue
		}
		tot += h.Total()
		n = max(n, h.MaxBucket()+1)
	}
	if tot == 0 {
		return dst[:0]
	}
	out := slices.Grow(dst[:0], n)[:n]
	clear(out)
	for _, st := range g {
		w := s.mgr.Hist(st).Total()
		if w == 0 {
			continue
		}
		s.member = s.mgr.CDF(st, s.member)
		for d := range out {
			p := 1.0 // past a CDF's top bucket all its mass is covered
			if d < len(s.member) {
				p = s.member[d]
			}
			out[d] += float64(w) * p
		}
	}
	for d := range out {
		out[d] /= float64(tot)
	}
	return out
}

// KSync implements adapt.Source.
func (s *scopeSource) KSync(i int) stream.Time {
	g := s.groups[i]
	min := s.mgr.KSync(g[0])
	for _, st := range g[1:] {
		if v := s.mgr.KSync(st); v < min {
			min = v
		}
	}
	return min
}

// MaxDelayRecent implements adapt.Source.
func (s *scopeSource) MaxDelayRecent() stream.Time {
	var max stream.Time
	for _, g := range s.groups {
		for _, st := range g {
			if d := s.mgr.Hist(st).MaxDelay(); d > max {
				max = d
			}
		}
	}
	return max
}
