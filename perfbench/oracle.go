package main

// The alert oracle: the alert multiset one lap must produce, built from
// code that shares no scan path with the daemon. Literal workloads scan
// each flow's reassembled stream with an Aho-Corasick engine over the
// port-80 group's patterns (the daemon runs V-PATCH). The rule workload
// runs the naive reference evaluator rules.RefEval on each flow's
// stream; an Aho-Corasick pass over the rule literals only trims the
// rules handed to it to those whose every content occurs in the flow,
// which no rule that can fire fails.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vpatch"
	"vpatch/internal/patterns"
	"vpatch/internal/rules"
)

// alertKey identifies one alert within a lap. id is the literal's
// pattern ID, or ruleIDBase+rule for rule alerts.
type alertKey struct {
	flow int32
	id   int32
	off  int64
}

const ruleIDBase = 1 << 30

// oracle is one lap's expected alerts. done[i] is the index (in send
// order) of the segment after which expected alert i can be decided:
// the first segment at which the flow's contiguous stream covers the
// match end.
type oracle struct {
	keys      []alertKey // sorted by (flow, off, id)
	done      []int32
	flowStart []int32 // keys of flow f are keys[flowStart[f]:flowStart[f+1]]
	regex     int     // expected alerts of rules with a pcre tail
}

// lookup returns the index of the expected alert k, or -1.
func (o *oracle) lookup(k alertKey) int {
	if k.flow < 0 || int(k.flow) >= len(o.flowStart)-1 {
		return -1
	}
	lo, hi := int(o.flowStart[k.flow]), int(o.flowStart[k.flow+1])
	i := lo + sort.Search(hi-lo, func(j int) bool {
		c := o.keys[lo+j]
		return c.off > k.off || (c.off == k.off && c.id >= k.id)
	})
	if i < hi && o.keys[i] == k {
		return i
	}
	return -1
}

// groupSubset mirrors the daemon's port-80 rule group: HTTP plus
// generic patterns, duplicates keeping their first original ID.
func groupSubset(set *patterns.Set) (*patterns.Set, []int32) {
	sub := patterns.NewSet()
	var orig []int32
	for i := range set.Patterns() {
		p := &set.Patterns()[i]
		if p.Proto != patterns.ProtoHTTP && p.Proto != patterns.ProtoGeneric {
			continue
		}
		if id := sub.Add(p.Data, p.Nocase, p.Proto); int(id) == len(orig) {
			orig = append(orig, p.ID)
		}
	}
	return sub, orig
}

// buildLiteralOracle expects one alert per occurrence of every group
// pattern in every flow stream.
func buildLiteralOracle(tr *lapTrace, lits *patterns.Set) (*oracle, error) {
	sub, orig := groupSubset(lits)
	ac, err := vpatch.Compile(sub, vpatch.Options{Algorithm: vpatch.AlgoAhoCorasick})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return perFlow(tr, func(f int, _ []bool) (flowAlerts, int) {
		var fa flowAlerts
		for _, m := range ac.FindAll(tr.streams[f]) {
			fa.keys = append(fa.keys, alertKey{flow: int32(f), id: orig[m.PatternID], off: int64(m.Pos)})
			fa.ends = append(fa.ends, int64(m.Pos)+int64(sub.Pattern(m.PatternID).Len()))
		}
		return fa, 0
	}, 0), nil
}

// buildRuleOracle expects what rules.RefEval reports on every flow.
func buildRuleOracle(tr *lapTrace, rs *rules.Set) (*oracle, error) {
	ac, err := vpatch.Compile(rs.Lits, vpatch.Options{Algorithm: vpatch.AlgoAhoCorasick})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return perFlow(tr, func(f int, seen []bool) (flowAlerts, int) {
		s := tr.streams[f]
		for i := range seen {
			seen[i] = false
		}
		for _, m := range ac.FindAll(s) {
			seen[m.PatternID] = true
		}
		sub := &rules.Set{Lits: rs.Lits, Window: rs.Window}
	rule:
		for ri := range rs.Rules {
			for _, cl := range rs.Rules[ri].Clauses {
				if !seen[cl.Lit] {
					continue rule
				}
			}
			sub.Rules = append(sub.Rules, rs.Rules[ri])
		}
		var fa flowAlerts
		regex := 0
		for _, a := range rules.RefEval(sub, s, patterns.ProtoHTTP) {
			cls := rs.Rules[a.Rule].Clauses
			if rs.Rules[a.Rule].Regex != nil {
				regex++
			}
			fa.keys = append(fa.keys, alertKey{flow: int32(f), id: ruleIDBase + a.Rule, off: a.StreamOff})
			fa.ends = append(fa.ends, a.StreamOff+int64(len(cls[len(cls)-1].Data)))
		}
		return fa, regex
	}, rs.Lits.Len()), nil
}

// flowAlerts is one flow's expected alerts and their match ends.
type flowAlerts struct {
	keys []alertKey
	ends []int64
}

// perFlow evaluates fn on every flow, on GOMAXPROCS goroutines (each
// with its own scratch of scratchLen flags), and assembles the oracle.
// fn also returns the flow's count of pcre-rule alerts.
func perFlow(tr *lapTrace, fn func(f int, scratch []bool) (flowAlerts, int), scratchLen int) *oracle {
	n := len(tr.streams)
	out := make([]flowAlerts, n)
	regex := make([]int, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := make([]bool, scratchLen)
			for f := w; f < n; f += workers {
				out[f], regex[f] = fn(f, scratch)
			}
		}(w)
	}
	wg.Wait()
	o := &oracle{}
	ends := make([][]int64, n)
	for f := range out {
		o.keys = append(o.keys, out[f].keys...)
		ends[f] = out[f].ends
		o.regex += regex[f]
	}
	o.finish(tr, ends)
	return o
}

// finish maps every expected alert (whose match ends at ends[flow][k],
// in key order per flow) to the segment that completes it, then sorts
// each flow's alerts for lookup.
func (o *oracle) finish(tr *lapTrace, ends [][]int64) {
	// Per flow, the contiguous frontier after each of its segments.
	type step struct {
		seg      int32
		frontier int64
	}
	steps := make([][]step, len(tr.streams))
	type span struct{ lo, hi int64 }
	pending := make([][]span, len(tr.streams))
	frontier := make([]int64, len(tr.streams))
	for i, s := range tr.segs {
		f := s.flow
		lo, hi := int64(s.off), int64(s.off+s.n)
		if hi > frontier[f] {
			pending[f] = append(pending[f], span{lo, hi})
			sort.Slice(pending[f], func(a, b int) bool { return pending[f][a].lo < pending[f][b].lo })
			rest := pending[f][:0]
			for _, p := range pending[f] {
				switch {
				case p.lo <= frontier[f]:
					if p.hi > frontier[f] {
						frontier[f] = p.hi
					}
				default:
					rest = append(rest, p)
				}
			}
			pending[f] = rest
		}
		steps[f] = append(steps[f], step{int32(i), frontier[f]})
	}
	o.done = make([]int32, len(o.keys))
	k := 0
	for f := range ends {
		for _, e := range ends[f] {
			st := steps[f]
			j := sort.Search(len(st), func(j int) bool { return st[j].frontier >= e })
			if j == len(st) {
				j = len(st) - 1 // unreachable for a complete stream
			}
			o.done[k] = st[j].seg
			k++
		}
	}
	o.flowStart = make([]int32, len(tr.streams)+1)
	for _, key := range o.keys {
		o.flowStart[key.flow+1]++
	}
	for f := range tr.streams {
		o.flowStart[f+1] += o.flowStart[f]
	}
	sort.Sort(byKey{o})
}

// byKey sorts keys (and done with them) by (flow, off, id).
type byKey struct{ o *oracle }

func (b byKey) Len() int { return len(b.o.keys) }
func (b byKey) Less(i, j int) bool {
	x, y := b.o.keys[i], b.o.keys[j]
	if x.flow != y.flow {
		return x.flow < y.flow
	}
	if x.off != y.off {
		return x.off < y.off
	}
	return x.id < y.id
}
func (b byKey) Swap(i, j int) {
	b.o.keys[i], b.o.keys[j] = b.o.keys[j], b.o.keys[i]
	b.o.done[i], b.o.done[j] = b.o.done[j], b.o.done[i]
}
