package main

// The traced replay: one lap of wire frames replayed on one goroutine,
// adding one layer per pass, each pass run untraced and then traced.
//
//	1 serve.ReadSegmentArena over the frame stream
//	2 + netsim.Reassembler.Add
//	3 + vpatch.Session.ScanBatch over watermark-sized group batches
//	4 + rules.Eval.OnHit / FeedBuffer / FinishFlow on pass 3's hits
//	5   serve parse + ids.Engine.HandleSegment + Flush
//	6   serve parse + ids.Dispatcher.HandleBatch + Close
//	7   serve parse + resil.Scheduler.Enqueue feeding that dispatcher
//
// A pass's cost minus the cost of the pass below it is that layer's
// self cost. Passes 1-4 rebuild the shard's batching in benchmark code
// (carry, watermarks, hit ordering) so that the scan and the rule
// evaluator are called exactly as a shard calls them; pass 5 runs the
// real shard, so pass 5 minus pass 4 is the ids shard glue. Spans are
// recorded only here, around calls into each layer's exported
// functions.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/arena"
	"vpatch/internal/netsim"
	"vpatch/internal/resil"
	"vpatch/internal/rules"
	"vpatch/internal/serve"
)

// Span names.
const (
	spParse uint8 = iota
	spReasm
	spScan
	spRules
	spHandleSegment
	spFlush
	spHandleBatch
	spDispClose
	spEnqueue
	spSchedClose
	nSpans
)

var spanNames = [nSpans]string{
	"serve.ReadSegmentArena", "netsim.Reassembler.Add", "vpatch.Session.ScanBatch",
	"rules.Eval", "ids.Engine.HandleSegment", "ids.Engine.Flush",
	"ids.Dispatcher.HandleBatch", "ids.Dispatcher.Close",
	"resil.Scheduler.Enqueue", "resil.Scheduler.Close",
}

// span is one recorded call: name, enclosing span (-1 = none) and
// monotonic start/end nanoseconds.
type span struct {
	name       uint8
	parent     int32
	start, end int64
}

// tracer records spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	spans []span
	cur   int32
}

func newTracer(on bool, capHint int) *tracer {
	t := &tracer{on: on, cur: -1}
	if on {
		t.spans = make([]span, 0, capHint)
	}
	return t
}

func (t *tracer) begin(name uint8) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: t.cur, start: mono()})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = mono()
	t.cur = t.spans[id].parent
}

// selfNs sums each span name's self time: duration minus the time its
// child spans cover.
func (t *tracer) selfNs() [nSpans]int64 {
	var self [nSpans]int64
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// replay holds what every pass shares.
type replay struct {
	db     []byte
	grp    *vpatch.Engine // the port-80 group engine, compiled as ids does
	orig   []int32
	rset   *rules.Set
	limits netsim.Limits
	budget resil.VerifierBudget

	// The replayed frames: every k-th flow of the lap, whole and in lap
	// order, so the mix of segment sizes and evasive flows matches the
	// lap the daemon saw.
	frameBuf     []byte
	segs         int
	payloadBytes int64
}

// replaySegs bounds the replayed share of a lap.
const replaySegs = 20000

func newReplay(tr *lapTrace, db []byte) (*replay, error) {
	eng, err := ids.LoadDB(db, func(ids.Alert) {})
	if err != nil {
		return nil, err
	}
	sub, orig := groupSubset(eng.Set())
	grp, err := vpatch.Compile(sub, vpatch.Options{})
	if err != nil {
		return nil, err
	}
	cfg := tenantConfig()
	r := &replay{
		db: db, grp: grp, orig: orig, rset: eng.Rules(),
		limits: netsim.Limits{
			MaxFlows:          cfg.MaxFlows,
			IdleTimeoutMicros: uint64(cfg.FlowTimeout.Microseconds()),
			FlowPendingBytes:  cfg.FlowPendingBytes,
			TotalPendingBytes: cfg.TotalPendingBytes,
		},
		budget: resil.VerifierBudget{PerFlow: cfg.VerifierFlowBudget, Price: resil.DefaultPrice()},
	}
	k := (len(tr.segs) + replaySegs - 1) / replaySegs
	for i, s := range tr.segs {
		if int(s.flow)%k == 0 {
			r.frameBuf = append(r.frameBuf, tr.frames[tr.offs[i]:tr.offs[i+1]]...)
			r.segs++
			r.payloadBytes += int64(s.n)
		}
	}
	return r, nil
}

// passResult is one pass's cost.
type passResult struct {
	wallNs, cpuNs int64
	self          [nSpans]int64
	spans         []span
	counters      vpatch.Counters
	hits, alerts  int64
	batches       int64
}

// frames parses the replayed frame stream, handing each segment to fn.
func (r *replay) frames(t *tracer, a *arena.Arena, fn func(netsim.Segment)) error {
	rd := bytes.NewReader(r.frameBuf)
	for {
		sp := t.begin(spParse)
		seg, err := serve.ReadSegmentArena(rd, a)
		t.end(sp)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(seg)
	}
}

// run executes pass p (1-7) once, traced or not.
func (r *replay) run(p int, traced bool) (passResult, error) {
	var res passResult
	t := newTracer(traced, 4*r.segs+1024)
	a := arena.New(arena.Config{})
	var body func() error
	switch p {
	case 1:
		body = func() error {
			return r.frames(t, a, func(seg netsim.Segment) { seg.ReleasePayload() })
		}
	case 2, 3, 4:
		b := r.newBatcher(p, t, &res)
		reasm := netsim.NewReassembler(b.onPayload)
		reasm.SetLimits(r.limits)
		reasm.SetArena(a.NewLocal())
		if p >= 3 {
			reasm.OnClose(b.onClose)
		}
		body = func() error {
			err := r.frames(t, a, func(seg netsim.Segment) {
				sp := t.begin(spReasm)
				reasm.Add(seg)
				t.end(sp)
				seg.ReleasePayload()
			})
			b.flush()
			return err
		}
	case 5:
		eng, err := ids.LoadDB(r.db, func(ids.Alert) { res.alerts++ })
		if err != nil {
			return res, err
		}
		eng.SetLimits(r.limits)
		eng.SetVerifierBudget(r.budget)
		eng.SetCounters(&res.counters)
		body = func() error {
			err := r.frames(t, a, func(seg netsim.Segment) {
				sp := t.begin(spHandleSegment)
				eng.HandleSegment(seg)
				t.end(sp)
			})
			sp := t.begin(spFlush)
			eng.Flush()
			t.end(sp)
			return err
		}
	case 6, 7:
		eng, err := ids.LoadDB(r.db, func(ids.Alert) {})
		if err != nil {
			return res, err
		}
		var alerts atomic.Int64
		d := eng.NewDispatcher(tenantConfig().Shards, r.limits, func(ids.Alert) { alerts.Add(1) })
		d.SetArena(a)
		d.SetVerifierBudget(r.budget)
		d.Observe() // the daemon's shards scan instrumented for /metrics
		handoff := func(batch []netsim.Segment) {
			sp := t.begin(spHandleBatch)
			d.HandleBatch(batch)
			t.end(sp)
		}
		var sched *resil.Scheduler
		shed := false
		if p == 7 {
			sched = resil.NewScheduler(resil.SchedulerConfig{
				Dispatch: func(_ string, segs []netsim.Segment) { d.HandleBatch(segs) },
			})
			sched.Start()
			handoff = func(batch []netsim.Segment) {
				// Stay below the lane bound, as the closed loop does,
				// so the replay never sheds.
				for sched.TenantStats(tenantName).QueuedBytes > resil.DefaultQueueBytes/2 {
					time.Sleep(50 * time.Microsecond)
				}
				sp := t.begin(spEnqueue)
				if !sched.Enqueue(tenantName, batch) {
					shed = true
				}
				t.end(sp)
			}
		}
		body = func() error {
			batch := make([]netsim.Segment, 0, 64)
			err := r.frames(t, a, func(seg netsim.Segment) {
				batch = append(batch, seg)
				if len(batch) == cap(batch) {
					handoff(batch)
					res.batches++
					batch = make([]netsim.Segment, 0, 64)
				}
			})
			if len(batch) > 0 {
				handoff(batch)
				res.batches++
			}
			if sched != nil {
				sp := t.begin(spSchedClose)
				sched.Close()
				t.end(sp)
			}
			sp := t.begin(spDispClose)
			d.Close()
			t.end(sp)
			res.alerts = alerts.Load()
			if shed {
				return fmt.Errorf("pass 7 shed a batch")
			}
			return err
		}
	default:
		return res, fmt.Errorf("no pass %d", p)
	}
	c0, w0 := cpuNanos(), mono()
	err := body()
	res.wallNs, res.cpuNs = mono()-w0, cpuNanos()-c0
	res.self = t.selfNs()
	res.spans = t.spans
	return res, err
}

// batcher rebuilds a shard's per-flow scan jobs (carry + payload), its
// watermark batching and, in pass 4, its rule-hit replay.
type batcher struct {
	r     *replay
	pass  int
	t     *tracer
	res   *passResult
	sess  *vpatch.Session
	ev    *rules.Eval
	keep  int // carry length: longest pattern - 1
	flows map[netsim.FlowKey]*bflow
	bufs  [][]byte
	meta  []bmeta
	bytes int
	free  [][]byte
	hits  []bhit
	onHit func(buf int, m vpatch.Match)
}

type bflow struct {
	key      netsim.FlowKey
	carry    []byte
	consumed int64
	rstate   *rules.FlowState
}

type bmeta struct {
	fs       *bflow
	carryLen int
	base     int64
}

type bhit struct {
	buf, lit, pos, end int32
}

func (r *replay) newBatcher(pass int, t *tracer, res *passResult) *batcher {
	b := &batcher{r: r, pass: pass, t: t, res: res, sess: r.grp.NewSession(),
		flows: make(map[netsim.FlowKey]*bflow)}
	b.keep = r.grp.Set().MaxLen() - 1
	if b.keep < 0 {
		b.keep = 0
	}
	if pass == 4 && r.rset != nil {
		b.ev = rules.NewEval(r.rset)
	}
	set := r.grp.Set()
	b.onHit = func(buf int, m vpatch.Match) {
		ent := &b.meta[buf]
		end := int(m.Pos) + set.Pattern(m.PatternID).Len()
		if end <= ent.carryLen {
			return // reported by the batch that scanned those bytes first
		}
		b.res.hits++
		if b.ev != nil {
			b.hits = append(b.hits, bhit{int32(buf), r.orig[m.PatternID], m.Pos, int32(end)})
		}
	}
	return b
}

func (b *batcher) onPayload(k netsim.FlowKey, payload []byte) {
	if b.pass < 3 || len(payload) == 0 {
		return
	}
	fs := b.flows[k]
	if fs == nil {
		fs = &bflow{key: k}
		if b.ev != nil {
			fs.rstate = rules.NewFlowState(vpatch.ProtoHTTP)
		}
		b.flows[k] = fs
	}
	var buf []byte
	if n := len(b.free); n > 0 {
		buf, b.free = b.free[n-1][:0], b.free[:n-1]
	}
	buf = append(append(buf, fs.carry...), payload...)
	carryLen := len(fs.carry)
	base := fs.consumed - int64(carryLen)
	fs.consumed += int64(len(payload))
	keep := b.keep
	if keep > len(buf) {
		keep = len(buf)
	}
	fs.carry = append(fs.carry[:0], buf[len(buf)-keep:]...)
	b.bufs = append(b.bufs, buf)
	b.meta = append(b.meta, bmeta{fs: fs, carryLen: carryLen, base: base})
	b.bytes += len(buf)
	if len(b.bufs) >= ids.DefaultBatchBufs || b.bytes >= ids.DefaultBatchBytes {
		b.flush()
	}
}

// onClose mirrors the shard's teardown: with a rule database, a
// closing flow's queued jobs are scanned before its rule state settles.
func (b *batcher) onClose(k netsim.FlowKey, _ bool) {
	fs := b.flows[k]
	if fs == nil {
		return
	}
	if b.r.rset != nil {
		for i := range b.meta {
			if b.meta[i].fs == fs {
				b.flush()
				break
			}
		}
	}
	if fs.rstate != nil {
		sp := b.t.begin(spRules)
		b.ev.FinishFlow(fs.rstate, &b.res.counters, b.emit)
		b.t.end(sp)
		fs.rstate = nil
	}
	delete(b.flows, k)
}

func (b *batcher) emit(int32, int64) { b.res.alerts++ }

func (b *batcher) flush() {
	if len(b.bufs) == 0 {
		return
	}
	b.res.batches++
	sp := b.t.begin(spScan)
	b.sess.ScanBatch(b.bufs, &b.res.counters, b.onHit)
	b.t.end(sp)
	if b.ev != nil {
		b.evalHits()
	}
	b.free = append(b.free, b.bufs...)
	b.bufs, b.meta, b.bytes = b.bufs[:0], b.meta[:0], 0
}

// evalHits feeds the batch's hits to the evaluator per buffer in match
// end order, after advancing suspended verifications with the buffer.
func (b *batcher) evalHits() {
	hits := b.hits
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].buf != hits[j].buf {
			return hits[i].buf < hits[j].buf
		}
		return hits[i].end < hits[j].end
	})
	sp := b.t.begin(spRules)
	hi := 0
	for i := range b.meta {
		ent := &b.meta[i]
		fs := ent.fs
		if fs.rstate == nil {
			for hi < len(hits) && int(hits[hi].buf) == i {
				hi++
			}
			continue
		}
		buf := b.bufs[i]
		if fs.rstate.HasPending() {
			b.ev.FeedBuffer(fs.rstate, buf, ent.base, &b.res.counters, b.emit)
		}
		for ; hi < len(hits) && int(hits[hi].buf) == i; hi++ {
			h := hits[hi]
			b.ev.OnHit(fs.rstate, h.lit, ent.base+int64(h.pos), ent.base+int64(h.end),
				buf, ent.base, &b.res.counters, b.emit)
		}
	}
	b.t.end(sp)
	b.hits = hits[:0]
}

// passCount is the number of replay passes.
const passCount = 7

// replayResult holds every pass, untraced and traced.
type replayResult struct {
	untraced, traced [passCount + 1]passResult // index = pass number
	loadgenCPUNs     int64
	segs             int64
	bytes            int64
	width            int // vector lanes of the scan engine
	rounds           int
	spanFile         string
}

// runReplay runs every pass untraced then traced, in rounds until
// budget is spent (at least one, at most three), keeps each pass's
// median cost, adds the loadgen pass, and writes the last traced
// round's spans to spanDir.
func runReplay(r *replay, budget time.Duration, tag string) (*replayResult, error) {
	out := &replayResult{segs: int64(r.segs), bytes: r.payloadBytes, width: r.grp.VectorWidth()}
	var cpu, wall [2][passCount + 1][]float64
	start := mono()
	for round := 0; round < 3 && (round == 0 || mono()-start < int64(budget)); round++ {
		for p := 1; p <= passCount; p++ {
			if p == 4 && r.rset == nil {
				continue // literal workloads have no rule layer
			}
			for ti, traced := range []bool{false, true} {
				forceGC()
				res, err := r.run(p, traced)
				if err != nil {
					return nil, fmt.Errorf("pass %d: %w", p, err)
				}
				cpu[ti][p] = append(cpu[ti][p], float64(res.cpuNs))
				wall[ti][p] = append(wall[ti][p], float64(res.wallNs))
				if traced {
					out.traced[p] = res
				} else if round == 0 {
					out.untraced[p] = res
				}
			}
		}
		out.rounds++
	}
	for p := 1; p <= passCount; p++ {
		out.untraced[p].cpuNs, out.untraced[p].wallNs = int64(median(cpu[0][p])), int64(median(wall[0][p]))
		out.traced[p].cpuNs, out.traced[p].wallNs = int64(median(cpu[1][p])), int64(median(wall[1][p]))
	}
	if r.rset == nil {
		out.untraced[4], out.traced[4] = out.untraced[3], out.traced[3]
	}
	forceGC()
	ns, err := loadgenPass(r.frameBuf)
	if err != nil {
		return nil, err
	}
	out.loadgenCPUNs = ns
	if out.spanFile, err = writeSpans(out, spanDir, tag); err != nil {
		return nil, err
	}
	return out, nil
}

// spanDir receives the span dump, relative to the working directory
// (the checkout root, where the build output lives too).
const spanDir = ".bench_build/spans"

// loadgenPass measures the sender's share: the replayed frames written
// over a loopback TCP connection, 32 KiB per write, to a reader that
// discards them (both ends of the transport are counted).
func loadgenPass(frames []byte) (int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		_, err = io.Copy(io.Discard, c)
		c.Close()
		done <- err
	}()
	c0 := cpuNanos()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(frames); i += 32 << 10 {
		if _, err := conn.Write(frames[i:min(i+32<<10, len(frames))]); err != nil {
			conn.Close()
			return 0, err
		}
	}
	conn.Close()
	if err := <-done; err != nil {
		return 0, err
	}
	return cpuNanos() - c0, nil
}

// writeSpans dumps every traced pass's spans as CSV: pass, span index,
// name, parent index, start and end (ns since the run started).
func writeSpans(rr *replayResult, dir, tag string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, tag+".csv")
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "pass,span,name,parent,start_ns,end_ns")
	for p := 1; p <= passCount; p++ {
		for i, s := range rr.traced[p].spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", p, i, spanNames[s.name], s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}
