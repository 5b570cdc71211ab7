package main

// The untraced daemon run: set-up from rule text, a closed-loop
// capacity phase and an open-loop latency phase over one raw-TCP ingest
// connection, and the alert sink that checks every alert against the
// oracle as it arrives.

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/patterns"
	"vpatch/internal/resil"
	"vpatch/internal/serve"
)

const tenantName = "bench"

// tenantConfig is vpatch-serve's default tenant configuration (its
// flag defaults): two shards, the flow bounds, and the armed per-flow
// verifier budget.
func tenantConfig() serve.TenantConfig {
	return serve.TenantConfig{
		Shards:             2,
		MaxFlows:           1 << 20,
		FlowTimeout:        60 * time.Second,
		FlowPendingBytes:   256 << 10,
		TotalPendingBytes:  64 << 20,
		VerifierFlowBudget: resil.DefaultFlowBudget,
	}
}

// compileDB turns rule text into a serialized rule database, as
// vpatch-serve -rules does.
func compileDB(w workload, text []byte) ([]byte, error) {
	var eng *ids.Engine
	if w.rules {
		rs, err := vpatch.ParseRuleSet(bytes.NewReader(text), vpatch.RuleParseOptions{})
		if err != nil {
			return nil, err
		}
		if eng, err = ids.NewRuleEngine(rs, vpatch.Options{}, func(ids.Alert) {}); err != nil {
			return nil, err
		}
	} else {
		set, err := patterns.ParseRules(bytes.NewReader(text), patterns.ParseOptions{})
		if err != nil {
			return nil, err
		}
		if eng, err = ids.NewEngine(set, vpatch.Options{}, func(ids.Alert) {}); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if _, err := eng.WriteDB(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// daemon is one in-process vpatch-serve instance with one tenant and a
// raw-TCP ingest listener on loopback.
type daemon struct {
	srv      *serve.Server
	ln       net.Listener
	serveErr chan error
	db       []byte
}

// setupTimes splits one set-up: rule text to database, database to a
// loaded tenant, and the whole path to an accepting listener.
type setupTimes struct{ compile, load, total float64 }

// startDaemon performs one timed set-up.
func startDaemon(w workload, text []byte, onAlert func(string, uint64, ids.Alert)) (*daemon, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	db, err := compileDB(w, text)
	if err != nil {
		return nil, st, fmt.Errorf("compile: %w", err)
	}
	t1 := time.Now()
	srv := serve.New(serve.Config{TenantDefaults: tenantConfig(), OnAlert: onAlert})
	t, err := srv.CreateTenant(tenantName, serve.TenantConfig{})
	if err != nil {
		srv.Drain(time.Second)
		return nil, st, err
	}
	if _, err := t.Reload(db); err != nil {
		srv.Drain(time.Second)
		return nil, st, fmt.Errorf("reload: %w", err)
	}
	t2 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(time.Second)
		return nil, st, err
	}
	d := &daemon{srv: srv, ln: ln, serveErr: make(chan error, 1), db: db}
	go func() { d.serveErr <- srv.ServeIngest(ln) }()
	st = setupTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t0).Seconds()}
	return d, st, nil
}

// stop drains the daemon (every shard flushes, so every alert has been
// delivered when it returns) and waits for the ingest listener to exit.
func (d *daemon) stop() (serve.DrainReport, error) {
	rep := d.srv.Drain(60 * time.Second)
	d.ln.Close()
	err := <-d.serveErr
	return rep, err
}

// alertSink receives every alert from the shard goroutines and checks
// it against the oracle: got holds one bit per expected alert per lap, extra
// counts alerts the oracle does not expect (or duplicates). Alerts of
// open-loop segments record their detection latency.
type alertSink struct {
	o       *oracle
	lapSegs int64
	laps    int
	got     []atomic.Uint32 // bit set, laps * len(o.keys) bits
	extra   atomic.Int64
	spinNs  int64 // planted busy-wait per alert (self-check only)

	// Diagnostics of extra alerts: literal (pattern) alerts the oracle
	// does not expect, and duplicates of expected ones.
	extraLit, extraDup atomic.Int64

	// Open-loop schedule: segment g (global index, openG0 <= g < openG1)
	// was due at openT0 + (g-openG0)*period ns after the run epoch.
	openG0 atomic.Int64
	openG1 atomic.Int64
	openT0 atomic.Int64
	period float64

	// Latency samples: one expected alert in latStride (by alert
	// identity, not by timing) records its latency, which bounds the
	// buffers on alert-heavy workloads without biasing percentiles.
	latStride int
	latN      atomic.Int64
	latG      []int64   // global segment index of the completing segment
	latNs     []float64 // arrival minus due time
	latOvf    atomic.Int64
}

// latSamplesPerWindow is the detection samples a latency window should
// keep at least.
const latSamplesPerWindow = 20000

func newAlertSink(o *oracle, lapSegs, laps, openLaps int, rate float64, spinNs int64) *alertSink {
	perWindow := rate * latencyWindow.Seconds() * float64(len(o.keys)) / float64(lapSegs)
	stride := max(1, int(perWindow/latSamplesPerWindow))
	latCap := (openLaps+1)*len(o.keys)/stride + 1
	s := &alertSink{
		o: o, lapSegs: int64(lapSegs), laps: laps, spinNs: spinNs, period: 1e9 / rate,
		got:       make([]atomic.Uint32, (laps*len(o.keys)+31)/32),
		latStride: stride,
		latG:      make([]int64, latCap),
		latNs:     make([]float64, latCap),
	}
	s.openG0.Store(math.MaxInt64)
	s.openG1.Store(math.MaxInt64)
	return s
}

func (s *alertSink) onAlert(_ string, _ uint64, a ids.Alert) {
	now := mono()
	if s.spinNs > 0 {
		for mono()-now < s.spinNs {
		}
	}
	lap, flow := keyFlow(a.Flow)
	id := a.PatternID
	if a.RuleID >= 0 {
		id = ruleIDBase + a.RuleID
	}
	i := s.o.lookup(alertKey{flow: int32(flow), id: id, off: a.StreamOffset})
	switch {
	case i < 0 || lap < 0 || lap >= s.laps:
		s.extra.Add(1)
		if a.RuleID < 0 {
			s.extraLit.Add(1)
		}
		return
	case !s.mark(lap*len(s.o.keys) + i):
		s.extra.Add(1)
		s.extraDup.Add(1)
		return
	}
	g := int64(lap)*s.lapSegs + int64(s.o.done[i])
	g0 := s.openG0.Load()
	if g < g0 || g >= s.openG1.Load() || (lap*len(s.o.keys)+i)%s.latStride != 0 {
		return
	}
	due := s.openT0.Load() + int64(float64(g-g0)*s.period)
	n := s.latN.Add(1) - 1
	if n >= int64(len(s.latG)) {
		s.latOvf.Add(1)
		return
	}
	s.latG[n] = g
	s.latNs[n] = float64(now - due)
}

// mark records expected alert bit i, reporting false for a duplicate.
func (s *alertSink) mark(i int) bool {
	w, bit := &s.got[i/32], uint32(1)<<(i%32)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

func (s *alertSink) seen(i int) bool { return s.got[i/32].Load()&(uint32(1)<<(i%32)) != 0 }

// tally compares the alerts of the first laps laps with the oracle.
func (s *alertSink) tally(laps int) (expected, missing, extra int64) {
	n := len(s.o.keys)
	for i := 0; i < laps*n; i++ {
		if !s.seen(i) {
			missing++
		}
	}
	for i := laps * n; i < s.laps*n; i++ {
		if s.seen(i) {
			extra++ // alerts of laps that were never sent
		}
	}
	return int64(laps * n), missing, extra + s.extra.Load()
}

// missingReport describes the expected alerts that never arrived: how
// many per lap, and how many are rule alerts or belong to evasive flows.
func (s *alertSink) missingReport(laps int, tr *lapTrace) string {
	n := len(s.o.keys)
	perLap := make([]int, laps)
	var rule, evasive, total int
	var sample []string
	for i := 0; i < laps*n; i++ {
		if s.seen(i) {
			continue
		}
		k := s.o.keys[i%n]
		total++
		perLap[i/n]++
		if k.id >= ruleIDBase {
			rule++
		}
		if tr.evasive[k.flow] {
			evasive++
		}
		if len(sample) < 5 {
			sample = append(sample, fmt.Sprintf("lap %d flow %d id %d off %d", i/n, k.flow, k.id, k.off))
		}
	}
	return fmt.Sprintf("missing %d (rule %d, evasive flows %d) per lap %v, e.g. %v; extra literal %d, duplicate %d",
		total, rule, evasive, perLap, sample, s.extraLit.Load(), s.extraDup.Load())
}

// openLatencies returns the detection latencies (ms) of alerts whose
// completing segment was sent inside the open-loop window [g0, g1),
// grouped by the latencyWindow of the open loop their segment was due
// in.
func (s *alertSink) openLatencies(g0, g1 int64) [][]float64 {
	n := s.latN.Load()
	if n > int64(len(s.latG)) {
		n = int64(len(s.latG))
	}
	perWin := int64(float64(latencyWindow) / s.period)
	out := make([][]float64, (g1-g0+perWin-1)/perWin)
	for i := int64(0); i < n; i++ {
		if g := s.latG[i]; g >= g0 && g < g1 {
			w := (g - g0) / perWin
			out[w] = append(out[w], s.latNs[i]/1e6)
		}
	}
	return out
}

// sender replays the lap over one ingest connection.
type sender struct {
	conn    net.Conn
	tr      *lapTrace
	maxLaps int
	lap     int   // lap being sent
	i       int   // next segment of the lap
	g       int64 // global index of the next segment
	payload int64 // payload bytes sent
}

// sendN sends the next n segments (n never crosses the lap end), each
// stamped with the capture timestamp micros.
func (s *sender) sendN(n int, micros uint64) error {
	if s.i == 0 {
		if s.lap >= s.maxLaps {
			return errLapsExhausted
		}
		s.tr.patchLap(s.lap)
	}
	if rest := len(s.tr.segs) - s.i; n > rest {
		n = rest
	}
	j := s.i + n
	s.tr.patchTs(s.i, j, micros)
	if _, err := s.conn.Write(s.tr.frames[s.tr.offs[s.i]:s.tr.offs[j]]); err != nil {
		return fmt.Errorf("ingest write: %w", err)
	}
	s.payload += s.tr.segBytes[j] - s.tr.segBytes[s.i]
	s.g += int64(n)
	s.i = j
	if s.i == len(s.tr.segs) {
		s.i = 0
		s.lap++
	}
	return nil
}

var errLapsExhausted = fmt.Errorf("lap budget exhausted")

// windowBytes is the closed loop's bound on payload bytes sent but not
// yet dispatched by the scheduler: far below the scheduler's 4 MiB
// per-tenant queue bound, so the closed loop never sheds.
const windowBytes = 1 << 20

// closedStep sends one window-limited chunk, or waits briefly when the
// window is full. It returns false when the lap budget is exhausted.
func (s *sender) closedStep(srv *serve.Server) (bool, error) {
	inflight := s.payload - int64(srv.SchedStats(tenantName).DispatchedBytes)
	if inflight >= windowBytes {
		time.Sleep(200 * time.Microsecond)
		return true, nil
	}
	n, room := 0, windowBytes-inflight
	for k := s.i; k < len(s.tr.segs) && n < 256; k++ {
		room -= int64(s.tr.segs[k].n)
		n++
		if room <= 0 {
			break
		}
	}
	err := s.sendN(n, uint64(mono()/1000))
	if err == errLapsExhausted {
		return false, nil
	}
	return err == nil, err
}

// phaseSampler polls scheduler and heap gauges while the load runs.
type phaseSampler struct {
	srv  *serve.Server
	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	scanT    []int64 // closed-loop scanned-bytes samples
	scanB    []float64
	queued   []float64 // open-loop scheduler backlog samples
	phase    int
	livePeak uint64
	pendPeak float64
	stealT   []int64     // host CPU tick samples
	steal    [][2]uint64 // stolen, total
}

// stealFrac is the share of host CPU ticks stolen by the hypervisor
// between monotonic times t0 and t1 (0 without samples).
func (p *phaseSampler) stealFrac(t0, t1 int64) float64 {
	i := sort.Search(len(p.stealT), func(i int) bool { return p.stealT[i] >= t0 })
	j := sort.Search(len(p.stealT), func(i int) bool { return p.stealT[i] >= t1 })
	if j >= len(p.stealT) {
		j = len(p.stealT) - 1
	}
	if i >= j {
		return 0
	}
	return ratio(float64(p.steal[j][0]-p.steal[i][0]), float64(p.steal[j][1]-p.steal[i][1]))
}

func startSampler(srv *serve.Server) *phaseSampler {
	p := &phaseSampler{srv: srv, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.run()
	return p
}

// run samples the scheduler backlog every 10 ms and the /metrics page
// (scanned bytes, out-of-order bytes) every 50 ms.
func (p *phaseSampler) run() {
	defer p.wg.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		p.mu.Lock()
		phase := p.phase
		p.mu.Unlock()
		var gauges map[string]float64
		if n%5 == 0 {
			gauges = scrape(p.srv)
		}
		queued := p.srv.SchedStats(tenantName).QueuedBytes
		p.mu.Lock()
		if phase == phaseOpen {
			p.queued = append(p.queued, float64(queued))
		}
		if gauges != nil {
			if phase == phaseClosed {
				p.scanT = append(p.scanT, mono())
				p.scanB = append(p.scanB, gauges["vpatch_scanned_bytes_total"])
			}
			p.pendPeak = math.Max(p.pendPeak, gauges["vpatch_reasm_pending_bytes"])
			if st, tot, ok := cpuTicks(); ok {
				p.stealT = append(p.stealT, mono())
				p.steal = append(p.steal, [2]uint64{st, tot})
			}
		}
		p.mu.Unlock()
		p.noteLive()
	}
}

// noteLive folds the live heap the last GC found into the peak.
func (p *phaseSampler) noteLive() {
	live := heapLive()
	p.mu.Lock()
	if live > p.livePeak {
		p.livePeak = live
	}
	p.mu.Unlock()
}

// Sampler phases: open-loop samples feed the backlog percentile,
// closed-loop samples the capacity figure.
const (
	phaseOpen = iota
	phaseClosed
	phaseDone
)

func (p *phaseSampler) setPhase(ph int) {
	p.mu.Lock()
	p.phase = ph
	p.mu.Unlock()
}

func (p *phaseSampler) finish() {
	close(p.stop)
	p.wg.Wait()
}

// scanRate is the closed loop's processing rate in scanned bytes per
// second: the median over half-second intervals, skipping the first
// (pipeline fill).
func (p *phaseSampler) scanRate() (rates, steal []float64) {
	const interval = 500 * time.Millisecond
	start := 0
	for i := 1; i < len(p.scanT); i++ {
		if dt := p.scanT[i] - p.scanT[start]; dt >= int64(interval) {
			rates = append(rates, (p.scanB[i]-p.scanB[start])/(float64(dt)/1e9))
			steal = append(steal, p.stealFrac(p.scanT[start], p.scanT[i]))
			start = i
		}
	}
	if len(rates) > 1 {
		rates, steal = rates[1:], steal[1:]
	}
	return rates, steal
}

// daemonResult is everything one untraced daemon run measured.
type daemonResult struct {
	setups                   []setupTimes
	detect                   []float64   // open-loop detection latencies, ms
	detectWin                [][]float64 // the same, per second of the open loop
	winSteal                 []float64   // host steal share per latency window
	capRates, capSteal       []float64   // closed-loop interval rates (B/s) and their steal share
	lag                      []float64   // open-loop sender lateness, ms
	cpuNsPerByte             float64
	cpuNsPerSeg              float64
	memPeakMB                float64
	segsOffered, segsShed    int64
	expected, missing, extra int64
	openSegs, openBytes      int64
	queuedP99                float64
	pendPeak                 float64
	allocPerSeg, gcCPUFrac   float64
	counts                   map[string]float64
	latOverflow              int64
	laps                     int
	regexAlerts              int64
	drainClean               bool
	failures                 string // diagnosis of a run with failures
	db                       []byte
}

// setupRepeats is how many set-ups one run times; the last one serves
// the load.
const setupRepeats = 9

// latencyWindow splits the open loop for detection percentiles.
const latencyWindow = 500 * time.Millisecond

// runDaemon performs the set-ups, the closed-loop phase (closedDur) and
// the open-loop phase (openDur) and checks every alert.
func runDaemon(w workload, text []byte, tr *lapTrace, o *oracle, closedDur, openDur time.Duration, spinNs int64) (*daemonResult, error) {
	res := &daemonResult{}
	period := 1e9 / w.rate
	capGuess := 4 * w.rate // segments/s the lap budget allows in the closed loop
	openLaps := int(math.Ceil(w.rate*openDur.Seconds()/float64(len(tr.segs)))) + 1
	lapBudget := int(math.Ceil(capGuess*closedDur.Seconds()/float64(len(tr.segs)))) + openLaps
	if lapBudget > maxLaps {
		lapBudget = maxLaps
	}
	sink := newAlertSink(o, len(tr.segs), lapBudget, openLaps, w.rate, spinNs)
	res.lag = make([]float64, 0, int(w.rate*openDur.Seconds())+1024)

	var d *daemon
	for r := 0; r < setupRepeats; r++ {
		dd, st, err := startDaemon(w, text, sink.onAlert)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, st)
		if r < setupRepeats-1 {
			if _, err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	res.db = d.db

	conn, err := serve.DialIngest(d.ln.Addr().String(), tenantName)
	if err != nil {
		d.stop()
		return nil, err
	}
	s := &sender{conn: conn, tr: tr, maxLaps: lapBudget}
	fail := func(err error) (*daemonResult, error) {
		conn.Close()
		d.stop()
		return nil, err
	}

	// The memory baseline: inputs, reference and an idle daemon. The
	// live heap is read at every GC the load triggers, plus one forced
	// at the end of each phase, outside the timed windows.
	forceGC()
	base := heapLive()
	smp := startSampler(d.srv)

	// Open loop first, from an idle pipeline: segment g is due at
	// t0 + (g-g0)*period and is sent when due, whatever the daemon's
	// state.
	smp.setPhase(phaseOpen)
	g0, t0 := s.g, mono()
	sink.openT0.Store(t0)
	sink.openG0.Store(g0)
	end := t0 + int64(openDur)
	ru0, rt0 := cpuNanos(), readRuntime()
	for {
		due := t0 + int64(float64(s.g-g0)*period)
		if due >= end {
			break
		}
		now := mono()
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = mono()
		}
		n := int64(float64(now-t0)/period) - (s.g - g0) + 1
		if lim := int64((float64(end-t0) + period - 1) / period); s.g-g0+n > lim {
			n = lim - (s.g - g0)
		}
		if n < 1 {
			n = 1
		}
		if rest := int64(len(tr.segs) - s.i); n > rest {
			n = rest
		}
		for k := int64(0); k < n; k++ {
			res.lag = append(res.lag, float64(now-(t0+int64(float64(s.g-g0+k)*period)))/1e6)
		}
		b0 := s.payload
		if err := s.sendN(int(n), uint64(now/1000)); err != nil {
			smp.finish()
			return fail(err)
		}
		res.openBytes += s.payload - b0
	}
	g1 := s.g
	sink.openG1.Store(g1)
	res.openSegs = g1 - g0
	ru1, rt1 := cpuNanos(), readRuntime()
	res.cpuNsPerByte = float64(ru1-ru0) / float64(res.openBytes)
	res.cpuNsPerSeg = float64(ru1-ru0) / float64(res.openSegs)
	res.allocPerSeg = (rt1.allocBytes - rt0.allocBytes) / float64(res.openSegs)
	if dc := rt1.totalCPU - rt0.totalCPU; dc > 0 {
		res.gcCPUFrac = (rt1.gcCPU - rt0.gcCPU) / dc
	}
	smp.setPhase(phaseClosed)
	runtime.GC()
	smp.noteLive()

	// Closed loop: keep windowBytes ahead of the scheduler's dispatch.
	closedEnd := mono() + int64(closedDur)
	for mono() < closedEnd && !(s.i == 0 && s.lap >= lapBudget) {
		if _, err := s.closedStep(d.srv); err != nil {
			smp.finish()
			return fail(err)
		}
	}
	smp.setPhase(phaseDone)
	runtime.GC()
	smp.noteLive()
	smp.finish()

	// Finish the lap so every flow closes, then hang up: the ingest
	// loop flushes on EOF and the drain delivers every buffered alert.
	for s.i != 0 {
		if ok, err := s.closedStep(d.srv); err != nil {
			return fail(err)
		} else if !ok {
			break
		}
	}
	res.laps = s.lap
	conn.Close()
	// Drain only once the ingest connection has consumed every frame:
	// a draining daemon stops reading at the connection's next idle
	// poll, and frames still in the socket then never arrive.
	for deadline := mono() + int64(time.Minute); mono() < deadline; time.Sleep(time.Millisecond) {
		if st := d.srv.SchedStats(tenantName); int64(st.DispatchedBytes+st.DroppedBytes) >= s.payload {
			break
		}
	}
	rep, err := d.stop()
	if err != nil {
		return nil, fmt.Errorf("ingest listener: %w", err)
	}
	res.drainClean = rep.Clean

	res.counts = scrape(d.srv)
	sched := d.srv.SchedStats(tenantName)
	res.segsOffered = s.g
	meanSeg := float64(tr.payload) / float64(len(tr.segs))
	unread := s.payload - int64(sched.DispatchedBytes+sched.DroppedBytes) // never reached the scheduler
	res.segsShed = int64(math.Ceil(float64(sched.DroppedBytes+uint64(max(unread, 0)))/meanSeg)) +
		int64(math.Ceil(res.counts["vpatch_reasm_dropped_bytes_total"]/meanSeg)) +
		int64(res.counts["vpatch_quota_rejected_total"])
	res.expected, res.missing, res.extra = sink.tally(s.lap)
	if res.missing+res.extra+res.segsShed > 0 {
		res.failures = sink.missingReport(s.lap, tr) + fmt.Sprintf(
			"; %d B sent but never read by the ingest loop, scheduler dropped %d B, reassembler dropped %d B, "+
				"residual out-of-order %d B, gap skips %.0f, evicted %.0f, budget exhausted %.0f, degraded flows %.0f, panics %.0f",
			unread, sched.DroppedBytes, int64(res.counts["vpatch_reasm_dropped_bytes_total"]),
			rep.Tenants[tenantName].ResidualPendingBytes, res.counts["vpatch_gap_skips_total"],
			res.counts["vpatch_flows_evicted_total"], res.counts["vpatch_verifier_budget_exhausted_total"],
			res.counts["vpatch_degraded_flows_total"], res.counts["vpatch_panics_recovered_total"])
	}
	res.regexAlerts = int64(o.regex * s.lap)
	res.detectWin = sink.openLatencies(g0, g1)
	for i, w := range res.detectWin {
		res.detect = append(res.detect, w...)
		w0 := t0 + int64(i)*int64(latencyWindow)
		res.winSteal = append(res.winSteal, smp.stealFrac(w0, w0+int64(latencyWindow)))
	}
	res.latOverflow = sink.latOvf.Load()
	// Scanned bytes include each flow's carry; scale the scan rate to
	// payload bytes by the run's own payload/scanned ratio.
	if scanned := res.counts["vpatch_scanned_bytes_total"]; scanned > 0 {
		rates, steal := smp.scanRate()
		for i := range rates {
			rates[i] *= float64(s.payload) / scanned
		}
		res.capRates, res.capSteal = rates, steal
	}
	res.queuedP99 = percentile(smp.queued, 99)
	res.pendPeak = smp.pendPeak
	res.memPeakMB = (float64(smp.livePeak) - float64(base)) / (1 << 20)
	return res, nil
}
