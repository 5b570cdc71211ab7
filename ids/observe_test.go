package ids

// Tests for the resident-service surfaces: concurrent one-shot
// ScanBuffer, the dispatcher's race-safe observer, and FlushAll.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vpatch"
	"vpatch/internal/netsim"
)

func TestScanBufferRoutesAndMapsIDs(t *testing.T) {
	set := mixedRuleSet()
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("GET / http-attack-xyz and generic-bad-001 plus dns-poison-abc")

	type hit struct {
		id  int32
		pos int64
	}
	scan := func(port uint16) []hit {
		var hits []hit
		n := e.ScanBuffer(port, buf, nil, func(id int32, pos int64) {
			hits = append(hits, hit{id, pos})
		})
		if n != len(hits) {
			t.Fatalf("ScanBuffer returned %d, emitted %d", n, len(hits))
		}
		return hits
	}

	// Port 80: HTTP group = HTTP rules + generic rules. The DNS pattern
	// in the buffer must not match.
	got := map[int32]bool{}
	for _, h := range scan(80) {
		got[h.id] = true
		p := set.Pattern(h.id)
		if string(buf[h.pos:h.pos+int64(p.Len())]) != string(p.Data) {
			t.Fatalf("pattern %d reported at %d does not match buffer", h.id, h.pos)
		}
	}
	if !got[0] || !got[2] || got[1] {
		t.Fatalf("HTTP-port scan hit rules %v, want {0,2} without 1", got)
	}

	// Unclassified port: generic group only.
	got = map[int32]bool{}
	for _, h := range scan(12345) {
		got[h.id] = true
	}
	if len(got) != 1 || !got[2] {
		t.Fatalf("generic scan hit %v, want only generic rule 2", got)
	}
}

// TestScanBufferConcurrent: ScanBuffer must be callable from many
// goroutines against one engine (run under -race).
func TestScanBufferConcurrent(t *testing.T) {
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("xx http-attack-xyz yy generic-bad-001 zz")
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c vpatch.Counters
			for i := 0; i < 200; i++ {
				total.Add(int64(e.ScanBuffer(80, buf, &c, nil)))
			}
			if c.Matches != 400 {
				t.Errorf("per-goroutine counters saw %d matches, want 400", c.Matches)
			}
		}()
	}
	wg.Wait()
	if total.Load() != 8*200*2 {
		t.Fatalf("total matches %d, want %d", total.Load(), 8*200*2)
	}
}

// TestDispatcherObserver: counters and flow stats published through the
// observer must be scrapeable during ingestion (race-free) and agree
// with the final merged stats after Close.
func TestDispatcherObserver(t *testing.T) {
	set := mixedRuleSet()
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	streams := map[netsim.FlowKey][]byte{}
	for i := 0; i < 40; i++ {
		streams[key(i, 80)] = []byte(fmt.Sprintf("flow %d has http-attack-xyz inside padding padding", i))
	}
	segs := netsim.Packetize(streams, netsim.PacketizeOptions{MTU: 24, Seed: 3, FIN: true})

	var alerts atomic.Int64
	d := e.NewDispatcher(3, netsim.Limits{}, func(Alert) { alerts.Add(1) })
	obs := d.Observe()
	if d.Observe() != obs {
		t.Fatal("Observe must be idempotent")
	}

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		var prev uint64
		for {
			c := obs.Counters()
			if c.BytesScanned < prev {
				t.Errorf("observed BytesScanned went backwards: %d after %d", c.BytesScanned, prev)
			}
			prev = c.BytesScanned
			obs.FlowStats()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for _, s := range segs {
		d.Handle(s)
	}
	st := d.Close()
	close(stop)
	scrapes.Wait()

	if alerts.Load() != 40 {
		t.Fatalf("alerts = %d, want 40", alerts.Load())
	}
	c := obs.Counters()
	if c.Matches == 0 || c.BytesScanned == 0 {
		t.Fatalf("observer saw no scan activity: %+v", c)
	}
	fs := obs.FlowStats()
	if fs.FlowsClosed != st.FlowsClosed {
		t.Fatalf("observer FlowsClosed=%d, Close reported %d", fs.FlowsClosed, st.FlowsClosed)
	}
	// Close is idempotent from any goroutine.
	if st2 := d.Close(); st2.FlowsClosed != st.FlowsClosed {
		t.Fatalf("second Close reported different stats: %+v vs %+v", st2, st)
	}
}

// TestDispatcherFlushAll: alerts held back by batch watermarks must
// surface after FlushAll, without closing the dispatcher.
func TestDispatcherFlushAll(t *testing.T) {
	set := mixedRuleSet()
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	var alerts atomic.Int64
	d := e.NewDispatcher(2, netsim.Limits{}, func(Alert) { alerts.Add(1) })

	// One small in-order segment per flow: far below the default
	// watermarks, so nothing flushes on its own. No FIN, flows stay
	// open.
	for i := 0; i < 6; i++ {
		d.Handle(netsim.Segment{
			Flow:    key(i, 80),
			Payload: []byte("hit http-attack-xyz here"),
		})
	}
	d.FlushAll()
	if alerts.Load() != 6 {
		t.Fatalf("after FlushAll: %d alerts, want 6", alerts.Load())
	}
	// Ingest continues after a flush.
	d.Handle(netsim.Segment{Flow: key(99, 80), Payload: []byte("http-attack-xyz")})
	d.FlushAll()
	if alerts.Load() != 7 {
		t.Fatalf("after second FlushAll: %d alerts, want 7", alerts.Load())
	}
	d.Close()
	if alerts.Load() != 7 {
		t.Fatalf("Close duplicated alerts: %d", alerts.Load())
	}
	d.FlushAll() // no-op after Close, must not hang or panic
}

// TestObserverScanCountsMatchInstrumented: an observed dispatcher keeps
// its shards on the native kernel and counts BytesScanned and Matches
// itself. Both figures must equal an InstrumentCounters run over the
// same segments, kernel-only counters must stay zero in the observer,
// and attaching both must count no scan twice.
func TestObserverScanCountsMatchInstrumented(t *testing.T) {
	literal, err := NewEngine(mixedRuleSet(), vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	ruleDB, err := NewRuleEngine(parseRules(t, 0,
		`alert tcp any any -> any 80 (msg:"probe"; content:"GET /"; depth:16; content:"admin"; nocase; distance:0; within:64; sid:1;)`,
		`alert tcp any any -> any 80 (msg:"tok"; content:"token="; pcre:"/[0-9a-f]{8}/"; sid:2;)`,
	), vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	streams := map[netsim.FlowKey][]byte{}
	for i := 0; i < 60; i++ {
		streams[key(i, 80)] = []byte(fmt.Sprintf(
			"GET /aDmIn/%d http-attack-xyz token=deadbeef%02x generic-bad-001 tail http-attack-xyz", i, i))
		streams[key(100+i, 53)] = []byte(fmt.Sprintf("dns-poison-abc %d generic-bad-001", i))
	}
	segs := netsim.Packetize(streams, netsim.PacketizeOptions{MTU: 16, Jitter: 3, Seed: 11, FIN: true})

	type run struct {
		obs, instr vpatch.Counters
		alerts     int64
	}
	dispatch := func(e *Engine, shards int, observe, instrument bool) run {
		var alerts atomic.Int64
		d := e.NewDispatcher(shards, netsim.Limits{}, func(Alert) { alerts.Add(1) })
		var o *PipelineObserver
		var cs []*vpatch.Counters
		if observe {
			o = d.Observe()
		}
		if instrument {
			cs = d.InstrumentCounters()
		}
		for _, s := range segs {
			d.Handle(s)
		}
		d.Close()
		r := run{alerts: alerts.Load()}
		if o != nil {
			r.obs = o.Counters()
		}
		for _, c := range cs {
			r.instr.Add(c)
		}
		return r
	}

	for _, tc := range []struct {
		name string
		e    *Engine
	}{{"literal", literal}, {"rules", ruleDB}} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				obs := dispatch(tc.e, shards, true, false)
				instr := dispatch(tc.e, shards, false, true)
				both := dispatch(tc.e, shards, true, true)

				want := instr.instr
				if want.BytesScanned == 0 || want.Matches == 0 || want.Filter1Probes == 0 {
					t.Fatalf("instrumented run saw no kernel work: %+v", want)
				}
				if obs.alerts != instr.alerts || both.alerts != instr.alerts {
					t.Fatalf("alerts: observed %d, instrumented %d, both %d",
						obs.alerts, instr.alerts, both.alerts)
				}
				for _, got := range []struct {
					what string
					c    vpatch.Counters
				}{{"observer", obs.obs}, {"observer beside SetCounters", both.obs}, {"SetCounters beside observer", both.instr}} {
					if got.c.BytesScanned != want.BytesScanned || got.c.Matches != want.Matches {
						t.Errorf("%s: BytesScanned=%d Matches=%d, instrumented run counted %d and %d",
							got.what, got.c.BytesScanned, got.c.Matches, want.BytesScanned, want.Matches)
					}
					if got.c.RuleAlerts != want.RuleAlerts {
						t.Errorf("%s: RuleAlerts=%d, instrumented run counted %d",
							got.what, got.c.RuleAlerts, want.RuleAlerts)
					}
				}
				if tc.e.rules != nil && want.RuleAlerts == 0 {
					t.Fatal("rule database fired no rule alert")
				}
				for _, o := range []vpatch.Counters{obs.obs, both.obs} {
					if o.Filter1Probes != 0 || o.BatchIters != 0 {
						t.Errorf("observer reports kernel-only counters: Filter1Probes=%d BatchIters=%d",
							o.Filter1Probes, o.BatchIters)
					}
				}
				if both.instr.Filter1Probes != want.Filter1Probes {
					t.Errorf("SetCounters beside an observer: Filter1Probes=%d, alone %d",
						both.instr.Filter1Probes, want.Filter1Probes)
				}
			})
		}
	}
}
