package netsim

// Tests for closed-flow tombstones: the compact (key, teardown time)
// records a closed flow leaves behind, held in a set plus a
// teardown-ordered FIFO instead of the open-flow map and LRU list.

import (
	"math/rand"
	"runtime"
	"testing"
)

func tombFlow(i int) FlowKey { return FlowKey{SrcIP: uint32(i), DstIP: 2, SrcPort: 3, DstPort: 4} }

// isTracked reports whether r holds k as an open flow or a tombstone.
func isTracked(r *Reassembler, k FlowKey) bool {
	_, open := r.flows[k]
	_, closed := r.tombs[k]
	return open || closed
}

// TestTombstoneDropsLateSegments: after FIN or RST teardown, late
// retransmits and control segments are dropped (payload bytes counted
// in BytesDropped), reach neither the sink nor the close hook, and
// create no state.
func TestTombstoneDropsLateSegments(t *testing.T) {
	var delivered int
	closes := 0
	r := NewReassembler(func(_ FlowKey, p []byte) { delivered += len(p) })
	r.OnClose(func(FlowKey, bool) { closes++ })

	r.Add(Segment{Flow: tombFlow(1), Payload: []byte("abcd"), Flags: FlagFIN, TsMicros: 1})
	r.Add(Segment{Flow: tombFlow(2), Payload: []byte("xy"), TsMicros: 2})
	r.Add(Segment{Flow: tombFlow(2), Seq: 2, Payload: []byte("zz"), Flags: FlagRST, TsMicros: 3})
	st := r.Stats()
	if delivered != 6 || closes != 2 || st.FlowsClosed != 2 || st.BytesDropped != 2 {
		t.Fatalf("teardown: delivered=%d closes=%d stats=%+v", delivered, closes, st)
	}

	late := []Segment{
		{Flow: tombFlow(1), Payload: []byte("abcd")},               // full retransmit
		{Flow: tombFlow(1), Seq: 2, Payload: []byte("cdef")},       // overlapping tail
		{Flow: tombFlow(1), Flags: FlagFIN},                        // bare FIN
		{Flow: tombFlow(2), Seq: 4, Payload: []byte("more")},       // data after RST
		{Flow: tombFlow(2), Flags: FlagRST, Payload: []byte("rr")}, // RST with payload
		{Flow: tombFlow(2)},                                        // bare ACK
	}
	drop := 0
	for i, s := range late {
		s.TsMicros = uint64(10 + i)
		r.Add(s)
		drop += len(s.Payload)
	}
	got := r.Stats()
	if delivered != 6 || closes != 2 {
		t.Fatalf("late segments reached the pipeline: delivered=%d closes=%d", delivered, closes)
	}
	if got.BytesDropped != st.BytesDropped+uint64(drop) {
		t.Fatalf("BytesDropped = %d, want %d", got.BytesDropped, st.BytesDropped+uint64(drop))
	}
	if got.Flows != 2 || got.FlowsClosed != 2 || len(r.flows) != 0 {
		t.Fatalf("late segments changed flow state: %+v, %d open", got, len(r.flows))
	}
}

// TestTombstonesCountAsFlows: Stats.Flows, Flows and PeakFlows count
// tombstones alongside open flows.
func TestTombstonesCountAsFlows(t *testing.T) {
	r := NewReassembler(func(FlowKey, []byte) {})
	r.SetLimits(Limits{IdleTimeoutMicros: 100})
	for i := 0; i < 3; i++ {
		r.Add(Segment{Flow: tombFlow(i), Payload: []byte("x"), Flags: FlagFIN, TsMicros: 10})
	}
	for i := 3; i < 5; i++ {
		r.Add(Segment{Flow: tombFlow(i), Payload: []byte("x"), TsMicros: 20})
	}
	if st := r.Stats(); st.Flows != 5 || st.PeakFlows != 5 || r.Flows() != 5 {
		t.Fatalf("3 tombstones + 2 open: stats %+v, Flows() %d", st, r.Flows())
	}
	// The tombstones expire first (teardown at 10); the open flows stay.
	r.Add(Segment{Flow: tombFlow(3), Seq: 1, Payload: []byte("y"), TsMicros: 115})
	if st := r.Stats(); st.Flows != 2 || st.PeakFlows != 5 || st.FlowsEvicted != 0 {
		t.Fatalf("after tombstone expiry: %+v", st)
	}
}

// TestTombstoneClockExpiry: a tombstone expires once the capture clock
// passes its teardown time by the idle timeout — not before, and
// unrefreshed by retransmits — after which the key opens a new stream.
func TestTombstoneClockExpiry(t *testing.T) {
	var out []byte
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.SetLimits(Limits{IdleTimeoutMicros: 1000})
	r.Add(Segment{Flow: tombFlow(1), Payload: []byte("one"), Flags: FlagFIN, TsMicros: 500})
	r.Add(Segment{Flow: tombFlow(1), Payload: []byte("one"), TsMicros: 1400}) // retransmit
	r.Add(Segment{Flow: tombFlow(2), Payload: []byte("-"), TsMicros: 1500})   // exactly the timeout
	if !isTracked(r, tombFlow(1)) {
		t.Fatal("tombstone expired at exactly the idle timeout")
	}
	r.Add(Segment{Flow: tombFlow(2), Seq: 1, Payload: []byte("-"), TsMicros: 1501})
	if isTracked(r, tombFlow(1)) {
		t.Fatal("tombstone outlived the idle timeout")
	}
	// The key is free again: a new stream from offset 0 is delivered.
	r.Add(Segment{Flow: tombFlow(1), Payload: []byte("two"), TsMicros: 1600})
	if string(out) != "one--two" {
		t.Fatalf("delivered %q", out)
	}
	if st := r.Stats(); st.Flows != 2 || st.BytesDropped != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// lifecycleModel is the reference lifecycle of a reassembler that keeps
// closed flows in its LRU list: one list of open and closed entries in
// activity order, a teardown marking the entry closed in place. It
// covers single-segment, in-order traffic.
type lifecycleModel struct {
	lim     Limits
	now     uint64
	list    []*modelEntry // least recently active first
	peak    int
	closed  uint64
	evicted []FlowKey
	dropped uint64
}

type modelEntry struct {
	key    FlowKey
	lastTs uint64
	next   uint32
	closed bool
}

func (m *lifecycleModel) find(k FlowKey) (int, *modelEntry) {
	for i, e := range m.list {
		if e.key == k {
			return i, e
		}
	}
	return -1, nil
}

func (m *lifecycleModel) popHead() {
	if e := m.list[0]; !e.closed {
		m.evicted = append(m.evicted, e.key)
	}
	m.list = m.list[1:]
}

func (m *lifecycleModel) expire() {
	for m.lim.IdleTimeoutMicros > 0 && len(m.list) > 0 && m.now-m.list[0].lastTs > m.lim.IdleTimeoutMicros {
		m.popHead()
	}
}

// seq returns the offset the flow's next in-order segment starts at.
func (m *lifecycleModel) seq(k FlowKey) uint32 {
	if _, e := m.find(k); e != nil && !e.closed {
		return e.next
	}
	return 0
}

func (m *lifecycleModel) add(s Segment) {
	if s.TsMicros > m.now {
		m.now = s.TsMicros
	}
	i, e := m.find(s.Flow)
	switch {
	case e == nil:
		if s.Flags&FlagRST != 0 || len(s.Payload) == 0 {
			return
		}
		m.expire()
		for m.lim.MaxFlows > 0 && len(m.list) >= m.lim.MaxFlows {
			m.popHead()
		}
		e = &modelEntry{key: s.Flow, lastTs: m.now}
		m.list = append(m.list, e)
		if len(m.list) > m.peak {
			m.peak = len(m.list)
		}
	case e.closed:
		m.dropped += uint64(len(s.Payload))
		m.expire()
		return
	default:
		e.lastTs = m.now
		m.list = append(append(m.list[:i:i], m.list[i+1:]...), e)
		m.expire()
	}
	if s.Flags&FlagRST != 0 {
		m.dropped += uint64(len(s.Payload))
		e.closed = true
		m.closed++
		return
	}
	e.next += uint32(len(s.Payload))
	if s.Flags&FlagFIN != 0 {
		e.closed = true
		m.closed++
	}
}

// TestTombstoneCapEvictionOrder: on tables mixing open flows and
// tombstones, the flow cap and idle timeout remove exactly the entries
// a single activity-ordered list of both would, in the same order —
// including under equal timestamps, where only activity order decides.
func TestTombstoneCapEvictionOrder(t *testing.T) {
	// Hand case: flow 1 is touched after flow 2 closed, with one clock
	// value throughout. The tombstone is older, so it goes first.
	r := NewReassembler(func(FlowKey, []byte) {})
	r.SetLimits(Limits{MaxFlows: 2})
	r.Add(Segment{Flow: tombFlow(1), Payload: []byte("a")})
	r.Add(Segment{Flow: tombFlow(2), Payload: []byte("b"), Flags: FlagFIN})
	r.Add(Segment{Flow: tombFlow(1), Seq: 1, Payload: []byte("c")})
	r.Add(Segment{Flow: tombFlow(3), Payload: []byte("d")})
	if !isTracked(r, tombFlow(1)) || isTracked(r, tombFlow(2)) {
		t.Fatal("cap evicted the flow touched after the tombstone's teardown")
	}
	if st := r.Stats(); st.FlowsEvicted != 0 || st.Flows != 2 {
		t.Fatalf("stats %+v", st)
	}

	// Randomized: the reassembler against the reference model.
	const universe = 12
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lim := Limits{MaxFlows: 2 + rng.Intn(5)}
		if seed%2 == 0 {
			lim.IdleTimeoutMicros = uint64(5 + rng.Intn(30))
		}
		m := &lifecycleModel{lim: lim}
		var evicted []FlowKey
		r := NewReassembler(func(FlowKey, []byte) {})
		r.SetLimits(lim)
		r.OnClose(func(k FlowKey, ev bool) {
			if ev {
				evicted = append(evicted, k)
			}
		})
		ts := uint64(0)
		for step := 0; step < 400; step++ {
			ts += uint64(rng.Intn(3)) // frequent equal timestamps
			k := tombFlow(rng.Intn(universe))
			s := Segment{Flow: k, Seq: m.seq(k), Payload: []byte("p"), TsMicros: ts}
			switch x := rng.Intn(10); {
			case x < 2:
				s.Flags = FlagFIN
			case x < 3:
				s.Flags = FlagRST
			case x < 4:
				s.Payload = nil
			}
			m.add(s)
			r.Add(s)

			st := r.Stats()
			if st.Flows != len(m.list) || st.PeakFlows != m.peak || st.FlowsClosed != m.closed ||
				st.FlowsEvicted != uint64(len(m.evicted)) || st.BytesDropped != m.dropped {
				t.Fatalf("seed %d step %d: stats %+v, model flows=%d peak=%d closed=%d evicted=%d dropped=%d",
					seed, step, st, len(m.list), m.peak, m.closed, len(m.evicted), m.dropped)
			}
			for i := 0; i < universe; i++ {
				_, e := m.find(tombFlow(i))
				if isTracked(r, tombFlow(i)) != (e != nil) {
					t.Fatalf("seed %d step %d: flow %d tracked=%v, model %v",
						seed, step, i, isTracked(r, tombFlow(i)), e != nil)
				}
				if _, open := r.flows[tombFlow(i)]; e != nil && open == e.closed {
					t.Fatalf("seed %d step %d: flow %d open=%v, model closed=%v", seed, step, i, open, e.closed)
				}
			}
		}
		if len(evicted) != len(m.evicted) {
			t.Fatalf("seed %d: %d evictions, model %d", seed, len(evicted), len(m.evicted))
		}
		for i := range evicted {
			if evicted[i] != m.evicted[i] {
				t.Fatalf("seed %d: eviction %d was %v, model %v", seed, i, evicted[i], m.evicted[i])
			}
		}
	}
}

// TestTombstoneHeapBytes: a tombstone costs at most 48 heap bytes (its
// set entry plus its FIFO slot), measured over 200k closed flows.
func TestTombstoneHeapBytes(t *testing.T) {
	const n = 200_000
	r := NewReassembler(func(FlowKey, []byte) {})
	payload := []byte("x")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.Add(Segment{Flow: tombFlow(i), Payload: payload, Flags: FlagFIN, TsMicros: uint64(i)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := r.Stats(); st.Flows != n || st.FlowsClosed != n {
		t.Fatalf("stats %+v", st)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f heap bytes per tombstone", per)
	if per > 48 {
		t.Fatalf("%.1f heap bytes per tombstone, want <= 48", per)
	}
	runtime.KeepAlive(r)
}
