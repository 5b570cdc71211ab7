package main

// Workloads and their input generation. Everything the daemon sees is
// derived here from the run's seed: one "lap" of wire frames whose
// flows all open and close (FIN) inside the lap. The sender replays the
// lap as many times as a run needs, giving every lap fresh flow keys
// (the source port carries the lap number), so the reference alerts of
// one lap are the reference alerts of every lap.

import (
	"bytes"
	"fmt"
	"math/rand"

	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/serve"
	"vpatch/internal/traffic"
)

// workload is one benchmark input mix. rate is the open-loop phase's
// fixed offered load in segments per second: about half of the
// capacity the code measured on the reference host when the benchmark
// was written (see README.md). It is fixed here on purpose and never
// recomputed, so that a slower program shows up as a higher latency at
// the same load.
type workload struct {
	name     string
	db       string             // "s1" or "s2": the web-applicable literal set
	rules    bool               // rule-semantics database instead of a literal one
	mix      []traffic.MixEntry // segment payload sizes
	lapFlows int                // flows per lap
	flowPkts int                // mean packets per (normal) flow
	evasive  int                // every evasive-th flow is delivered evasively (0 = none)
	anchors  float64            // share of rule-workload stream bytes covered by injected anchor sites
	rate     float64            // open-loop segments per second
}

// concurrentFlows is how many flows a lap keeps open at once.
const concurrentFlows = 2000

// evasiveBytes is the stream length of an evasive flow: one short
// request, whose tiny, overlapping, reordered chunks already outnumber
// a normal flow's segments several times over.
const evasiveBytes = 512

var workloads = map[string]workload{
	"lit64_s1": {
		name: "lit64_s1", db: "s1",
		mix:      []traffic.MixEntry{{Size: 64, Weight: 1}},
		lapFlows: 5000, flowPkts: 12, rate: 26000,
	},
	"lit1460_s2": {
		name: "lit1460_s2", db: "s2",
		mix:      []traffic.MixEntry{{Size: 1460, Weight: 1}},
		lapFlows: 500, flowPkts: 8, rate: 1800,
	},
	"rules_evasive_imix": {
		name: "rules_evasive_imix", db: "s1", rules: true,
		mix:      traffic.SimpleIMIX,
		lapFlows: 2400, flowPkts: 8, evasive: 10, anchors: 0.02, rate: 22000,
	},
}

// dbSeed fixes the synthetic rule sets: the database is the deployed
// configuration, not part of the per-run input, so set-up time stays
// comparable across seeds.
const dbSeed = 1

// literalSet returns the workload's web-applicable literal set.
func literalSet(db string) *patterns.Set {
	if db == "s2" {
		return patterns.GenerateS2(dbSeed).WebSubset()
	}
	return patterns.GenerateS1(dbSeed).WebSubset()
}

// multiRules is the number of multi-content rules the rule workload
// adds on top of the single-content literal rules.
const multiRules = 16

// ruleText renders the workload's rule file: every literal as a
// single-content rule and, for the rule workload, multiRules rules that
// chain a nocase anchor, a distance/within-bound second content and an
// anchored pcre tail.
func ruleText(w workload, set *patterns.Set) []byte {
	var b bytes.Buffer
	for i := range set.Patterns() {
		fmt.Fprintln(&b, patterns.EncodeRule(&set.Patterns()[i], i+1))
	}
	if w.rules {
		for i := 0; i < multiRules; i++ {
			fmt.Fprintf(&b, "alert tcp any any -> any 80 (msg:\"bench multi %d\"; content:\"%s\"; nocase; "+
				"content:\"key=\"; distance:0; within:24; pcre:\"/[0-9a-f]{8}/\"; sid:%d;)\n",
				i, anchorWord(i), 900000+i)
		}
	}
	return b.Bytes()
}

func anchorWord(i int) string { return fmt.Sprintf("vpbench%02dx", i) }

// Flow key layout: the source IP numbers the flow within its lap and
// the source port numbers the lap.
const (
	flowIPBase  = 0x0A000000
	lapPortBase = 1024
	maxLaps     = 65535 - lapPortBase
	serverIP    = 0xC0A80050
)

func flowKey(lap, flow int) netsim.FlowKey {
	return netsim.FlowKey{SrcIP: uint32(flowIPBase + flow + 1), DstIP: serverIP,
		SrcPort: uint16(lapPortBase + lap), DstPort: 80}
}

// keyFlow inverts flowKey.
func keyFlow(k netsim.FlowKey) (lap, flow int) {
	return int(k.SrcPort) - lapPortBase, int(k.SrcIP) - flowIPBase - 1
}

// tseg is one segment of the lap, in send order.
type tseg struct {
	flow int32
	off  int32 // stream offset (the segment's Seq)
	n    int32 // payload bytes
	fin  bool
}

// lapTrace is one lap: segments in send order, their wire frames, and
// each flow's reassembled stream (the reference input).
type lapTrace struct {
	segs     []tseg
	frames   []byte
	offs     []int // frame i is frames[offs[i]:offs[i+1]]
	streams  [][]byte
	evasive  []bool
	payload  int64 // payload bytes per lap
	segBytes []int64
}

// Wire frame field offsets patched per lap and per send (see
// serve.AppendSegment: u32 length, u32 srcIP, u32 dstIP, u16 srcPort,
// u16 dstPort, u32 seq, u64 tsMicros, u8 flags).
const (
	frameSrcPort = 12
	frameTs      = 20
)

// buildLap generates the lap for workload w from seed.
func buildLap(w workload, set *patterns.Set, seed int64) *lapTrace {
	rng := rand.New(rand.NewSource(seed))
	// Every evasive-th flow is evasive; the others draw their packet
	// counts up front, so the packet generator makes exactly enough.
	tr := &lapTrace{evasive: make([]bool, w.lapFlows)}
	npkts := make([]int, w.lapFlows)
	total, nev := 0, 0
	for f := range npkts {
		if w.evasive > 0 && f%w.evasive == w.evasive-1 {
			tr.evasive[f] = true
			nev++
			continue
		}
		npkts[f] = 1 + rng.Intn(2*w.flowPkts-1)
		total += npkts[f]
	}
	pkts := traffic.Packets(traffic.ISCXDay2, w.mix, total, seed, set)
	requests := traffic.Synthesize(traffic.ISCXDay2, nev*evasiveBytes, seed+1, set)

	// Normal flows take consecutive packets of the synthesized traffic,
	// so each flow's stream reads like continuing sessions, one segment
	// per packet. Evasive flows take the next evasiveBytes of a separate
	// synthesized stream and deliver it through traffic.Evasive.
	flows := make([][]traffic.Chunk, w.lapFlows)
	for f := range flows {
		var stream []byte
		var sizes []int
		if tr.evasive[f] {
			stream = append(stream, requests[:evasiveBytes]...)
			requests = requests[evasiveBytes:]
		} else {
			for _, p := range pkts[:npkts[f]] {
				stream = append(stream, p...)
				sizes = append(sizes, len(p))
			}
			pkts = pkts[npkts[f]:]
		}
		if w.anchors > 0 {
			injectAnchors(stream, w.anchors, rng)
		}
		if tr.evasive[f] {
			flows[f] = traffic.Evasive(stream, rng.Int63())
		} else {
			off := 0
			for _, n := range sizes {
				flows[f] = append(flows[f], traffic.Chunk{Off: int64(off), Data: stream[off : off+n]})
				off += n
			}
			flows[f][len(flows[f])-1].Fin = true
		}
		tr.streams = append(tr.streams, stream)
	}

	// Interleave: concurrentFlows slots, each emitting its flow's chunks
	// in delivery order; a finished flow's slot takes the next flow.
	type slot struct{ flow, next int }
	slots := make([]slot, 0, concurrentFlows)
	queued := 0
	for queued < len(flows) && len(slots) < concurrentFlows {
		slots = append(slots, slot{flow: queued})
		queued++
	}
	for len(slots) > 0 {
		i := rng.Intn(len(slots))
		s := &slots[i]
		c := flows[s.flow][s.next]
		tr.segs = append(tr.segs, tseg{flow: int32(s.flow), off: int32(c.Off), n: int32(len(c.Data)), fin: c.Fin})
		s.next++
		if s.next == len(flows[s.flow]) {
			if queued < len(flows) {
				*s = slot{flow: queued}
				queued++
			} else {
				slots[i] = slots[len(slots)-1]
				slots = slots[:len(slots)-1]
			}
		}
	}

	tr.offs = make([]int, 0, len(tr.segs)+1)
	tr.segBytes = make([]int64, len(tr.segs)+1)
	for i, s := range tr.segs {
		tr.offs = append(tr.offs, len(tr.frames))
		seg := netsim.Segment{Flow: flowKey(0, int(s.flow)), Seq: uint32(s.off),
			Payload: tr.streams[s.flow][s.off : s.off+s.n]}
		if s.fin {
			seg.Flags = netsim.FlagFIN
		}
		tr.frames = serve.AppendSegment(tr.frames, seg)
		tr.payload += int64(s.n)
		tr.segBytes[i+1] = tr.payload
	}
	tr.offs = append(tr.offs, len(tr.frames))
	return tr
}

// injectAnchors overwrites random sites of stream with multi-rule
// anchor sites until about frac of its bytes are covered. Half of the
// sites carry a tail the rule's pcre accepts, half one it rejects.
func injectAnchors(stream []byte, frac float64, rng *rand.Rand) {
	const siteLen = 10 + 4 + 4 + 8 // anchor, gap, "key=", tail
	n := int(frac * float64(len(stream)) / siteLen)
	if n == 0 && rng.Float64() < frac*float64(len(stream))/siteLen {
		n = 1
	}
	for i := 0; i < n && len(stream) > siteLen; i++ {
		site := stream[rng.Intn(len(stream)-siteLen):][:siteLen]
		a := []byte(anchorWord(rng.Intn(multiRules)))
		for j := range a {
			if rng.Intn(2) == 0 && a[j] >= 'a' && a[j] <= 'z' {
				a[j] -= 'a' - 'A' // the anchor is nocase: vary its case
			}
		}
		copy(site, a)
		copy(site[10:], "&x=1")
		copy(site[14:], "key=")
		if rng.Intn(2) == 0 {
			copy(site[18:], fmt.Sprintf("%08x", rng.Uint32()))
		} else {
			copy(site[18:], "zz_zz_zz")
		}
	}
}

// patchLap stamps every frame of the lap with the lap's flow keys.
func (tr *lapTrace) patchLap(lap int) {
	port := uint16(lapPortBase + lap)
	for _, o := range tr.offs[:len(tr.offs)-1] {
		tr.frames[o+frameSrcPort] = byte(port >> 8)
		tr.frames[o+frameSrcPort+1] = byte(port)
	}
}

// patchTs stamps frames [i, j) with a capture timestamp.
func (tr *lapTrace) patchTs(i, j int, micros uint64) {
	for _, o := range tr.offs[i:j] {
		b := tr.frames[o+frameTs : o+frameTs+8]
		for k := 7; k >= 0; k-- {
			b[k] = byte(micros)
			micros >>= 8
		}
	}
}
