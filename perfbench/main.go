// Command perfbench is vpatch's end-to-end benchmark. It drives the
// resident daemon the way an operator deploys it: an in-process
// serve.Server with one tenant, wire frames sent over one raw-TCP
// ingest connection on loopback, and alerts read at the tenant's alert
// sink, where every alert is checked against a reference built without
// the daemon's scan path.
//
//	perfbench --workload lit64_s1 --seed 1 --seconds 20 --trace 0
//
// A run times several set-ups, then measures a closed-loop capacity
// phase and an open-loop phase at the workload's fixed rate. With
// --trace 1 it also replays one lap of frames layer by layer and
// reports per-layer costs. Human-readable lines go to standard output
// first; the last line is one JSON object with the run's verdict and
// metrics (end-to-end with --trace 0, per-layer with --trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"vpatch"
	"vpatch/internal/patterns"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: lit64_s1, lit1460_s2 or rules_evasive_imix")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 20, "measured seconds of load (closed loop 40%, open loop 60%)")
	trace := flag.Int("trace", 0, "1 = also run the traced per-layer replay and report per-layer metrics")
	spin := flag.Duration("plant-alert-spin", 0, "self-check only: busy-wait this long in the alert sink per alert")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (lit64_s1|lit1460_s2|rules_evasive_imix), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spin.Nanoseconds()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w workload, seed int64, dur time.Duration, traced bool, spinNs int64) error {
	prov := provenance(seed)
	prov["workload"] = w.name
	prov["open_loop_rate_seg_per_s"] = w.rate

	// Inputs: rule text, one lap of frames, and the lap's reference.
	set := literalSet(w.db)
	text := ruleText(w, set)
	t0 := time.Now()
	tr := buildLap(w, set, seed)
	var o *oracle
	var err error
	if w.rules {
		rs, perr := vpatch.ParseRuleSet(bytes.NewReader(text), vpatch.RuleParseOptions{})
		if perr != nil {
			return perr
		}
		o, err = buildRuleOracle(tr, rs)
	} else {
		lits, perr := patterns.ParseRules(bytes.NewReader(text), patterns.ParseOptions{})
		if perr != nil {
			return perr
		}
		o, err = buildLiteralOracle(tr, lits)
	}
	if err != nil {
		return err
	}
	evasive := 0
	for _, e := range tr.evasive {
		if e {
			evasive++
		}
	}
	fmt.Printf("inputs: %d segments, %d flows (%d evasive), %.1f MB payload, %d expected alerts per lap (%.1fs)\n",
		len(tr.segs), len(tr.streams), evasive, float64(tr.payload)/1e6, len(o.keys), time.Since(t0).Seconds())

	// A traced run gives half its measured time to the replay.
	load := dur
	if traced {
		load = dur / 2
	}
	closed := load * 4 / 10
	dr, err := runDaemon(w, text, tr, o, closed, load-closed, spinNs)
	if err != nil {
		return err
	}
	failed := dr.segsShed + dr.missing + dr.extra
	attempted := dr.segsOffered + dr.expected
	res := result{
		Correct:   dr.missing == 0 && dr.extra == 0 && dr.segsShed == 0 && dr.drainClean,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	e2e := endToEnd(dr, attempted, failed)
	fmt.Printf("daemon: %d laps (%d segments), open loop %d segments at %.0f seg/s, %d detection samples\n",
		dr.laps, dr.segsOffered, dr.openSegs, w.rate, len(dr.detect))
	fmt.Printf("oracle: %d expected, %d missing, %d extra, %d segments shed or dropped, drain clean %v\n",
		dr.expected, dr.missing, dr.extra, dr.segsShed, dr.drainClean)
	fmt.Printf("detection over the whole open loop: p99 %.2f ms, max %.2f ms; sender lag p99 %.2f ms\n",
		percentile(dr.detect, 99), percentile(dr.detect, 100), percentile(dr.lag, 99))
	if dr.failures != "" {
		fmt.Printf("FAILURES: %s\n", dr.failures)
	}
	if dr.latOverflow > 0 {
		fmt.Printf("warning: %d detection samples did not fit the latency buffer\n", dr.latOverflow)
	}
	fmt.Printf("host steal: median %.1f%% over %d latency windows, %.1f%% over %d capacity intervals\n",
		100*median(dr.winSteal), len(dr.winSteal), 100*median(dr.capSteal), len(dr.capSteal))
	printMetrics("end-to-end", e2e)

	if traced {
		rp, err := newReplay(tr, dr.db)
		if err != nil {
			return err
		}
		rr, err := runReplay(rp, dur/2, w.name)
		if err != nil {
			return err
		}
		layers := perLayer(dr, rr)
		printReplay(rr, dr)
		printMetrics("per-layer", layers)
		res.Metrics = layers
	} else {
		res.Metrics = e2e
	}

	pj, _ := json.Marshal(map[string]any{"provenance": prov}) // strings and numbers only: cannot fail
	fmt.Println(string(pj))
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	return nil
}

// endToEnd derives the seven end-to-end metrics of one daemon run.
func endToEnd(dr *daemonResult, attempted, failed int64) map[string]metric {
	totals := make([]float64, len(dr.setups))
	for i, s := range dr.setups {
		totals[i] = s.total
	}
	p50, p99 := detectQuiet(dr)
	return map[string]metric{
		"setup_s":         {median(totals), "s"},
		"capacity_gbps":   {capacity(dr) * 8 / 1e9, "Gbps"},
		"detect_p50_ms":   {p50, "ms"},
		"detect_p99_ms":   {p99, "ms"},
		"cpu_ns_per_byte": {dr.cpuNsPerByte, "ns/B"},
		"mem_peak_mb":     {dr.memPeakMB, "MB"},
		"delivered_frac":  {1 - float64(failed)/float64(attempted), "ratio"},
	}
}

// quiet returns the indices of the quarter (rounded up) of the windows
// in which the hypervisor stole the least CPU from this machine. On a
// shared host, steal bursts of a few seconds otherwise decide the tail
// latency of a whole run.
func quiet(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+3)/4]
}

// detectQuiet returns the detection latency percentiles of the quiet
// latency windows of the open loop: p50 over all their samples, and
// the median of their per-window 99th percentiles.
func detectQuiet(dr *daemonResult) (p50, p99 float64) {
	var all, tails []float64
	for _, i := range quiet(dr.winSteal) {
		w := dr.detectWin[i]
		all = append(all, w...)
		if len(w) >= 100 {
			tails = append(tails, percentile(w, 99))
		}
	}
	return percentile(all, 50), median(tails)
}

// capacity is the median closed-loop interval rate, each interval's
// rate divided by the share of host CPU the hypervisor left this
// machine: the saturated pipeline's throughput scales with the CPU it
// gets.
func capacity(dr *daemonResult) float64 {
	rates := make([]float64, len(dr.capRates))
	for i, r := range dr.capRates {
		rates[i] = r / (1 - dr.capSteal[i])
	}
	return median(rates)
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
