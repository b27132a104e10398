// Command verdictbench runs one benchmark workload in this process and
// prints its measurements as one JSON line. run.py starts it, once per
// measurement, in a fresh process at GOMAXPROCS=1, and turns its lines
// into the benchmark's metrics.
//
// Usage (from the repository root):
//
//	verdictbench -workload certify -seed 1 -seconds 10 -exec-ns <unix ns>
//	verdictbench -workload vet -mode setup -exec-ns <unix ns>
//	verdictbench -workload battery -mode trace -flight battery.fltr
//	verdictbench -workload dpor -write-expected
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// traceCap is the traced run's track capacity, in flight events, by
// workload: enough for ten or more passes (battery records 16 spans per
// item, the others a few). The run stops adding passes before the next one
// could overflow it, so no event is ever dropped. The track is kept small
// because the collector scans all of it on every cycle: at 1<<16 events
// that alone slowed certify's traced passes by a third.
var traceCap = map[string]int{"certify": 1 << 10, "dpor": 1 << 10, "vet": 1 << 10, "battery": 1 << 14}

// report is one process's measurements.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	SetupS   float64 `json:"setup_s"`
	Passes   int     `json:"passes"`
	TimedS   float64 `json:"timed_s"`
	ExtraS   float64 `json:"extra_s"`
	// PassS holds the wall time of every pass over the items.
	PassS     []float64 `json:"pass_s"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	// ItemMs holds each item's time to verdict on every pass, and RefMs
	// the time of the reference kernel run just before it.
	ItemMs     map[string][]float64 `json:"item_ms,omitempty"`
	RefMs      map[string][]float64 `json:"ref_ms,omitempty"`
	AllocBytes uint64               `json:"alloc_bytes"`
	PeakRSSKB  int64                `json:"peak_rss_kb"`
	// Layers are the per-layer metrics, on the traced run only.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "", "certify, dpor, battery or vet")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: orders the items and seeds battery's random schedules")
		seconds  = flag.Float64("seconds", 10, "timed window: whole passes over the items, ending within half a pass of this many seconds")
		mode     = flag.String("mode", "run", "run (timed), setup (set up and exit) or trace (timed, with layer spans)")
		execNs   = flag.Int64("exec-ns", 0, "wall clock (unix ns) at which the parent started this process; 0 = process start unknown")
		answers  = flag.String("expected", "perfbench/expected", "directory of committed expected answers")
		tiny     = flag.Bool("tiny", false, "smallest inputs, for the self-test")
		rec      = flag.String("flight", "", "with -mode trace, write the recording here (flight format)")
		write    = flag.Bool("write-expected", false, "run one pass at the default seed and record its answers as the expected ones")
	)
	flag.Parse()
	if *execNs == 0 {
		*execNs = time.Now().UnixNano()
	}
	cfg := config{workload: *workload, seed: *seed, tiny: *tiny}
	if *write {
		if err := record(cfg, *answers); err != nil {
			fatal(err)
		}
		return
	}
	exp, err := loadExpected(*answers, cfg.workload)
	if err != nil {
		fatal(err)
	}
	items, err := buildItems(cfg)
	if err != nil {
		fatal(err)
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed}
	var p *probe
	switch *mode {
	case "setup":
		rep.SetupS = float64(time.Now().UnixNano()-*execNs) / 1e9
		emit(rep)
		return
	case "trace":
		p = newProbe(traceCap[cfg.workload])
	case "run":
	default:
		fatal(fmt.Errorf("unknown -mode %q (run|setup|trace)", *mode))
	}
	measure(rep, items, newVerifier(cfg, exp), p, time.Duration(*seconds*float64(time.Second)), *execNs)
	if p != nil && *rec != "" {
		if err := flight.WriteFile(*rec, p.rec.Snapshot()); err != nil {
			fatal(fmt.Errorf("write recording: %w", err))
		}
	}
	emit(rep)
}

// The runtime/metrics read around the timed passes.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// measure runs whole passes over the items, one item at a time, for
// about budget, checking every verdict. Before each item it collects the
// heap and times the reference kernel, outside the item's time.
func measure(rep *report, items []item, v verifier, p *probe, budget time.Duration, execNs int64) {
	rep.ItemMs = map[string][]float64{}
	rep.RefMs = map[string][]float64{}
	seen := map[string]bool{}
	var snap0 *obs.Snapshot
	if p != nil {
		obs.Default.Gauge("explore.frontier.hwm").Set(0)
		snap0 = obs.Default.Snapshot()
	}
	start := time.Now()
	rep.SetupS = float64(start.UnixNano()-execNs) / 1e9
	refAlloc := referenceAlloc()
	before := readRuntime()
	for {
		events0 := eventsRecorded(p)
		passStart := time.Now()
		for _, it := range items {
			p.collect()
			ref := reference()
			rep.RefMs[it.name] = append(rep.RefMs[it.name], float64(ref.Nanoseconds())/1e6)
			t0 := p.beginItem(it.name)
			got, err := runItem(it, p)
			d := p.endItem(t0)
			rep.ItemMs[it.name] = append(rep.ItemMs[it.name], float64(d.Nanoseconds())/1e6)
			rep.Attempted++
			if err == nil {
				err = v.check(it.name, got)
			}
			if err != nil {
				rep.Failed++
				if msg := err.Error(); !seen[msg] {
					seen[msg] = true
					rep.Failures = append(rep.Failures, msg)
				}
			}
		}
		rep.Passes++
		pass := time.Since(passStart)
		rep.PassS = append(rep.PassS, pass.Seconds())
		// Stop when the next pass would end nearer the budget's far side
		// than this one: the timed window then stays within half a pass of
		// the budget, even on dpor, whose passes take seconds.
		if time.Since(start)+pass/2 >= budget {
			break
		}
		if p != nil && eventsRecorded(p)+(eventsRecorded(p)-events0) > traceCap[rep.Workload] {
			break
		}
	}
	rep.TimedS = time.Since(start).Seconds()
	after := readRuntime()
	rep.AllocBytes = after[0].Value.Uint64() - before[0].Value.Uint64() - uint64(rep.Attempted)*refAlloc
	rep.PeakRSSKB = peakRSSKB()
	if p != nil {
		rep.ExtraS = float64(p.extraNs) / 1e9
		rep.Layers = p.layers(rep, snap0, obs.Default.Snapshot(), before, after)
	}
}

func eventsRecorded(p *probe) int {
	if p == nil {
		return 0
	}
	return 2 * p.spans
}

// peakRSSKB is the process's maximum resident set (VmHWM).
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// record runs one pass at the default seed and writes its answers as the
// workload's expected ones.
func record(cfg config, dir string) error {
	cfg.seed = defaultSeed
	items, err := buildItems(cfg)
	if err != nil {
		return err
	}
	e := &expected{Seed: cfg.seed, Answers: map[string]answer{}}
	names := make([]string, 0, len(items))
	for _, it := range items {
		a, err := runItem(it, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", it.name, err)
		}
		if err := handCheck(it.name, a); err != nil {
			return err
		}
		e.Answers[it.name] = a
		names = append(names, it.name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "recorded %d answers: %s\n", len(names), strings.Join(names, " "))
	return writeExpected(dir, cfg.workload, e)
}

func emit(rep *report) {
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "verdictbench:", err)
	os.Exit(2)
}
