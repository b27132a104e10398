// Command racecheck runs both race-detection baselines — the FastTrack
// happens-before detector and the Eraser lockset detector — over a
// workload's schedule battery and prints their (often differing) verdicts.
//
// Usage:
//
//	racecheck -w raytracer-racy -seeds 8
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/lockorder"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/sched"
)

func main() {
	common := cli.RegisterCommon("racecheck")
	flag.Parse()
	if common.Workload == "" {
		fatal(fmt.Errorf("-w is required"))
	}
	if err := common.Start(); err != nil {
		fatal(err)
	}
	traces, results, err := common.Battery()
	if err != nil {
		fatal(err)
	}
	if len(traces) == 0 {
		common.Close() //nolint:errcheck
		fmt.Printf("PARTIAL (%s): cutoff before any schedule completed; nothing analyzed\n", common.Status())
		return
	}
	sym := results[len(results)-1].Symbols
	ftVars := map[string]bool{}
	lsVars := map[string]bool{}
	ftReports, lsReports := 0, 0
	for i, tr := range traces {
		// One batched scan feeds both detectors (sched.FeedTrace), matching
		// the fused Table 3 pipeline instead of two per-checker scans.
		d := race.New()
		ls := lockset.New()
		sched.FeedTrace(tr, d, ls)
		d.FlushMetrics()
		ls.FlushMetrics()
		fmt.Printf("schedule %d (%s): fasttrack %d race(s), lockset %d warning(s)\n",
			i, tr.Meta.Strategy, len(d.Races()), len(ls.Warnings()))
		for _, r := range d.Races() {
			ftReports++
			ftVars[sym.VarName(r.Var)] = true
			fmt.Printf("  %s on %q at %s\n", r.Kind, sym.VarName(r.Var), tr.Strings.Name(r.Access.Loc))
		}
		for _, w := range ls.Warnings() {
			lsReports++
			lsVars[sym.VarName(w.Var)] = true
			fmt.Printf("  lockset: %q unprotected at %s\n", sym.VarName(w.Var), tr.Strings.Name(w.Event.Loc))
		}
	}
	// Lock-order (potential deadlock) analysis over the union of traces.
	lo := lockorder.New()
	for _, tr := range traces {
		sched.FeedTrace(tr, lo)
	}
	potential := lo.Unguarded()
	for _, w := range potential {
		fmt.Println(" ", w)
	}
	fmt.Printf("summary: fasttrack flagged %d variable(s), lockset flagged %d, %d potential deadlock cycle(s)\n",
		len(ftVars), len(lsVars), len(potential))
	if err := common.Close(); err != nil {
		fatal(err)
	}
	if ftReports+lsReports+len(potential) > 0 {
		os.Exit(1)
	}
	if common.Partial() {
		fmt.Printf("PARTIAL (%s): no races in the %d schedule(s) analyzed before cutoff\n",
			common.Status(), len(traces))
		return
	}
	fmt.Println("RACE FREE and lock-order clean on all analyzed schedules")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racecheck:", err)
	os.Exit(2)
}
