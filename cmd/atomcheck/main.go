// Command atomcheck runs both atomicity baselines over a workload's
// schedule battery and prints their verdicts side by side: the
// Atomizer-style reduction checker (conservative) and the Velodrome-style
// transactional happens-before checker (precise for the observed trace).
// Disagreements are Atomizer's documented false positives.
//
// Usage:
//
//	atomcheck -w stringbuffer-buggy -seeds 8
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atom"
	"repro/internal/cli"
	"repro/internal/sched"
	"repro/internal/velodrome"
)

func main() {
	common := cli.RegisterCommon("atomcheck")
	methods := flag.Bool("methods", true, "treat every method span as an atomic block")
	flag.Parse()
	if common.Workload == "" {
		fatal(fmt.Errorf("-w is required"))
	}
	if err := common.Start(); err != nil {
		fatal(err)
	}
	traces, _, err := common.Battery()
	if err != nil {
		fatal(err)
	}
	azTotal, veloTotal := 0, 0
	for i, tr := range traces {
		// One batched scan feeds both checkers (sched.FeedTrace), matching
		// the fused Table 3 pipeline instead of two per-checker scans.
		az := atom.New(atom.Options{MethodsAtomic: *methods})
		vc := velodrome.Borrow(velodrome.Options{MethodsAtomic: *methods})
		sched.FeedTrace(tr, az, vc)
		velo := vc.Violations()
		vc.FlushMetrics(len(velo))
		vc.Release()
		fmt.Printf("schedule %d (%s): atomizer %d violation(s), velodrome %d unserializable\n",
			i, tr.Meta.Strategy, len(az.Violations()), len(velo))
		for _, v := range az.Violations() {
			fmt.Printf("  atomizer:  %s at %s\n", v, tr.Strings.Name(v.Event.Loc))
		}
		for _, v := range velo {
			fmt.Printf("  velodrome: %s\n", v)
		}
		azTotal += len(az.Violations())
		veloTotal += len(velo)
	}
	if err := common.Close(); err != nil {
		fatal(err)
	}
	switch {
	case azTotal == 0 && veloTotal == 0 && common.Partial():
		fmt.Printf("PARTIAL (%s): both checkers clean on the %d schedule(s) analyzed before cutoff\n",
			common.Status(), len(traces))
	case azTotal == 0 && veloTotal == 0:
		fmt.Println("ATOMIC: both checkers clean on all analyzed schedules")
	case veloTotal == 0:
		fmt.Printf("SERIALIZABLE but not reducible: %d Atomizer report(s) are false positives on these traces\n", azTotal)
		os.Exit(1)
	default:
		fmt.Printf("NOT ATOMIC: %d unserializable transaction(s) observed\n", veloTotal)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atomcheck:", err)
	os.Exit(2)
}
