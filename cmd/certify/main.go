// Command certify exhaustively explores a workload's bounded schedule
// space and certifies cooperability over all of it — the strongest
// guarantee the tool offers, practical for small configurations. With
// -dpor it uses conflict-directed exploration (dynamic partial-order
// reduction) to hunt for a violating schedule quickly instead of proving
// their absence.
//
// Exploration runs under the shared budget flags (-timeout, -max-states,
// -mem-budget) and SIGINT: a cutoff still prints the partial verdict with
// the status explaining why, but a truncated space is never CERTIFIED. A
// second SIGINT aborts at once.
//
// The shared telemetry flags (-telemetry, -metrics-addr, -progress,
// -flight) work here as on the checker tools.
//
// Usage:
//
//	certify -w philo -size 1 -preemptions 2
//	certify -w bank-buggy -size 2 -dpor
//	certify -w sor -timeout 30s -json -telemetry run.json
//	certify -w philo -flight cert.json  # inspect in Perfetto or explorescope
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/movers"
	"repro/internal/sched"
	"repro/internal/static"
	"repro/internal/workloads"
)

// summary is the -json report: everything the human-readable output says,
// machine-readable, with the budget status made explicit.
type summary struct {
	Workload    string `json:"workload"`
	Mode        string `json:"mode"`
	Threads     int    `json:"threads"`
	Size        int    `json:"size"`
	Bound       int    `json:"bound"`
	Status      string `json:"status"`
	Runs        int    `json:"runs"`
	States      int64  `json:"states"`
	Abandoned   int    `json:"abandoned"`
	Panics      int    `json:"panics"`
	Violations  int    `json:"violations"`
	Deadlocks   int    `json:"deadlocks"`
	Certified   bool   `json:"certified"`
	FirstReport string `json:"first_report,omitempty"`
	// Static cross-check results, present only with -static.
	StaticFuncs        int  `json:"static_funcs,omitempty"`
	StaticFindings     int  `json:"static_findings,omitempty"`
	StaticUnknown      int  `json:"static_unknown,omitempty"`
	StaticContradicted int  `json:"static_contradicted,omitempty"`
	StaticAgree        bool `json:"static_agree,omitempty"`
}

func main() {
	var (
		workload    = flag.String("w", "", "workload name")
		threads     = flag.Int("threads", 2, "worker override (keep small: the space is exponential)")
		size        = flag.Int("size", 1, "size override (keep small)")
		preemptions = flag.Int("preemptions", 2, "preemption bound")
		maxRuns     = flag.Int("maxruns", 20000, "schedule cap")
		dpor        = flag.Bool("dpor", false, "conflict-directed exploration (bug hunting) instead of exhaustive")
		jsonOut     = flag.Bool("json", false, "print the summary as JSON instead of prose")
		staticDir   = flag.String("static", "", "also run the static cooperability pass over this source directory; certification then requires static agreement (no findings, no unknowns, no contradicted claims)")
	)
	common = cli.NewCommon("certify")
	common.RegisterTelemetryFlags(flag.CommandLine)
	common.RegisterBudgetFlags(flag.CommandLine)
	flag.Parse()
	if *workload == "" {
		fatal(fmt.Errorf("-w is required"))
	}
	spec, ok := workloads.Get(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q; available: %v", *workload, workloads.Names()))
	}
	common.Workload = *workload
	if err := common.Start(); err != nil {
		fatal(err)
	}

	explore := sched.Explore
	mode := "exhaustive"
	if *dpor {
		explore = sched.ExploreDPOR
		mode = "conflict-directed (dpor)"
	}
	violations := 0
	deadlocks := 0
	firstReport := ""
	dynLocs := map[string]bool{}
	rep, err := explore(spec.New(*threads, *size), sched.ExploreOptions{
		MaxRuns:        *maxRuns,
		MaxPreemptions: *preemptions,
		RecordTrace:    true,
		Budget:         common.Budget(),
		Visit: func(res *sched.Result, runErr error) bool {
			if runErr != nil {
				// Crashed replays are tallied by rep.Panics; everything else
				// that aborts a run in the virtual runtime is a deadlock.
				var pe *sched.ExploreError
				if !errors.As(runErr, &pe) {
					deadlocks++
				}
				if firstReport == "" {
					firstReport = runErr.Error()
				}
				return true
			}
			c := core.AnalyzeTwoPass(res.Trace, core.Options{Policy: movers.DefaultPolicy()})
			if !c.Cooperable() {
				violations++
				for _, v := range c.Violations() {
					dynLocs[res.Trace.Strings.Name(v.Event.Loc)] = true
				}
				if firstReport == "" {
					v := c.Violations()[0]
					firstReport = v.String() + " at " + res.Trace.Strings.Name(v.Event.Loc)
				}
			}
			return true
		},
	})
	if err != nil {
		fatal(err)
	}
	common.SetStatus(rep.Status)
	// A certificate means the search covered the whole bounded space: it
	// finished (no budget/deadline/panic cutoff), no prefix was abandoned,
	// nothing crashed, and the mode was actually exhaustive.
	certified := violations == 0 && deadlocks == 0 && rep.Panics == 0 &&
		rep.Status == sched.StatusComplete && rep.Abandoned == 0 && rep.Runs < *maxRuns && !*dpor

	// With -static, certification additionally requires the static pass to
	// agree: no findings or unknown verdicts over the given sources, and —
	// the soundness direction — no static cooperability claim contradicted
	// by a dynamically observed violation inside that function.
	var srep *static.Report
	contradicted := 0
	if *staticDir != "" {
		var serr error
		srep, serr = static.Analyze([]string{*staticDir}, static.Config{Policy: movers.DefaultPolicy()})
		if serr != nil {
			fatal(fmt.Errorf("-static: %w", serr))
		}
		for loc := range dynLocs {
			for _, f := range srep.Funcs {
				if f.Claimed() && f.Contains(loc) {
					contradicted++
					fmt.Fprintf(os.Stderr, "certify: STATIC CONTRADICTION: %s proven %s but violation observed at %s\n",
						f.Name, f.Verdict, loc)
				}
			}
		}
		certified = certified && srep.Stats.Findings == 0 && srep.Stats.Unknown == 0 && contradicted == 0
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		sum := summary{
			Workload: *workload, Mode: mode, Threads: *threads, Size: *size,
			Bound: *preemptions, Status: string(rep.Status), Runs: rep.Runs,
			States: rep.States, Abandoned: rep.Abandoned, Panics: rep.Panics,
			Violations: violations, Deadlocks: deadlocks,
			Certified: certified, FirstReport: firstReport,
		}
		if srep != nil {
			sum.StaticFuncs = srep.Stats.Funcs
			sum.StaticFindings = srep.Stats.Findings
			sum.StaticUnknown = srep.Stats.Unknown
			sum.StaticContradicted = contradicted
			sum.StaticAgree = srep.Stats.Findings == 0 && srep.Stats.Unknown == 0 && contradicted == 0
		}
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
		closeCommon()
		if violations > 0 || deadlocks > 0 || rep.Panics > 0 {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s exploration of %s (threads=%d size=%d bound=%d): %d schedules, %d states\n",
		mode, *workload, *threads, *size, *preemptions, rep.Runs, rep.States)
	if rep.Status != sched.StatusComplete {
		fmt.Printf("cutoff (%s): %d prefix(es) abandoned unexplored\n", rep.Status, rep.Abandoned)
	}
	if rep.Panics > 0 {
		fmt.Printf("%d schedule(s) crashed during replay (reported as findings, not certificates)\n", rep.Panics)
	}
	if srep != nil {
		fmt.Printf("static pass over %s: %d funcs, %d findings, %d unknown, %d contradicted claim(s)\n",
			*staticDir, srep.Stats.Funcs, srep.Stats.Findings, srep.Stats.Unknown, contradicted)
	}
	switch {
	case violations > 0 || deadlocks > 0 || rep.Panics > 0:
		fmt.Printf("FAILED: %d violating schedule(s), %d deadlocking schedule(s), %d crashing schedule(s)\n",
			violations, deadlocks, rep.Panics)
		if firstReport != "" {
			fmt.Println("first report:", firstReport)
		}
		closeCommon()
		os.Exit(1)
	case certified:
		fmt.Println("CERTIFIED: cooperable and deadlock-free over the entire bounded schedule space")
	case srep != nil && (srep.Stats.Findings > 0 || srep.Stats.Unknown > 0 || contradicted > 0):
		fmt.Println("no violations found, but not certified: the static pass disagrees (findings, unknowns, or contradicted claims above)")
	default:
		fmt.Println("no violations found (not a certificate: space truncated or dpor mode)")
	}
	closeCommon()
}

// common carries the shared telemetry and budget flags and the SIGINT
// handling; certify keeps its own exploration flags.
var common *cli.Common

// closeCommon flushes the telemetry surfaces on every exit path (Close is
// idempotent, so reaching it twice is fine).
func closeCommon() {
	if common == nil {
		return
	}
	if err := common.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "certify:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "certify:", err)
	closeCommon()
	os.Exit(2)
}
