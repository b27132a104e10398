package static

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

func analyze(t *testing.T, dirs ...string) *Report {
	t.Helper()
	rep, err := Analyze(dirs, Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("Analyze(%v): %v", dirs, err)
	}
	return rep
}

func mustFunc(t *testing.T, rep *Report, name string) FuncReport {
	t.Helper()
	f, ok := rep.Func(name)
	if !ok {
		var names []string
		for _, fr := range rep.Funcs {
			names = append(names, fr.Name)
		}
		t.Fatalf("no report for %q; have %v", name, names)
	}
	return f
}

func TestDSLVerdicts(t *testing.T) {
	rep := analyze(t, "testdata/dsl")
	cases := map[string]Verdict{
		"dsl.bump":         VerdictYieldFree,
		"dsl.racer":        VerdictNeedsYields,
		"dsl.polite":       VerdictCooperable,
		"dsl.Weird":        VerdictUnknown,
		"dsl.WithLockHeld": VerdictYieldFree,
		"dsl.BuildGuarded": VerdictCooperable, // forks and joins are boundaries
	}
	for name, want := range cases {
		if got := mustFunc(t, rep, name).Verdict; got != want {
			t.Errorf("%s: verdict %v, want %v", name, got, want)
		}
	}
}

func TestRacyFindingPointsAtSecondWrite(t *testing.T) {
	rep := analyze(t, "testdata/dsl")
	f := mustFunc(t, rep, "dsl.racer")
	if len(f.Findings) == 0 {
		t.Fatal("racer: no findings")
	}
	for _, fd := range f.Findings {
		if !strings.HasPrefix(fd.Loc, "dsl/dsl.go:") {
			t.Errorf("finding location %q not in dsl/dsl.go (dynamic-format mismatch)", fd.Loc)
		}
		if fd.Mover != "non" && fd.Mover != "right" {
			t.Errorf("violation mover %q, want non or right", fd.Mover)
		}
	}
}

func TestGuardedProgramHasNoFindings(t *testing.T) {
	rep := analyze(t, "testdata/dsl")
	for _, name := range []string{"dsl.bump", "dsl.WithLockHeld", "dsl.BuildGuarded"} {
		if f := mustFunc(t, rep, name); len(f.Findings) > 0 {
			t.Errorf("%s: unexpected findings %+v", name, f.Findings)
		}
	}
}

func TestPlainGoVerdicts(t *testing.T) {
	rep := analyze(t, "testdata/plaingo")
	if got := mustFunc(t, rep, "plaingo.Counter.Inc").Verdict; got != VerdictYieldFree {
		t.Errorf("Counter.Inc: %v, want %v", got, VerdictYieldFree)
	}
	if got := mustFunc(t, rep, "plaingo.AddTotal").Verdict; got != VerdictNeedsYields {
		t.Errorf("AddTotal: %v, want %v", got, VerdictNeedsYields)
	}
}

// The analysis must be deterministic: two runs over the same universe
// produce byte-identical JSON.
func TestReportDeterministic(t *testing.T) {
	var out [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		rep := analyze(t, "testdata/dsl", "testdata/plaingo")
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].String() != out[1].String() {
		t.Errorf("nondeterministic report:\n--- run 1\n%s\n--- run 2\n%s", out[0].String(), out[1].String())
	}
}

// A package's report must not depend on what else the universe loaded.
// Parameter storage and function literals carry a source position in
// their ids; a FileSet offset there would shift with every file loaded
// before the package.
func TestReportIndependentOfLoadOrder(t *testing.T) {
	for dir, id := range map[string]string{
		"testdata/rwmutex": "rwmutex.g@rwmutex.go:",
		"testdata/litrec":  "litrec.lit@litrec.go:",
	} {
		alone := packageJSON(t, analyze(t, dir), filepath.Base(dir))
		if !strings.Contains(alone, id) {
			t.Errorf("%s: report has no id %q...: %s", dir, id, alone)
		}
		if after := packageJSON(t, analyze(t, "testdata/plaingo", dir), filepath.Base(dir)); after != alone {
			t.Errorf("%s: report changes when testdata/plaingo is loaded first:\n--- alone\n%s\n--- after plaingo\n%s", dir, alone, after)
		}
	}
}

// packageJSON renders the functions and findings of rep that sit in the
// files of package dir.
func packageJSON(t *testing.T, rep *Report, dir string) string {
	t.Helper()
	var part Report
	for _, f := range rep.Funcs {
		if strings.HasPrefix(f.File, dir+"/") {
			part.Funcs = append(part.Funcs, f)
		}
	}
	for _, f := range rep.Findings {
		if strings.HasPrefix(f.Loc, dir+"/") {
			part.Findings = append(part.Findings, f)
		}
	}
	b, err := json.MarshalIndent(part, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := Analyze([]string{"testdata/dsl"}, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("static.funcs").Load(); got != int64(rep.Stats.Funcs) {
		t.Errorf("static.funcs = %d, want %d", got, rep.Stats.Funcs)
	}
	if got := reg.Counter("static.yieldfree").Load(); got != int64(rep.Stats.YieldFree) {
		t.Errorf("static.yieldfree = %d, want %d", got, rep.Stats.YieldFree)
	}
	if got := reg.Counter("static.findings").Load(); got != int64(rep.Stats.Findings) {
		t.Errorf("static.findings = %d, want %d", got, rep.Stats.Findings)
	}
	if rep.Stats.Funcs == 0 {
		t.Error("no functions analyzed")
	}
}

// Analyzing the real workload corpus must complete without error and
// never produce an unsound-looking empty result.
func TestAnalyzeWorkloads(t *testing.T) {
	rep := analyze(t, "../workloads")
	if rep.Stats.Funcs == 0 {
		t.Fatal("no functions found in internal/workloads")
	}
	f := mustFunc(t, rep, "workloads.Counter.Add")
	if f.Verdict == VerdictYieldFree || f.Verdict == VerdictCooperable {
		if len(f.Findings) > 0 {
			t.Errorf("Counter.Add: cooperable verdict with findings %+v", f.Findings)
		}
	}
}

// The loader parses only the files the host builds: of a platform twin,
// an _amd64.go file and its //go:build !amd64 fallback, one is
// type-checked, so the package has no duplicate declaration.
func TestPlatformTwinsTypeCheckOnce(t *testing.T) {
	rep := analyze(t, "testdata/platform")
	if rep.TypeErrors != 0 || len(rep.Warnings) != 0 {
		t.Fatalf("type errors %d, warnings %q, want none", rep.TypeErrors, rep.Warnings)
	}
	mustFunc(t, rep, "platform.Add")
}

// buildsFile takes the non-test files whose name and constraints match the
// host, and keeps a file whose constraint does not parse.
func TestBuildsFile(t *testing.T) {
	dir := t.TempDir()
	other := "arm64"
	if runtime.GOARCH == "arm64" {
		other = "amd64"
	}
	files := map[string]struct {
		src  string
		want bool
	}{
		"plain.go":                       {"package p\n", true},
		"host_" + runtime.GOARCH + ".go": {"package p\n", true},
		"foreign_" + other + ".go":       {"package p\n", false},
		"excluded.go":                    {"//go:build !" + runtime.GOARCH + "\n\npackage p\n", false},
		"cgo.go":                         {"//go:build cgo\n\npackage p\n", false},
		"malformed.go":                   {"//go:build (\n\npackage p\n", true},
		"plain_test.go":                  {"package p\n", false},
	}
	for name, f := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(f.src), 0o644); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := buildsFile(dir, fi); got != f.want {
			t.Errorf("buildsFile(%s) = %v, want %v", name, got, f.want)
		}
	}
}
