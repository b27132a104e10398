package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// defaultSeed reproduces coopcheck -seeds 4: random schedules 1..4.
const defaultSeed = 1

// expected is a workload's committed answer file.
type expected struct {
	// Seed is the seed the answers were recorded at. Only battery's answers
	// depend on it; the other workloads' answers hold at every seed.
	Seed    int64             `json:"seed"`
	Answers map[string]answer `json:"answers"`
}

func expectedPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func loadExpected(dir, workload string) (*expected, error) {
	b, err := os.ReadFile(expectedPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var e expected
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("expected answers %s: %w", expectedPath(dir, workload), err)
	}
	return &e, nil
}

func writeExpected(dir, workload string, e *expected) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(dir, workload), append(b, '\n'), 0o644)
}

// verifier decides whether an item's answer is right: against the
// committed answer where that answer applies to this run's inputs, and
// always against the seed-independent checks below.
type verifier struct {
	want map[string]answer // nil: hand-written checks only
}

func newVerifier(cfg config, e *expected) verifier {
	v := verifier{want: e.Answers}
	if cfg.workload == "battery" && (cfg.seed != e.Seed || cfg.tiny) {
		v.want = nil
	}
	return v
}

func (v verifier) check(name string, got answer) error {
	if v.want != nil {
		want, ok := v.want[name]
		if !ok {
			return fmt.Errorf("%s: no expected answer", name)
		}
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("%s: got %s, want %s", name, compact(got), compact(want))
		}
	}
	return handCheck(name, got)
}

func compact(a answer) string {
	b, _ := json.Marshal(a) // answer holds only strings and integers
	return string(b)
}

// raceReporters are the only workloads on which FastTrack ever reports a
// race (WORKLOADS.md): the two planted races and tsp's documented benign
// one.
var raceReporters = map[string]bool{"bank-buggy": true, "raytracer-racy": true, "tsp": true}

// yieldFree are the workloads WORKLOADS.md lists with zero yields; each
// must certify whenever its bounded space completes.
var yieldFree = map[string]bool{
	"series": true, "sparse": true, "crypt": true, "syncbench": true,
	"philo": true, "bank": true, "warehouse": true,
	"ratelimit": true, "connpool": true, "pubsub": true, "heartbeat": true,
}

// handCheck holds the facts WORKLOADS.md states about the suite, which
// hold at every seed.
func handCheck(name string, a answer) error {
	kind, w, _ := strings.Cut(name, "/")
	planted := strings.HasSuffix(w, "-buggy") || strings.HasSuffix(w, "-racy")
	switch {
	case (kind == "certify" || kind == "dpor") && planted && a.Verdict != "FAILED":
		return fmt.Errorf("%s: planted bug not found (verdict %s)", name, a.Verdict)
	case kind == "certify" && yieldFree[w] && a.Verdict != "CERTIFIED":
		return fmt.Errorf("%s: yield-free workload not certified (verdict %s)", name, a.Verdict)
	case kind == "battery" && a.Races > 0 && !raceReporters[w]:
		return fmt.Errorf("%s: FastTrack reported %d racy variable(s) on a race-free workload", name, a.Races)
	case kind == "battery" && (w == "bank-buggy" || w == "raytracer-racy") && a.Races == 0:
		return fmt.Errorf("%s: FastTrack missed the planted race", name)
	case kind == "battery" && w == "stringbuffer-buggy" &&
		(a.Races != 0 || a.AtomViolations == 0 || a.VeloViolations == 0 || a.CoopViolations == 0):
		return fmt.Errorf("%s: want no race but Atomizer, Velodrome and coop violations, got %s", name, compact(a))
	case kind == "threeway" && a.Contradictions != 0:
		return fmt.Errorf("%s: %d three-way contradiction(s)", name, a.Contradictions)
	case kind == "threeway" && !shareOne(a.Parts["racybank"].FindingLocs, a.Parts["racybank"].ViolationLocs):
		rb := a.Parts["racybank"]
		return fmt.Errorf("%s: racybank's static findings %v and dynamic violations %v share no line", name, rb.FindingLocs, rb.ViolationLocs)
	}
	return nil
}

func shareOne(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
