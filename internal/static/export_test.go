package static

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// withExports installs x as the process's export-data index for the rest
// of the test.
func withExports(t *testing.T, x *exportIndex) {
	t.Helper()
	old := stdExports
	stdExports = x
	t.Cleanup(func() { stdExports = old })
}

func failingList(string, []string) (map[string]string, error) {
	return nil, errors.New("go list unavailable")
}

func reportJSON(t *testing.T, dirs []string) string {
	t.Helper()
	rep, err := Analyze(dirs, Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("Analyze(%v): %v", dirs, err)
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Export data and the source importer must give the same universe: the
// report over every corpus the repository analyzes is byte-identical,
// warnings included, whichever importer loaded the standard library. The
// export side runs four concurrent analyses on an empty index, so that
// under -race they contend for the memo and its batched go list.
func TestImporterDifferential(t *testing.T) {
	dirs := []string{"../../examples/bank", "diffprogs"}
	for _, pattern := range []string{"testdata/*", "../cooptrans/testdata/corpus/*", "../cooptrans/testdata/negative/*"} {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			t.Fatalf("glob %s: %v %v", pattern, m, err)
		}
		dirs = append(dirs, m...)
	}

	withExports(t, &exportIndex{list: failingList, files: map[string]string{}})
	source := reportJSON(t, dirs)
	if !strings.Contains(source, `import \"C\": `+errCgo.Error()) {
		t.Errorf("no import \"C\" warning in the source-importer report")
	}

	withExports(t, &exportIndex{list: goListExports, files: map[string]string{}})
	var wg sync.WaitGroup
	out := make([]string, 4)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Analyze(dirs, Config{Registry: obs.NewRegistry()})
			if err != nil {
				t.Errorf("Analyze: %v", err)
				return
			}
			var b bytes.Buffer
			rep.WriteJSON(&b)
			out[i] = b.String()
		}(i)
	}
	wg.Wait()
	for i, got := range out {
		if got != source {
			t.Fatalf("export-data report %d differs from the source importer's:\n--- export\n%s\n--- source\n%s", i, got, source)
		}
	}
	if len(stdExports.files) == 0 {
		t.Error("the export-data index stayed empty")
	}
}

// When go list fails, the whole loader type-checks the standard library
// from source: on the batched run before loading, and on an on-demand run
// in the middle of a load, which then starts over. A file that left the
// build cache is located again on demand.
func TestExportFallback(t *testing.T) {
	dirs := []string{"testdata/plaingo"}
	withExports(t, &exportIndex{list: goListExports, files: map[string]string{}})
	want := reportJSON(t, dirs)
	std := stdExports.files
	if len(std) == 0 || std["sync"] == "" {
		t.Fatalf("index after a load: %v", std)
	}

	gone := filepath.Join(t.TempDir(), "gone")
	vanished := func() map[string]string {
		files := map[string]string{"sync": gone}
		for p, f := range std {
			if p != "sync" {
				files[p] = f
			}
		}
		return files
	}

	for _, c := range []struct {
		name   string
		index  *exportIndex
		export bool
	}{
		{"batch fails", &exportIndex{list: failingList, files: map[string]string{}}, false},
		{"on-demand fails", &exportIndex{list: failingList, files: vanished()}, false},
		{"file vanished", &exportIndex{list: goListExports, files: vanished()}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			withExports(t, c.index)
			l, _, err := load(dirs)
			if err != nil {
				t.Fatal(err)
			}
			if got := l.exports != nil; got != c.export {
				t.Errorf("std from export data: %v, want %v", got, c.export)
			}
			if got := reportJSON(t, dirs); got != want {
				t.Errorf("report differs from the export-data one:\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}
