package static

import (
	"errors"
	"fmt"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The loader takes the standard library's types from the export data the
// compiler writes to the build cache, not from source: the analysis never
// looks inside a std function body, and export data is read in a fraction
// of the time a type-check of the std import closure takes. One
// `go list -export` run per load locates the data for every std import of
// the universe at once (a run per package is about ten times slower), and
// the files it names are remembered for the life of the process.
//
// The run sets CGO_ENABLED=0: the exported std API does not depend on cgo,
// and a build cache filled by cgo-free builds (the verdict benchmark's)
// would otherwise have net and its dependents rebuilt with a C compiler.
// GOTOOLCHAIN=local makes a go.mod that asks for a newer toolchain fail
// the run, so the loader falls back to source instead of downloading one.

// exportIndex is a memo of std import path → export data file ("" when
// the package has none), filled by list and shared by concurrent loads.
type exportIndex struct {
	list  func(dir string, paths []string) (map[string]string, error)
	mu    sync.Mutex
	files map[string]string
}

// stdExports is the process's export-data index.
var stdExports = &exportIndex{list: goListExports, files: map[string]string{}}

// resolve makes sure the index holds every path in paths, with one list
// run from dir for those it lacks.
func (x *exportIndex) resolve(dir string, paths []string) error {
	x.mu.Lock()
	var missing []string
	for _, p := range paths {
		if _, ok := x.files[p]; !ok {
			missing = append(missing, p)
		}
	}
	x.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	return x.update(dir, missing)
}

// update runs list for paths from dir and records what it reports.
func (x *exportIndex) update(dir string, paths []string) error {
	files, err := x.list(dir, paths)
	if err != nil {
		return err
	}
	x.mu.Lock()
	for p, f := range files {
		x.files[p] = f
	}
	x.mu.Unlock()
	return nil
}

// file returns path's export data file, if the index has resolved path.
func (x *exportIndex) file(path string) (string, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	f, ok := x.files[path]
	return f, ok
}

// goListExports runs `go list -export` for paths from dir with the go
// command of the toolchain whose standard library the source importer
// would read.
func goListExports(dir string, paths []string) (map[string]string, error) {
	if build.Default.GOROOT == "" {
		return nil, errors.New("no GOROOT")
	}
	args := append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOTOOLCHAIN=local")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	files := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			files[path] = file
		}
	}
	return files, nil
}

// lookup opens path's export data for the gc importer. A path the index
// lacks, or whose file has left the build cache, is resolved again on
// demand; if that run fails, the universe is loaded again from source.
func (l *loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports.file(path)
	if ok && file != "" {
		f, err := os.Open(file)
		if !errors.Is(err, fs.ErrNotExist) {
			return f, err
		}
	}
	if !ok || file != "" { // not resolved yet, or gone from the build cache
		if err := l.exports.update(l.listDir, []string{path}); err != nil {
			l.listFailed = true
			return nil, err
		}
		file, _ = l.exports.file(path)
	}
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// stdImports returns, sorted, the imports of the packages in dirs and in
// their module-local import closure that the std importer answers, from
// an imports-only parse of the same files the loader type-checks.
func (l *loader) stdImports(dirs []string) []string {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	std := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		// A parse error leaves the imports parsed so far.
		pkgs, _ := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return buildsFile(dir, fi)
		}, parser.ImportsOnly)
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil || path == "C" || path == "unsafe" {
						continue
					}
					if d, ok := l.moduleDir(path); ok {
						visit(d)
					} else {
						std[path] = true
					}
				}
			}
		}
	}
	for _, d := range dirs {
		visit(d)
	}
	out := make([]string, 0, len(std))
	for p := range std {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
