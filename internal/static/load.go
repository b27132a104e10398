package static

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadedPackage is one type-checked target package.
type loadedPackage struct {
	name  string
	dir   string
	files []*ast.File
	pkg   *types.Package
}

// loader parses and type-checks packages with the go/* packages only:
// module-local import paths are resolved from source relative to the
// enclosing go.mod; every other import comes from the compiler's export
// data, which one `go list -export` run locates (export.go), or, when that
// run fails, from the standard library's source for the whole universe.
// Type errors are collected, not fatal — the analyzer degrades to
// "unknown" verdicts where type information is missing, it never refuses
// a package outright.
type loader struct {
	fset    *token.FileSet
	info    *types.Info
	std     types.Importer
	modRoot string
	modPath string
	cache   map[string]*types.Package
	// declsByObj indexes every function declaration seen anywhere in the
	// module (targets and module imports), so the interpreter can inline
	// helpers across package boundaries.
	declsByObj map[*types.Func]*ast.FuncDecl
	// filePkgs maps every parsed file to its package's import path.
	filePkgs map[*token.File]string
	typeErrs []error

	// exports is the export-data index std imports come from, nil when
	// they are type-checked from source. listDir is where `go list` runs;
	// listFailed records that an on-demand run failed, so the universe
	// must be loaded again from source.
	exports    *exportIndex
	listDir    string
	listFailed bool
}

// load parses and type-checks the packages rooted at dirs as one
// universe. Std imports come from export data; if `go list` cannot run or
// fails, before the load or on demand during it, the whole universe is
// loaded with the source importer instead, so it never holds two copies
// of a std package.
func load(dirs []string) (*loader, []*loadedPackage, error) {
	l, pkgs, err := loadWith(dirs, stdExports)
	if l.listFailed {
		return loadWith(dirs, nil)
	}
	return l, pkgs, err
}

// loadWith loads dirs with std imports from exports, or from source when
// exports is nil or cannot resolve the universe's std imports.
func loadWith(dirs []string, exports *exportIndex) (*loader, []*loadedPackage, error) {
	l := newLoader()
	for _, d := range dirs {
		if l.modRoot == "" {
			l.findModule(d)
		}
	}
	if exports != nil && len(dirs) > 0 && exports.resolve(dirs[0], l.stdImports(dirs)) == nil {
		l.exports, l.listDir = exports, dirs[0]
		l.std = importer.ForCompiler(l.fset, "gc", l.lookup)
	}
	var pkgs []*loadedPackage
	for _, d := range dirs {
		p, err := l.loadDir(d)
		if err != nil {
			return l, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return l, pkgs, nil
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*types.Package{},
		declsByObj: map[*types.Func]*ast.FuncDecl{},
		filePkgs:   map[*token.File]string{},
	}
}

// findModule walks up from dir to the enclosing go.mod and records the
// module root and path. Outside a module the loader still works; only
// module-local imports become unresolvable.
func (l *loader) findModule(dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for cur := abs; ; cur = filepath.Dir(cur) {
		data, err := os.ReadFile(filepath.Join(cur, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					l.modRoot = cur
					l.modPath = strings.TrimSpace(rest)
					return
				}
			}
			return
		}
		if filepath.Dir(cur) == cur {
			return
		}
	}
}

// moduleDir maps a module-local import path to its directory.
func (l *loader) moduleDir(path string) (string, bool) {
	if l.modPath == "" || (path != l.modPath && !strings.HasPrefix(path, l.modPath+"/")) {
		return "", false
	}
	return filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))), true
}

// errCgo is the one warning for import "C": cgo is outside the model (the
// translator diagnoses it), so the loader answers the import itself, with
// an empty package, whichever importer the universe uses.
var errCgo = errors.New("cgo is outside the model; C stays untyped")

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	var pkg *types.Package
	var err error
	if dir, ok := l.moduleDir(path); ok {
		pkg, _, err = l.check(path, dir, false)
	} else if path == "C" {
		err = errCgo
	} else {
		pkg, err = l.std.Import(path)
	}
	if err != nil {
		// Record a placeholder so references through the import degrade to
		// missing type info instead of cascading errors.
		l.typeErrs = append(l.typeErrs, fmt.Errorf("import %q: %w", path, err))
		pkg = types.NewPackage(path, filepath.Base(path))
	}
	l.cache[path] = pkg
	return pkg, nil
}

// check parses and type-checks the package in dir. Target packages keep
// their file list for analysis; imported module packages are indexed for
// declaration lookup only.
func (l *loader) check(importPath, dir string, target bool) (*types.Package, []*ast.File, error) {
	pkgs, err := parser.ParseDir(l.fset, dir, func(fi fs.FileInfo) bool {
		return buildsFile(dir, fi)
	}, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for name := range pkgs {
		if !strings.HasSuffix(name, "_test") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("static: no Go packages in %s", dir)
	}
	sort.Strings(names)
	// One buildable package per directory in this module; if a directory
	// somehow holds several, analyze them all under one universe.
	var allFiles []*ast.File
	var first *types.Package
	for _, name := range names {
		var files []*ast.File
		var fnames []string
		for fname := range pkgs[name].Files {
			fnames = append(fnames, fname)
		}
		sort.Strings(fnames)
		for _, fname := range fnames {
			files = append(files, pkgs[name].Files[fname])
		}
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { l.typeErrs = append(l.typeErrs, err) },
		}
		pkg, err := conf.Check(importPath, l.fset, files, l.info)
		if err != nil && pkg == nil {
			return nil, nil, err
		}
		l.indexDecls(files)
		for _, f := range files {
			l.filePkgs[l.fset.File(f.Pos())] = importPath
		}
		if first == nil {
			first = pkg
		}
		allFiles = append(allFiles, files...)
	}
	return first, allFiles, nil
}

// buildsFile reports whether the loader takes the file fi of dir: a
// non-test Go file whose name and build constraints match the host's GOOS
// and GOARCH with cgo off, as the `go list -export` run that supplies the
// standard library builds it. So platform twins, such as an _amd64.go
// file and its //go:build !amd64 fallback, are never type-checked
// together. A file whose constraints do not parse is kept, for the type
// checker to report on.
func buildsFile(dir string, fi fs.FileInfo) bool {
	if strings.HasSuffix(fi.Name(), "_test.go") {
		return false
	}
	ok, err := hostBuild.MatchFile(dir, fi.Name())
	return ok || err != nil
}

// hostBuild is the build context buildsFile matches files against.
var hostBuild = func() build.Context {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return ctxt
}()

// indexDecls records every FuncDecl's types.Func for cross-package inlining.
func (l *loader) indexDecls(files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if obj, ok := l.info.Defs[fd.Name].(*types.Func); ok {
				l.declsByObj[obj] = fd
			}
		}
	}
}

// loadDir loads one target directory as a package universe member.
func (l *loader) loadDir(dir string) (*loadedPackage, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath := "static-target/" + filepath.Base(abs)
	if l.modRoot != "" {
		if rel, err := filepath.Rel(l.modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			importPath = l.modPath
			if rel != "." {
				importPath += "/" + filepath.ToSlash(rel)
			}
		}
	}
	pkg, files, err := l.check(importPath, dir, true)
	if err != nil {
		return nil, fmt.Errorf("static: loading %s: %w", dir, err)
	}
	if cached, ok := l.cache[importPath]; ok && cached != pkg {
		// Keep the richer result.
		l.cache[importPath] = pkg
	} else {
		l.cache[importPath] = pkg
	}
	name := ""
	if pkg != nil {
		name = pkg.Name()
	}
	return &loadedPackage{name: name, dir: dir, files: files, pkg: pkg}, nil
}

// trimLoc shortens a file path to its last two segments, matching the
// virtual runtime's location format (sched.trimPath), so static findings
// and dynamic trace locations compare textually.
func trimLoc(file string) string {
	file = filepath.ToSlash(file)
	i := strings.LastIndexByte(file, '/')
	if i < 0 {
		return file
	}
	j := strings.LastIndexByte(file[:i], '/')
	return file[j+1:]
}

// posLoc renders a token.Pos in the runtime's "dir/file.go:line" format.
func (a *analysis) posLoc(pos token.Pos) string {
	p := a.fset.Position(pos)
	if !p.IsValid() {
		return ""
	}
	return fmt.Sprintf("%s:%d", trimLoc(p.Filename), p.Line)
}
