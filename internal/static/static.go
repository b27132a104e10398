// Package static is a whole-package cooperability analysis over Go
// source: the static counterpart of the dynamic checker in
// internal/core. It abstractly interprets functions that use the virtual
// runtime DSL (internal/sched) or plain Go sync primitives, assigns
// mover classes with the shared movers.Policy taxonomy, and runs the
// reduction automaton (core.Automaton) over every yield-delimited static
// path. The result classifies each declaration as yield-free cooperable,
// cooperable as written, needing yields (with the minimal program points
// where one must be inserted), or unknown.
//
// Soundness direction: claims are one-sided. A "needs yields" or
// "unknown" verdict may be a false alarm, but a "cooperable" claim is
// intended to hold on every dynamic schedule — provided the analyzed
// directories cover all code the program executes (the whole-universe
// assumption). The differential test in this package cross-checks that
// contract against the dynamic checker over exhaustive schedule
// exploration.
package static

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/movers"
	"repro/internal/obs"
)

// Config parameterizes an analysis run.
type Config struct {
	// Policy is the mover taxonomy; zero value is movers.DefaultPolicy().
	Policy movers.Policy
	// Specs are yield-spec files to diagnose against the analysis.
	Specs []string
	// Registry receives static.* metrics (nil: obs.Default).
	Registry *obs.Registry
}

const (
	passCollect = iota // gather accesses, guards, taints
	passVerify         // run the automaton, record findings
)

// accessInfo accumulates pass-A facts about one abstract variable class.
type accessInfo struct {
	guards   map[string]bool // intersection of guard sets; nil = no access yet
	write    bool
	ctxs     map[string]bool
	multiCtx bool
}

// rootResult accumulates per-declaration facts across both passes.
type rootResult struct {
	decl        *ast.FuncDecl
	obj         *types.Func
	name        string
	loc         string
	boundaries  int
	yields      int
	unknown     []string
	unknownSeen map[string]bool
}

func (r *rootResult) addUnknown(reason string) {
	if r == nil {
		return
	}
	if r.unknownSeen == nil {
		r.unknownSeen = map[string]bool{}
	}
	if r.unknownSeen[reason] {
		return
	}
	r.unknownSeen[reason] = true
	r.unknown = append(r.unknown, reason)
}

type findingRec struct {
	Finding
	pos token.Pos
}

// analysis is the shared state of one run.
type analysis struct {
	cfg   Config
	fset  *token.FileSet
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	// filePkgs maps each file to its package's import path (loader.filePkgs).
	filePkgs map[*token.File]string
	pkgs     []*loadedPackage
	mode     int

	fields    fieldTable
	accesses  map[string]*accessInfo
	tainted   map[string]string
	multiKeys map[string]bool
	racySet   map[string]bool
	sawFork   bool

	opLocs    map[string]bool
	yieldLocs map[string]bool
	findings  map[string]findingRec
	roots     []*rootResult
	typeErrs  int
	warnings  []string
}

func (a *analysis) taint(k key, reason string) {
	if k.valid() {
		if _, ok := a.tainted[k.id]; !ok {
			a.tainted[k.id] = reason
		}
	}
}

func (a *analysis) taintMulti(k key) {
	if k.valid() {
		a.multiKeys[k.id] = true
	}
}

func (a *analysis) recordAccess(k key, guards map[string]bool, ctx string, ctxMulti, write bool) {
	info := a.accesses[k.id]
	if info == nil {
		info = &accessInfo{ctxs: map[string]bool{}}
		a.accesses[k.id] = info
	}
	if info.guards == nil {
		info.guards = guards
	} else {
		for id := range info.guards {
			if !guards[id] {
				delete(info.guards, id)
			}
		}
	}
	info.write = info.write || write
	if len(info.ctxs) < 4 {
		info.ctxs[ctx] = true
	}
	info.multiCtx = info.multiCtx || ctxMulti
}

// computeRacy derives the racy-class set from pass-A facts: a class may
// race iff it is written, may be reached by more than one thread
// context, and has no guard lock held at every access — plus every
// tainted or many-object class, conservatively.
func (a *analysis) computeRacy() {
	a.racySet = map[string]bool{}
	if !a.sawFork {
		// No thread is ever created in the analyzed universe: nothing can
		// race (taints included — there is no concurrency to taint).
		return
	}
	for id := range a.tainted {
		a.racySet[id] = true
	}
	for id := range a.multiKeys {
		a.racySet[id] = true
	}
	for id, info := range a.accesses {
		if !info.write {
			continue
		}
		if !info.multiCtx && len(info.ctxs) <= 1 {
			continue
		}
		if len(info.guards) == 0 {
			a.racySet[id] = true
		}
		// A guard that was itself demoted cannot protect.
		ok := false
		for g := range info.guards {
			if !a.multiKeys[g] && a.tainted[g] == "" {
				ok = true
			}
		}
		if !ok {
			a.racySet[id] = true
		}
	}
}

func (a *analysis) keyRacy(k key) bool {
	if !k.valid() {
		return true
	}
	if !a.sawFork {
		return false
	}
	if k.multi || a.multiKeys[k.id] || a.tainted[k.id] != "" {
		return true
	}
	return a.racySet[k.id]
}

func (a *analysis) addFinding(f Finding) {
	id := f.Loc + "|" + f.Op
	if _, ok := a.findings[id]; ok {
		return
	}
	a.findings[id] = findingRec{Finding: f}
}

// Analyze loads the packages rooted at dirs as one universe and runs the
// two-pass cooperability analysis over every function declaration.
func Analyze(dirs []string, cfg Config) (*Report, error) {
	zero := movers.Policy{}
	if cfg.Policy == zero {
		cfg.Policy = movers.DefaultPolicy()
	}
	l, pkgs, err := load(dirs)
	if err != nil {
		return nil, err
	}
	a := &analysis{
		cfg:       cfg,
		fset:      l.fset,
		info:      l.info,
		decls:     l.declsByObj,
		filePkgs:  l.filePkgs,
		pkgs:      pkgs,
		fields:    fieldTable{},
		accesses:  map[string]*accessInfo{},
		tainted:   map[string]string{},
		multiKeys: map[string]bool{},
		opLocs:    map[string]bool{},
		yieldLocs: map[string]bool{},
		findings:  map[string]findingRec{},
		typeErrs:  len(l.typeErrs),
		warnings:  warningStrings(l.typeErrs),
	}
	a.collectRoots()

	a.mode = passCollect
	for _, r := range a.roots {
		a.runRoot(r)
	}
	a.computeRacy()

	a.mode = passVerify
	for _, r := range a.roots {
		r.boundaries, r.yields = 0, 0
		a.runRoot(r)
	}

	rep := a.report(dirs)
	a.publishMetrics(rep)
	return rep, nil
}

// collectRoots registers every function declaration of the target
// packages, in deterministic (file, position) order.
func (a *analysis) collectRoots() {
	for _, p := range a.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, _ := a.info.Defs[fd.Name].(*types.Func)
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					name = recvTypeName(fd.Recv.List[0].Type) + "." + name
				}
				if p.name != "" {
					name = p.name + "." + name
				}
				r := &rootResult{decl: fd, obj: obj, name: name, loc: a.posLoc(fd.Pos())}
				if fd.Body == nil {
					r.addUnknown("no function body")
				}
				a.roots = append(a.roots, r)
			}
		}
	}
}

func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	}
	return "?"
}

// runRoot interprets one declaration standalone: parameters of
// identity-bearing DSL types get stable per-parameter classes, so a
// helper's body is checked against arbitrary (but consistent) arguments.
func (a *analysis) runRoot(r *rootResult) {
	if r.decl.Body == nil {
		return
	}
	it := &interp{
		an:   a,
		root: r,
		env:  newEnv(nil),
		held: map[string]heldLock{},
		st:   phaseState{pre: true},
		live: true,
		ctx:  "root:" + r.name,
	}
	bindStandalone := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, nm := range field.Names {
				obj, ok := a.info.Defs[nm].(*types.Var)
				if !ok {
					continue
				}
				kk := dslValueKind(obj.Type())
				switch kk {
				case kindVar, kindMutex, kindVolatile:
					it.env.define(obj, binding{kind: bindKey,
						key: pathKey(a.fset, kk, obj, "", isCollection(obj.Type()))})
				case kindOpaque:
					if isStructish(obj.Type()) {
						it.env.define(obj, binding{kind: bindKey,
							key: pathKey(a.fset, kindOpaque, obj, "", false)})
					}
				}
			}
		}
	}
	bindStandalone(r.decl.Recv)
	bindStandalone(r.decl.Type.Params)

	id := "root:" + r.name
	if r.obj != nil {
		id = a.inlineID(r.obj, nil)
	}
	it.stack = append(it.stack, id)
	fr := &frame{}
	it.frames = append(it.frames, fr)
	it.stmts(r.decl.Body.List)
	if it.live {
		it.mergeExit(fr)
	}
	if fr.exitSet {
		it.restore(fr.exit)
	}
	it.runDeferred(fr)
}

func isStructish(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

// report assembles the deterministic result.
func (a *analysis) report(dirs []string) *Report {
	rep := &Report{Dirs: dirs, TypeErrors: a.typeErrs, Warnings: a.warnings}

	var all []findingRec
	for _, f := range a.findings {
		all = append(all, f)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Loc != all[j].Loc {
			return all[i].Loc < all[j].Loc
		}
		return all[i].Op < all[j].Op
	})
	for _, f := range all {
		rep.Findings = append(rep.Findings, f.Finding)
	}

	for _, r := range a.roots {
		fr := FuncReport{
			Name:       r.name,
			Loc:        r.loc,
			Yields:     r.yields,
			Boundaries: r.boundaries,
			Unknown:    r.unknown,
		}
		start, end := a.fset.Position(r.decl.Pos()), a.fset.Position(r.decl.End())
		sfile := trimLoc(start.Filename)
		fr.File, fr.StartLine, fr.EndLine = sfile, start.Line, end.Line
		for _, f := range all {
			floc, fline := splitLoc(f.Loc)
			if floc == sfile && fline >= start.Line && fline <= end.Line {
				fr.Findings = append(fr.Findings, f.Finding)
			}
		}
		switch {
		case len(fr.Unknown) > 0:
			fr.Verdict = VerdictUnknown
		case len(fr.Findings) > 0:
			fr.Verdict = VerdictNeedsYields
		case fr.Boundaries > 0:
			fr.Verdict = VerdictCooperable
		default:
			fr.Verdict = VerdictYieldFree
		}
		rep.Funcs = append(rep.Funcs, fr)
		rep.Stats.Funcs++
		switch fr.Verdict {
		case VerdictYieldFree:
			rep.Stats.YieldFree++
		case VerdictCooperable:
			rep.Stats.Cooperable++
		case VerdictNeedsYields:
			rep.Stats.NeedsYields++
		case VerdictUnknown:
			rep.Stats.Unknown++
		}
	}
	rep.Stats.Findings = len(rep.Findings)

	for _, path := range a.cfg.Specs {
		rep.SpecDiags = append(rep.SpecDiags, a.checkSpec(path, rep)...)
	}
	return rep
}

func splitLoc(loc string) (string, int) {
	i := strings.LastIndexByte(loc, ':')
	if i < 0 {
		return loc, 0
	}
	n := 0
	fmt.Sscanf(loc[i+1:], "%d", &n)
	return loc[:i], n
}

func (a *analysis) publishMetrics(rep *Report) {
	reg := a.cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	reg.Counter("static.funcs").Add(int64(rep.Stats.Funcs))
	reg.Counter("static.yieldfree").Add(int64(rep.Stats.YieldFree))
	reg.Counter("static.findings").Add(int64(rep.Stats.Findings))
}
