package cooptrans

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/static"
)

// group is the compile-time shape of one storage aggregate: a leaf maps
// to exactly one entry of the program's object table, a struct fans out
// into per-field groups, and gBad marks storage the virtual runtime
// cannot model (reported as a diagnostic at first use, not at
// declaration, so unused exotic state does not block translation).
type gKind uint8

const (
	gInt gKind = iota
	gVol
	gMutex
	gCond
	gChan
	gWg
	gStruct
	gBad
)

type group struct {
	kind   gKind
	obj    int // object-table index for leaf kinds
	fields map[string]*group
	// bad holds the reason for gBad; code its diagnostic class.
	bad  string
	code string
}

func badGroup(code, reason string) *group { return &group{kind: gBad, bad: reason, code: code} }

// translator is the per-package translation context.
type translator struct {
	u     *static.Universe
	pkg   *static.LoadedPackage
	diags []Diagnostic

	objs   []objDecl
	groups map[types.Object]*group
	// volPaths marks "var[.field.path]" strings accessed through
	// sync/atomic, discovered by the pre-scan; the matching leaves become
	// volatiles.
	volPaths map[string]bool

	funcs    map[string]*irFunc
	order    []*irFunc
	stack    map[string]bool
	nameSeq  map[string]int
	groupIDs map[*group]int
}

func (tr *translator) loc(pos token.Pos) string { return static.FormatPos(tr.u.Fset, pos) }

func (tr *translator) diagAt(pos token.Pos, code, format string, args ...any) {
	tr.diags = append(tr.diags, Diagnostic{
		Pos:  tr.loc(pos),
		Code: code,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// addObj appends one object to the table and returns its index.
func (tr *translator) addObj(d objDecl) int {
	tr.objs = append(tr.objs, d)
	return len(tr.objs) - 1
}

// discover scans the target package: import restrictions, atomic-access
// paths, and the package-level shared-state table, in deterministic
// file/declaration order.
func (tr *translator) discover() {
	for _, f := range tr.pkg.Files {
		for _, imp := range f.Imports {
			switch imp.Path.Value {
			case `"C"`:
				tr.diagAt(imp.Pos(), CodeCgo, "cgo is outside the virtual runtime's model")
			case `"reflect"`, `"unsafe"`:
				tr.diagAt(imp.Pos(), CodeReflection, "%s breaks the static shape the translator depends on", imp.Path.Value)
			}
		}
	}
	tr.scanAtomicPaths()
	for _, f := range tr.pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var init ast.Expr
					if i < len(vs.Values) {
						init = vs.Values[i]
					}
					tr.declareVar(name, init)
				}
			}
		}
	}
}

// declareVar classifies one package-level variable and allocates its
// objects.
func (tr *translator) declareVar(name *ast.Ident, init ast.Expr) {
	if name.Name == "_" {
		return
	}
	obj, ok := tr.u.Info.Defs[name].(*types.Var)
	if !ok {
		return
	}
	tr.groups[obj] = tr.classify(obj.Type(), static.PathKeyID(tr.u.Fset, obj, ""), name.Name, init, name.Pos())
}

// groupFor returns the compile-time group of a package-level variable,
// lazily classifying variables from module-local imported packages
// (whose declarations were not walked by discover).
func (tr *translator) groupFor(obj *types.Var) *group {
	if g, ok := tr.groups[obj]; ok {
		return g
	}
	g := tr.classify(obj.Type(), static.PathKeyID(tr.u.Fset, obj, ""), obj.Name(), nil, obj.Pos())
	tr.groups[obj] = g
	return g
}

// classify maps a Go type (plus its initializer, when available) to a
// group, allocating object-table entries for every leaf.
func (tr *translator) classify(t types.Type, keyID, display string, init ast.Expr, pos token.Pos) *group {
	loc := tr.loc(pos)
	switch named := namedOf(t); {
	case named != nil && isPkgType(named, "sync", "Mutex"),
		named != nil && isPkgType(named, "sync", "RWMutex"):
		return &group{kind: gMutex, obj: tr.addObj(objDecl{kind: oMutex, name: keyID, loc: loc})}
	case named != nil && isPkgType(named, "sync", "WaitGroup"):
		return &group{kind: gWg, obj: tr.addObj(objDecl{kind: oWg, name: keyID, loc: loc})}
	case named != nil && isPkgType(named, "sync", "Once"):
		return &group{kind: gVol, obj: tr.addObj(objDecl{kind: oVol, name: keyID, loc: loc})}
	case named != nil && isPkgType(named, "sync", "Cond"):
		return tr.classifyCond(keyID, init, pos)
	case named != nil && isAtomicType(named):
		iv, _ := tr.constInit(init)
		return &group{kind: gVol, obj: tr.addObj(objDecl{kind: oVol, name: keyID, init: iv, loc: loc})}
	case named != nil && isPkgType(named, "sync", "Map"),
		named != nil && isPkgType(named, "sync", "Pool"):
		return badGroup(CodeSharedKind, "sync."+named.Obj().Name()+" has no virtual-runtime model")
	}

	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&(types.IsInteger|types.IsBoolean) == 0 {
			return badGroup(CodeSharedKind, fmt.Sprintf("shared %s storage is outside the int64 value model", u))
		}
		iv, okc := tr.constInit(init)
		if init != nil && !okc {
			return badGroup(CodeSharedKind, fmt.Sprintf("initializer of %s is not a constant", display))
		}
		kind, objK := gInt, oVar
		if tr.volPaths[keyID] {
			kind, objK = gVol, oVol
		}
		return &group{kind: kind, obj: tr.addObj(objDecl{kind: objK, name: keyID, init: iv, loc: loc})}
	case *types.Chan:
		capN, ok := tr.chanInitCap(init)
		if !ok {
			return badGroup(CodeDynamicChan, fmt.Sprintf("channel %s needs a make initializer with a constant capacity", display))
		}
		return &group{kind: gChan, obj: tr.addObj(objDecl{kind: oChan, name: keyID, cap: capN, loc: loc})}
	case *types.Struct:
		return tr.classifyStruct(u, keyID, display, init, pos)
	case *types.Pointer:
		// A pointer-typed package variable owning its target: only the
		// &CompositeLit form is aliasing-free.
		if un, ok := init.(*ast.UnaryExpr); ok && un.Op == token.AND {
			if cl, ok := un.X.(*ast.CompositeLit); ok {
				if st, ok := u.Elem().Underlying().(*types.Struct); ok {
					return tr.classifyStruct(st, keyID, display, cl, pos)
				}
			}
		}
		return badGroup(CodeSharedKind, fmt.Sprintf("pointer-typed shared variable %s may alias; only &T{...} initializers translate", display))
	}
	return badGroup(CodeSharedKind, fmt.Sprintf("shared storage of type %s is outside the modeled subset", t))
}

func (tr *translator) classifyStruct(st *types.Struct, keyID, display string, init ast.Expr, pos token.Pos) *group {
	g := &group{kind: gStruct, fields: map[string]*group{}}
	var lit *ast.CompositeLit
	switch x := init.(type) {
	case *ast.CompositeLit:
		lit = x
	case nil:
	default:
		return badGroup(CodeSharedKind, fmt.Sprintf("initializer of %s is not a composite literal", display))
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Anonymous() {
			return badGroup(CodeSharedKind, fmt.Sprintf("embedded field in %s is outside the modeled subset", display))
		}
		var fieldInit ast.Expr
		if lit != nil {
			fieldInit = fieldValue(lit, f.Name(), i)
		}
		g.fields[f.Name()] = tr.classify(f.Type(), keyID+"."+f.Name(), display+"."+f.Name(), fieldInit, pos)
	}
	return g
}

// classifyCond handles `var c = sync.NewCond(&mu)` package declarations;
// the guard must itself resolve to a translated mutex.
func (tr *translator) classifyCond(keyID string, init ast.Expr, pos token.Pos) *group {
	call, ok := init.(*ast.CallExpr)
	if !ok {
		return badGroup(CodeUnresolvedID, "sync.Cond needs a sync.NewCond(&mu) initializer")
	}
	muIdx, ok := tr.condGuardIndex(call)
	if !ok {
		return badGroup(CodeUnresolvedID, "sync.NewCond guard does not resolve to a translated mutex")
	}
	return &group{kind: gCond, obj: tr.addObj(objDecl{kind: oCond, name: keyID, mu: muIdx, loc: tr.loc(pos)})}
}

// condGuardIndex resolves the &mu argument of a sync.NewCond call to an
// already-declared mutex object. Package-level guards only (locals are
// handled by the function compiler, which has scope context).
func (tr *translator) condGuardIndex(call *ast.CallExpr) (int, bool) {
	if len(call.Args) != 1 {
		return 0, false
	}
	un, ok := call.Args[0].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return 0, false
	}
	g := tr.pkgPathGroup(un.X)
	if g == nil || g.kind != gMutex {
		return 0, false
	}
	return g.obj, true
}

// pkgPathGroup resolves an ident/selector path rooted at a package-level
// variable to its group, or nil.
func (tr *translator) pkgPathGroup(e ast.Expr) *group {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := tr.u.Info.Uses[x].(*types.Var); ok && isPackageLevel(v) {
			return tr.groupFor(v)
		}
	case *ast.SelectorExpr:
		base := tr.pkgPathGroup(x.X)
		if base != nil && base.kind == gStruct {
			return base.fields[x.Sel.Name]
		}
	case *ast.ParenExpr:
		return tr.pkgPathGroup(x.X)
	}
	return nil
}

// constInit evaluates a constant integer/boolean initializer.
func (tr *translator) constInit(e ast.Expr) (int64, bool) {
	if e == nil {
		return 0, true
	}
	tv, ok := tr.u.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int:
		v, ok := constant.Int64Val(tv.Value)
		return v, ok
	case constant.Bool:
		return b2i(constant.BoolVal(tv.Value)), true
	}
	return 0, false
}

// chanInitCap extracts the constant capacity from a make(chan T[, n])
// initializer.
func (tr *translator) chanInitCap(init ast.Expr) (int, bool) {
	call, ok := init.(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return 0, false
	}
	if len(call.Args) == 1 {
		return 0, true
	}
	if len(call.Args) == 2 {
		if v, ok := tr.constInit(call.Args[1]); ok {
			return int(v), true
		}
	}
	return 0, false
}

// scanAtomicPaths records every "var[.field]" path whose address is
// passed to a sync/atomic function, so classify can promote those leaves
// to volatiles.
func (tr *translator) scanAtomicPaths() {
	for _, f := range tr.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(tr.u.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, a := range call.Args {
				un, ok := a.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if key, ok := tr.pathKeyOf(un.X); ok {
					tr.volPaths[key] = true
				}
			}
			return true
		})
	}
}

// pathKeyOf renders the static-style key id of an ident/selector path
// rooted at a package-level variable.
func (tr *translator) pathKeyOf(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := tr.u.Info.Uses[x].(*types.Var); ok && isPackageLevel(v) {
			return static.PathKeyID(tr.u.Fset, v, ""), true
		}
	case *ast.SelectorExpr:
		base, ok := tr.pathKeyOf(x.X)
		if ok {
			return base + "." + x.Sel.Name, true
		}
	case *ast.ParenExpr:
		return tr.pathKeyOf(x.X)
	}
	return "", false
}

// ---- small type helpers ----

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func isPkgType(n *types.Named, path, name string) bool {
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

func isAtomicType(n *types.Named) bool {
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	switch obj.Name() {
	case "Int32", "Int64", "Uint32", "Uint64", "Bool", "Value", "Pointer":
		return obj.Name() != "Value" && obj.Name() != "Pointer"
	}
	return false
}

func isPackageLevel(v *types.Var) bool {
	if v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// fieldValue finds a struct field's initializer inside a composite
// literal (keyed or positional).
func fieldValue(lit *ast.CompositeLit, name string, idx int) ast.Expr {
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
				return kv.Value
			}
			continue
		}
		if i == idx {
			return el
		}
	}
	return nil
}

// calleeFunc resolves a call's target *types.Func (named function or
// method), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
