package static

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
)

// A key names a static equivalence class of runtime objects: a shared
// variable class, a mutex class, or an opaque DSL value. Two runtime
// objects with the same key may be the same object; objects with
// different keys are definitely distinct (keys partition creation sites
// and storage paths). The analysis is sound as long as it only treats a
// key as a *guard* when the class is a singleton at runtime — creation
// sites inside loops and indexed storage break that, and are demoted via
// the multi flag.
type key struct {
	id string
	// kind discriminates what the key denotes.
	kind keyKind
	// multi marks classes that may contain more than one runtime object
	// (creator executed in a loop, element of a slice/map). Accesses to
	// multi var classes are always treated racy; multi mutex classes never
	// count as guards.
	multi bool
}

type keyKind uint8

const (
	kindVar      keyKind = iota // *sched.Var (plain shared variable)
	kindVolatile                // *sched.Volatile
	kindMutex                   // *sched.Mutex or sync lock
	kindOpaque                  // T, Program, Cond, Handle, plain-Go storage
	kindPlainVar                // plain-Go memory accessed via sync/atomic rules
)

func (k key) valid() bool { return k.id != "" }

// binding is the abstract value of a local variable or parameter.
type binding struct {
	kind bKind
	key  key         // bindKey
	str  string      // bindConst (known string value)
	fn   ast.Node    // bindFunc: *ast.FuncLit, or nil with fobj set
	fobj *types.Func // bindFunc: named function
	env  *env        // bindFunc: environment captured by a FuncLit
}

type bKind uint8

const (
	bindNone  bKind = iota // unknown / untracked value
	bindKey                // a tracked DSL or storage object
	bindConst              // a compile-time-ish string
	bindFunc               // a function value we can inline or sub-root
)

// env maps local objects to bindings, with lexical parenting so closures
// see their captured variables. Struct-field and slice bindings live in
// the analysis-global field tables keyed by the owner key, because fields
// outlive any single scope.
type env struct {
	parent *env
	vars   map[*types.Var]binding
}

func newEnv(parent *env) *env {
	return &env{parent: parent, vars: map[*types.Var]binding{}}
}

func (e *env) lookup(v *types.Var) (binding, bool) {
	for s := e; s != nil; s = s.parent {
		if b, ok := s.vars[v]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// bind sets v's binding in the scope where it is already bound (so
// assignments inside closures update the captured slot), or the current
// scope for a fresh definition.
func (e *env) bind(v *types.Var, b binding) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[v]; ok {
			s.vars[v] = b
			return
		}
	}
	e.vars[v] = b
}

// define always binds in the innermost scope (parameters, :=).
func (e *env) define(v *types.Var, b binding) { e.vars[v] = b }

// fieldTable tracks bindings of struct fields and similar derived slots,
// keyed by owner-key id then field name. It is global to the analysis so
// a struct built in a constructor keeps its field bindings when the value
// flows (by key) into other functions.
type fieldTable map[string]map[string]binding

func (ft fieldTable) get(owner key, field string) (binding, bool) {
	m, ok := ft[owner.id]
	if !ok {
		return binding{}, false
	}
	b, ok := m[field]
	return b, ok
}

func (ft fieldTable) set(owner key, field string, b binding) {
	m, ok := ft[owner.id]
	if !ok {
		m = map[string]binding{}
		ft[owner.id] = m
	}
	if old, ok := m[field]; ok && !sameBinding(old, b) {
		// Conflicting rebind: the slot no longer has a single abstract
		// value. Degrade to untracked, which taints uses conservatively.
		m[field] = binding{}
		return
	}
	m[field] = b
}

func sameBinding(a, b binding) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case bindKey:
		return a.key.id == b.key.id
	case bindConst:
		return a.str == b.str
	case bindFunc:
		return a.fn == b.fn && a.fobj == b.fobj
	}
	return true
}

// freshKey mints a key for a creation site. inst distinguishes inline
// instances of the same helper so two calls to a constructor produce
// distinct classes; loopDepth > 0 marks the class multi (one site, many
// runtime objects).
func freshKey(kind keyKind, inst string, pos token.Position, label string, multi bool) key {
	id := fmt.Sprintf("%s@%s:%d:%d", label, trimLoc(pos.Filename), pos.Line, pos.Column)
	if inst != "" {
		id = inst + "|" + id
	}
	return key{id: id, kind: kind, multi: multi}
}

// filePos renders a position as "file.go:line:column" for ids that already
// name their package. A FileSet offset would do as an id too, but it
// changes with whatever else the universe loaded before the file.
func filePos(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

// pathKey names storage reached from a stable root object: package-level
// variables keep their qualified name; parameters and receivers embed the
// declaration position so same-named parameters of different functions
// stay distinct classes.
func pathKey(fset *token.FileSet, kind keyKind, root types.Object, path string, multi bool) key {
	id := fmt.Sprintf("%s.%s", root.Pkg().Path(), root.Name())
	if v, ok := root.(*types.Var); ok && v.Parent() != v.Pkg().Scope() {
		id += "@" + filePos(fset.Position(root.Pos()))
	}
	if path != "" {
		id += "/" + path
	}
	return key{id: id, kind: kind, multi: multi}
}

// derivedKey names a field slot of an owner key when the field table has
// no explicit binding: distinct owners yield distinct slots, and the
// owner's multiplicity is inherited.
func derivedKey(kind keyKind, owner key, field string) key {
	return key{id: owner.id + "." + field, kind: kind, multi: owner.multi}
}

// constString extracts a compile-time string from an expression if the
// type checker computed one, or the environment bound one.
func (it *interp) constString(e ast.Expr) (string, bool) {
	if tv, ok := it.an.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := it.an.info.Uses[x].(*types.Var); ok {
			if b, ok := it.env.lookup(v); ok && b.kind == bindConst {
				return b.str, true
			}
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			l, okl := it.constString(x.X)
			r, okr := it.constString(x.Y)
			if okl && okr {
				return l + r, true
			}
		}
	case *ast.CallExpr:
		// fmt.Sprintf and friends: give up on the value but stay harmless.
	case *ast.ParenExpr:
		return it.constString(x.X)
	}
	return "", false
}
