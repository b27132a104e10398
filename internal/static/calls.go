package static

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/trace"
)

// ---- expressions ---------------------------------------------------------

// eval walks an expression for its instrumented effects and returns its
// abstract value.
func (it *interp) eval(e ast.Expr) binding {
	if e == nil || !it.live {
		return binding{}
	}
	switch x := e.(type) {
	case *ast.Ident:
		return it.evalIdent(x, false)
	case *ast.SelectorExpr:
		return it.evalSelector(x, false)
	case *ast.CallExpr:
		return it.call(x, false)
	case *ast.FuncLit:
		return binding{kind: bindFunc, fn: x, env: it.env}
	case *ast.ParenExpr:
		return it.eval(x.X)
	case *ast.StarExpr:
		return it.eval(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW { // <-ch
			it.eval(x.X)
			it.boundaryAt(x.Pos())
			return binding{}
		}
		if x.Op == token.AND { // &x: same abstract object
			return it.addressable(x.X)
		}
		return it.eval(x.X)
	case *ast.BinaryExpr:
		it.eval(x.X)
		it.eval(x.Y)
		if s, ok := it.constString(x); ok {
			return binding{kind: bindConst, str: s}
		}
		return binding{}
	case *ast.IndexExpr:
		b := it.eval(x.X)
		it.eval(x.Index)
		if b.kind == bindKey && b.key.valid() {
			return binding{kind: bindKey, key: elemOf(b.key)}
		}
		it.plainIndexRead(x)
		return binding{}
	case *ast.SliceExpr:
		b := it.eval(x.X)
		it.eval(x.Low)
		it.eval(x.High)
		it.eval(x.Max)
		return b
	case *ast.CompositeLit:
		return it.composite(x)
	case *ast.TypeAssertExpr:
		return it.eval(x.X)
	case *ast.KeyValueExpr:
		it.eval(x.Key)
		return it.eval(x.Value)
	case *ast.BasicLit:
		if s, ok := it.constString(x); ok {
			return binding{kind: bindConst, str: s}
		}
		return binding{}
	}
	return binding{}
}

// addressable resolves &x without emitting a read of x.
func (it *interp) addressable(e ast.Expr) binding {
	switch x := e.(type) {
	case *ast.Ident:
		return it.evalIdent(x, true)
	case *ast.SelectorExpr:
		return it.evalSelector(x, true)
	case *ast.IndexExpr:
		b := it.eval(x.X)
		it.eval(x.Index)
		if b.kind == bindKey && b.key.valid() {
			return binding{kind: bindKey, key: elemOf(b.key)}
		}
		return binding{}
	}
	return it.eval(e)
}

// evalIdent resolves an identifier. addrOnly suppresses the plain-memory
// read op (the identifier is being addressed or assigned, not read).
func (it *interp) evalIdent(x *ast.Ident, addrOnly bool) binding {
	obj := it.an.info.Uses[x]
	if obj == nil {
		obj = it.an.info.Defs[x]
	}
	switch o := obj.(type) {
	case *types.Var:
		if b, ok := it.env.lookup(o); ok {
			return b
		}
		if k, ok := it.storageKey(o); ok {
			if k.kind == kindPlainVar && !addrOnly {
				it.emit(trace.OpRead, k, x.Pos(), false)
			}
			return binding{kind: bindKey, key: k}
		}
		if s, ok := it.constString(x); ok {
			return binding{kind: bindConst, str: s}
		}
		return binding{}
	case *types.Func:
		return binding{kind: bindFunc, fobj: o}
	case *types.Const:
		if s, ok := it.constString(x); ok {
			return binding{kind: bindConst, str: s}
		}
	}
	return binding{}
}

// storageKey assigns a stable key to package-level variables (shared
// storage) and, for identity-bearing DSL types, to free variables reaching
// this root from outside any tracked binding.
func (it *interp) storageKey(o *types.Var) (key, bool) {
	kk := dslValueKind(o.Type())
	pkgLevel := o.Pkg() != nil && o.Parent() == o.Pkg().Scope()
	switch {
	case kk == kindVar || kk == kindMutex:
		multi := isCollection(o.Type())
		k := pathKey(it.an.fset, kk, o, "", multi)
		return k, o.Pkg() != nil
	case kk == kindVolatile:
		return pathKey(it.an.fset, kindVolatile, o, "", false), o.Pkg() != nil
	case pkgLevel && isPlainShared(o.Type()):
		return pathKey(it.an.fset, kindPlainVar, o, "", false), true
	}
	return key{}, false
}

func isCollection(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return true
	case *types.Pointer:
		return isCollection(u.Elem())
	}
	return false
}

// isPlainShared reports whether a plain-Go package variable's accesses
// should be modeled as shared-memory operations: scalars, pointers,
// structs — not types whose accesses we cannot attribute (interfaces,
// funcs).
func isPlainShared(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Basic, *types.Pointer, *types.Struct, *types.Slice, *types.Map:
		return true
	}
	return false
}

// evalSelector resolves x.f: package members, tracked struct fields, and
// plain shared fields.
func (it *interp) evalSelector(x *ast.SelectorExpr, addrOnly bool) binding {
	// Qualified identifier (pkg.Name)?
	if id, ok := x.X.(*ast.Ident); ok {
		if _, isPkg := it.an.info.Uses[id].(*types.PkgName); isPkg {
			return it.evalIdent(x.Sel, addrOnly)
		}
	}
	// Method value?
	if sel, ok := it.an.info.Selections[x]; ok && sel.Kind() == types.MethodVal {
		recv := it.eval(x.X)
		if f, ok := sel.Obj().(*types.Func); ok {
			b := binding{kind: bindFunc, fobj: f}
			b.env = it.env
			_ = recv
			return b
		}
	}
	base := it.eval(x.X)
	field := x.Sel.Name
	if base.kind == bindKey && base.key.valid() {
		if fb, ok := it.an.fields.get(base.key, field); ok {
			return fb
		}
		ft := it.an.info.Types[x].Type
		kk := dslValueKind(ft)
		switch kk {
		case kindVar, kindMutex, kindVolatile:
			return binding{kind: bindKey, key: derivedKey(kk, base.key, field)}
		}
		if base.key.kind == kindOpaque || base.key.kind == kindPlainVar {
			k := derivedKey(kindPlainVar, base.key, field)
			if ft != nil && isPlainShared(ft) {
				if !addrOnly {
					it.emit(trace.OpRead, k, x.Pos(), false)
				}
				return binding{kind: bindKey, key: k}
			}
		}
	}
	return binding{}
}

// plainIndexRead models a read through an untracked indexed expression.
func (it *interp) plainIndexRead(x *ast.IndexExpr) {}

// composite builds a struct/slice literal. Struct literals become fresh
// tracked objects with their field bindings recorded; collections of
// identity-bearing values taint their elements (index-insensitive).
func (it *interp) composite(x *ast.CompositeLit) binding {
	tv, ok := it.an.info.Types[x]
	if !ok {
		for _, el := range x.Elts {
			it.eval(el)
		}
		return binding{}
	}
	t := tv.Type
	if p, okp := t.Underlying().(*types.Pointer); okp {
		t = p.Elem()
	}
	if st, oks := t.Underlying().(*types.Struct); oks {
		k := freshKey(kindOpaque, it.inst, it.an.fset.Position(x.Pos()), "lit", it.loopDepth > 0)
		for i, el := range x.Elts {
			if kv, okkv := el.(*ast.KeyValueExpr); okkv {
				b := it.eval(kv.Value)
				if name, okn := kv.Key.(*ast.Ident); okn {
					it.an.fields.set(k, name.Name, b)
				}
			} else if i < st.NumFields() {
				b := it.eval(el)
				it.an.fields.set(k, st.Field(i).Name(), b)
			}
		}
		return binding{kind: bindKey, key: k}
	}
	// Slice/array/map literal.
	for _, el := range x.Elts {
		b := it.eval(el)
		if b.kind == bindKey && identityMatters(it.an.info.Types[x].Type) {
			it.an.taint(b.key, "stored in collection literal")
		}
	}
	if identityMatters(tv.Type) {
		k := freshKey(dslValueKind(tv.Type), it.inst, it.an.fset.Position(x.Pos()), "litslice", true)
		return binding{kind: bindKey, key: k}
	}
	return binding{}
}

// ---- assignment ----------------------------------------------------------

func (it *interp) assign(x *ast.AssignStmt) {
	var vals []binding
	for _, r := range x.Rhs {
		vals = append(vals, it.eval(r))
	}
	// Multi-value from a single call: bindings come from the frame's
	// result merge (call returns []binding via callResults).
	if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
		if rs, ok := it.lastResults(); ok {
			vals = rs
		} else {
			vals = make([]binding, len(x.Lhs))
		}
	}
	for i, l := range x.Lhs {
		var v binding
		if i < len(vals) {
			v = vals[i]
		}
		if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
			// Compound assignment (+=, etc.): read then write.
			it.plainAccess(l, false)
			it.plainAccess(l, true)
			continue
		}
		it.assignTo(l, v)
	}
}

// lastResults returns multi-result bindings of the most recent inlined
// call, if the interpreter captured them.
func (it *interp) lastResults() ([]binding, bool) {
	if it.lastCallResults != nil {
		r := it.lastCallResults
		it.lastCallResults = nil
		return r, true
	}
	return nil, false
}

func (it *interp) assignTo(l ast.Expr, v binding) {
	switch lhs := l.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj, ok := it.an.info.Defs[lhs].(*types.Var); ok {
			it.env.define(obj, v)
			return
		}
		if obj, ok := it.an.info.Uses[lhs].(*types.Var); ok {
			if _, tracked := it.env.lookup(obj); tracked {
				if it.loopDepth > 0 && v.kind == bindKey {
					// Rebinding in a loop: the name sees many objects.
					v.key.multi = true
				}
				it.env.bind(obj, v)
				return
			}
			if k, okk := it.storageKey(obj); okk {
				if k.kind == kindPlainVar {
					it.emit(trace.OpWrite, k, lhs.Pos(), false)
					return
				}
				// Assigning a fresh object over a package-level DSL slot:
				// both classes merge conservatively.
				if v.kind == bindKey {
					it.an.taint(v.key, "stored in package variable")
					it.an.taint(k, "package variable reassigned")
				}
				return
			}
			it.env.define(obj, v)
		}
	case *ast.SelectorExpr:
		base := it.eval(lhs.X)
		if base.kind == bindKey && base.key.valid() {
			ft := it.an.info.Types[lhs].Type
			if ft != nil && dslValueKind(ft) == kindOpaque &&
				(base.key.kind == kindOpaque || base.key.kind == kindPlainVar) && isPlainShared(ft) {
				k := derivedKey(kindPlainVar, base.key, lhs.Sel.Name)
				it.emit(trace.OpWrite, k, lhs.Pos(), false)
				return
			}
			it.an.fields.set(base.key, lhs.Sel.Name, v)
			return
		}
		if v.kind == bindKey && identityMatters(it.an.info.Types[lhs].Type) {
			it.an.taint(v.key, "stored through untracked selector")
		}
	case *ast.IndexExpr:
		b := it.eval(lhs.X)
		it.eval(lhs.Index)
		if v.kind == bindKey && identityMatters(it.an.info.Types[lhs].Type) {
			// Index-insensitive: element classes are multi.
			it.an.taintMulti(v.key)
		}
		if b.kind == bindKey && b.key.kind == kindPlainVar {
			it.emit(trace.OpWrite, elemOf(b.key), lhs.Pos(), false)
		}
	case *ast.StarExpr:
		it.assignTo(lhs.X, v)
	case *ast.ParenExpr:
		it.assignTo(lhs.X, v)
	}
}

// plainAccess models a read or write of an lvalue for compound
// assignments and ++/--.
func (it *interp) plainAccess(l ast.Expr, write bool) {
	op := trace.OpRead
	if write {
		op = trace.OpWrite
	}
	switch lhs := l.(type) {
	case *ast.Ident:
		if obj, ok := it.an.info.Uses[lhs].(*types.Var); ok {
			if _, tracked := it.env.lookup(obj); tracked {
				return
			}
			if k, okk := it.storageKey(obj); okk && k.kind == kindPlainVar {
				it.emit(op, k, lhs.Pos(), false)
			}
		}
	case *ast.SelectorExpr:
		base := it.evalOnce(lhs.X, write)
		if base.kind == bindKey && base.key.valid() &&
			(base.key.kind == kindOpaque || base.key.kind == kindPlainVar) {
			ft := it.an.info.Types[lhs].Type
			if ft != nil && isPlainShared(ft) {
				it.emit(op, derivedKey(kindPlainVar, base.key, lhs.Sel.Name), lhs.Pos(), false)
			}
		}
	case *ast.IndexExpr:
		b := it.evalOnce(lhs.X, write)
		if !write {
			it.eval(lhs.Index)
		}
		if b.kind == bindKey && b.key.valid() && b.key.kind == kindPlainVar {
			it.emit(op, elemOf(b.key), lhs.Pos(), false)
		}
	case *ast.StarExpr:
		it.plainAccess(lhs.X, write)
	case *ast.ParenExpr:
		it.plainAccess(lhs.X, write)
	}
}

// evalOnce evaluates the base of a compound-assignment lvalue; on the
// write leg the base was already walked by the read leg, so suppress
// duplicate effects by evaluating through addressable (no read emission).
func (it *interp) evalOnce(e ast.Expr, second bool) binding {
	if second {
		return it.addressable(e)
	}
	return it.addressable(e)
}
