package static

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/trace"
)

func (it *interp) posShort(p token.Pos) string {
	pos := it.an.fset.Position(p)
	return fmt.Sprintf("%d:%d", pos.Line, pos.Column)
}

// call interprets a call expression. deferred suppresses re-evaluation
// bookkeeping differences; the semantics are the same.
func (it *interp) call(call *ast.CallExpr, deferred bool) binding {
	if !it.live {
		return binding{}
	}
	an := it.an

	// Type conversion?
	if tv, ok := an.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return it.eval(call.Args[0])
		}
		return binding{}
	}

	// Builtin?
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := an.info.Uses[id].(*types.Builtin); isB {
			return it.builtin(id.Name, call)
		}
	}

	// Statically resolved function or method?
	var fobj *types.Func
	var recvExpr ast.Expr
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := an.info.Uses[fun].(*types.Func); ok {
			fobj = f
		}
	case *ast.SelectorExpr:
		if sel, ok := an.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if f, ok := sel.Obj().(*types.Func); ok {
				fobj = f
				recvExpr = fun.X
			}
		} else if f, ok := an.info.Uses[fun.Sel].(*types.Func); ok {
			fobj = f // qualified package function
		}
	}

	if fobj != nil {
		if act, ok := recognize(fobj); ok {
			return it.intrinsic(fobj, act, call, recvExpr)
		}
		var recvB binding
		if recvExpr != nil {
			recvB = it.eval(recvExpr)
		}
		args := it.evalArgs(call)
		if body, ok := an.decls[fobj]; ok && body.Body != nil {
			return it.inline(fobj, nil, nil, body, recvB, args, call)
		}
		return it.unknownCall(fobj.FullName(), call, recvB, args)
	}

	// Function value: literal or tracked binding.
	fnB := it.eval(call.Fun)
	args := it.evalArgs(call)
	switch fnB.kind {
	case bindFunc:
		if fnB.fn != nil {
			lit := fnB.fn.(*ast.FuncLit)
			return it.inline(nil, lit, fnB.env, nil, binding{}, args, call)
		}
		if fnB.fobj != nil {
			if act, ok := recognize(fnB.fobj); ok && act.kind == actOp {
				// Method value of an intrinsic: receiver identity was lost,
				// degrade to an anonymous target.
				return it.intrinsicLost(fnB.fobj, act, call)
			}
			if body, ok := an.decls[fnB.fobj]; ok && body.Body != nil {
				return it.inline(fnB.fobj, nil, nil, body, binding{}, args, call)
			}
			return it.unknownCall(fnB.fobj.FullName(), call, binding{}, args)
		}
	}
	return it.unknownCall("dynamic call", call, binding{}, args)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func (it *interp) evalArgs(call *ast.CallExpr) []binding {
	var args []binding
	for _, a := range call.Args {
		args = append(args, it.eval(a))
	}
	return args
}

func (it *interp) builtin(name string, call *ast.CallExpr) binding {
	switch name {
	case "append":
		var base binding
		for i, a := range call.Args {
			b := it.eval(a)
			if i == 0 {
				base = b
				continue
			}
			if b.kind == bindKey && (b.key.kind == kindVar || b.key.kind == kindMutex) {
				it.an.taintMulti(b.key)
			}
		}
		return base
	case "new":
		// new(T) of a struct is a fresh tracked object so plain-Go
		// sync.Mutex fields resolve.
		if tv, ok := it.an.info.Types[call]; ok {
			if _, isPtr := tv.Type.(*types.Pointer); isPtr {
				return binding{kind: bindKey, key: freshKey(kindOpaque, it.inst,
					it.an.fset.Position(call.Pos()), "new", it.loopDepth > 0)}
			}
		}
		return binding{}
	case "panic":
		for _, a := range call.Args {
			it.eval(a)
		}
		it.live = false
		return binding{}
	case "close":
		for _, a := range call.Args {
			it.eval(a)
		}
		it.boundaryAt(call.Pos())
		return binding{}
	default:
		for _, a := range call.Args {
			it.eval(a)
		}
		return binding{}
	}
}

// resolveTarget turns an argument/receiver binding into the op-target
// key; unresolved identities degrade to a position-based anonymous multi
// class, which is never a guard and always racy.
func (it *interp) resolveTarget(b binding, want keyKind, pos token.Pos) key {
	if b.kind == bindKey && b.key.valid() {
		return b.key
	}
	return freshKey(want, "", it.an.fset.Position(pos), "anon", true)
}

// intrinsic interprets a recognized DSL/sync/atomic call.
func (it *interp) intrinsic(f *types.Func, act action, call *ast.CallExpr, recvExpr ast.Expr) binding {
	an := it.an
	var recvB binding
	if recvExpr != nil {
		recvB = it.eval(recvExpr)
	}

	// Cond.Mutex() recovers the guard recorded at Cond creation.
	if act.kind == actPure && f.Name() == "Mutex" && recvNamed(f) == "Cond" {
		it.evalArgs(call)
		if recvB.kind == bindKey {
			if b, ok := an.fields.get(recvB.key, "mutex"); ok {
				return b
			}
		}
		return binding{}
	}

	// RWMutex.RLocker() returns a read-side view of the same lock. The
	// result keeps the RWMutex's identity but demoted to a multi class:
	// many readers hold it concurrently, so Lock/Unlock through the
	// returned Locker must never establish a guard.
	if act.kind == actPure && f.Name() == "RLocker" && recvNamed(f) == "RWMutex" {
		it.evalArgs(call)
		if recvB.kind == bindKey && recvB.key.valid() {
			k := recvB.key
			k.multi = true
			return binding{kind: bindKey, key: k}
		}
		return binding{}
	}

	switch act.kind {
	case actPure:
		it.evalArgs(call)
		return binding{}

	case actUnknown:
		args := it.evalArgs(call)
		return it.unknownCall(f.FullName(), call, recvB, args)

	case actOp:
		args := it.evalArgs(call)
		var k key
		switch {
		case act.target == -2:
			// No identity (Yield).
		case act.target == -1:
			want := kindMutex
			switch act.op {
			case trace.OpVolRead, trace.OpVolWrite:
				want = kindVolatile
			case trace.OpWait, trace.OpNotify:
				want = kindOpaque
			}
			k = it.resolveTarget(recvB, want, call.Pos())
		case act.target < len(args):
			want := kindVar
			switch act.op {
			case trace.OpAcquire, trace.OpRelease:
				want = kindMutex
			case trace.OpWait, trace.OpNotify, trace.OpJoin,
				trace.OpSend, trace.OpRecv, trace.OpClose:
				// Channel identity never changes a mover class (the op kind
				// and buffering decide), so chans stay opaque like conds.
				want = kindOpaque
			case trace.OpVolRead, trace.OpVolWrite:
				want = kindVolatile
			}
			k = it.resolveTarget(args[act.target], want, call.Pos())
		}
		it.emit(act.op, k, call.Pos(), act.guardGrade)
		return binding{}

	case actFork:
		args := it.evalArgs(call)
		it.emit(trace.OpFork, key{}, call.Pos(), false)
		var fn binding
		if act.fnArg < len(args) {
			fn = args[act.fnArg]
		}
		it.subRoot(fn, nil, fmt.Sprintf("fork@%s", it.posShort(call.Pos())))
		return binding{}

	case actInline:
		return it.inlineFlavored(act, call, recvB)

	case actCreator:
		return it.create(act.creator, call)

	case actSetMain:
		args := it.evalArgs(call)
		var fn binding
		if act.fnArg < len(args) {
			fn = args[act.fnArg]
		}
		it.subRoot(fn, nil, fmt.Sprintf("main@%s", it.posShort(call.Pos())))
		return binding{}
	}
	return binding{}
}

// intrinsicLost handles a method value of an op intrinsic whose receiver
// identity was not tracked.
func (it *interp) intrinsicLost(f *types.Func, act action, call *ast.CallExpr) binding {
	it.evalArgs(call)
	it.emit(act.op, freshKey(kindVar, "", it.an.fset.Position(call.Pos()), "lostrecv", true),
		call.Pos(), false)
	return binding{}
}

func (it *interp) inlineFlavored(act action, call *ast.CallExpr, recvB binding) binding {
	args := it.evalArgs(call)
	var fn binding
	if act.fnArg < len(args) {
		fn = args[act.fnArg]
	}
	runFn := func() {
		if fn.kind == bindFunc {
			if fn.fn != nil {
				it.inline(nil, fn.fn.(*ast.FuncLit), fn.env, nil, binding{}, nil, call)
			} else if fn.fobj != nil {
				if body, ok := it.an.decls[fn.fobj]; ok && body.Body != nil {
					it.inline(fn.fobj, nil, nil, body, binding{}, nil, call)
				} else {
					it.unknownCall(fn.fobj.FullName(), call, binding{}, nil)
				}
			}
		} else {
			it.unknown(fmt.Sprintf("unresolved closure at %s", it.an.posLoc(call.Pos())))
		}
	}
	switch act.flavor {
	case inlWithLock:
		var m key
		if len(args) > 0 {
			m = it.resolveTarget(args[0], kindMutex, call.Pos())
		}
		it.emit(trace.OpAcquire, m, call.Pos(), act.guardGrade)
		runFn()
		it.emit(trace.OpRelease, m, call.End(), act.guardGrade)
	case inlCall, inlAtomic:
		// Enter/Exit and AtomicBegin/End markers are None movers: only the
		// wrapped body matters.
		runFn()
	case inlOnceDo:
		k := it.resolveTarget(recvB, kindVolatile, call.Pos())
		it.emit(trace.OpVolWrite, k, call.Pos(), false)
		before := it.snap()
		runFn()
		it.restore(mergeSnap(before, it.snap()))
	}
	return binding{}
}

// create interprets the Program construction intrinsics.
func (it *interp) create(kind creatorKind, call *ast.CallExpr) binding {
	name := "?"
	if len(call.Args) > 0 {
		if s, ok := it.constString(call.Args[0]); ok {
			name = s
		}
	}
	args := it.evalArgs(call)
	pos := it.an.fset.Position(call.Pos())
	multi := it.loopDepth > 0 || it.ctxMulti
	switch kind {
	case createProgram:
		return binding{kind: bindKey, key: freshKey(kindOpaque, it.inst, pos, "prog:"+name, multi)}
	case createVar:
		return binding{kind: bindKey, key: freshKey(kindVar, it.inst, pos, "var:"+name, multi)}
	case createVolatile:
		return binding{kind: bindKey, key: freshKey(kindVolatile, it.inst, pos, "vol:"+name, multi)}
	case createMutex:
		return binding{kind: bindKey, key: freshKey(kindMutex, it.inst, pos, "mu:"+name, multi)}
	case createVars:
		return binding{kind: bindKey, key: freshKey(kindVar, it.inst, pos, "vars:"+name, true)}
	case createMutexes:
		return binding{kind: bindKey, key: freshKey(kindMutex, it.inst, pos, "mus:"+name, true)}
	case createCond:
		k := freshKey(kindOpaque, it.inst, pos, "cond:"+name, multi)
		if len(args) > 1 {
			it.an.fields.set(k, "mutex", args[1])
		}
		return binding{kind: bindKey, key: k}
	case createWaitGroup:
		// The barrier's identity is its hidden volatile counter.
		return binding{kind: bindKey, key: freshKey(kindVolatile, it.inst, pos, "wg:"+name, multi)}
	case createChan:
		return binding{kind: bindKey, key: freshKey(kindOpaque, it.inst, pos, "chan:"+name, multi)}
	case createChans:
		return binding{kind: bindKey, key: freshKey(kindOpaque, it.inst, pos, "chans:"+name, true)}
	}
	return binding{}
}

// ---- inlining and sub-roots ---------------------------------------------

// inlineID names a callee on the inlining stack: a declared function by
// its full name, a literal by its package and position.
func (a *analysis) inlineID(fobj *types.Func, lit *ast.FuncLit) string {
	if fobj != nil {
		return fobj.FullName()
	}
	return a.filePkgs[a.fset.File(lit.Pos())] + ".lit@" + filePos(a.fset.Position(lit.Pos()))
}

// inline interprets a callee body in the caller's transaction context:
// the lockset and phase state flow through, only the environment is
// swapped. Returns the callee's first result binding.
func (it *interp) inline(fobj *types.Func, lit *ast.FuncLit, captured *env,
	decl *ast.FuncDecl, recvB binding, args []binding, call *ast.CallExpr) binding {

	id := it.an.inlineID(fobj, lit)
	for _, s := range it.stack {
		if s == id {
			it.unknown("recursive call to " + id)
			return binding{}
		}
	}
	if len(it.stack) >= maxInlineDepth {
		it.unknown("inline depth exceeded at " + id)
		return binding{}
	}

	var body *ast.BlockStmt
	var ftype *ast.FuncType
	var recvField *ast.FieldList
	if lit != nil {
		body = lit.Body
		ftype = lit.Type
	} else {
		body = decl.Body
		ftype = decl.Type
		recvField = decl.Recv
	}

	callee := newEnv(captured)
	if recvField != nil && len(recvField.List) > 0 && len(recvField.List[0].Names) > 0 {
		if obj, ok := it.an.info.Defs[recvField.List[0].Names[0]].(*types.Var); ok {
			callee.define(obj, recvB)
		}
	}
	bindParams(it.an, callee, ftype, args)

	savedEnv, savedInst, savedBreak := it.env, it.inst, it.breakable
	it.env = callee
	if call != nil {
		it.inst = it.inst + ">" + it.posShort(call.Pos())
	}
	it.breakable = nil
	it.stack = append(it.stack, id)
	fr := &frame{}
	it.frames = append(it.frames, fr)

	it.stmts(body.List)
	if it.live {
		it.mergeExit(fr)
	}
	if fr.exitSet {
		it.restore(fr.exit)
	} else {
		it.live = false
	}
	it.runDeferred(fr)

	it.frames = it.frames[:len(it.frames)-1]
	it.stack = it.stack[:len(it.stack)-1]
	it.env, it.inst, it.breakable = savedEnv, savedInst, savedBreak

	it.lastCallResults = fr.results
	if len(fr.results) > 0 {
		return fr.results[0]
	}
	return binding{}
}

func bindParams(an *analysis, e *env, ftype *ast.FuncType, args []binding) {
	if ftype.Params == nil {
		return
	}
	i := 0
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			var b binding
			if i < len(args) {
				b = args[i]
			}
			if obj, ok := an.info.Defs[name].(*types.Var); ok {
				e.define(obj, b)
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

// subRoot interprets a forked thread body: fresh lockset, fresh phase,
// new abstract thread context. Findings and accesses are attributed to
// the same root declaration.
func (it *interp) subRoot(fn binding, args []binding, label string) {
	if fn.kind != bindFunc {
		it.unknown("forks unresolved function (" + label + ")")
		return
	}
	var body *ast.BlockStmt
	var ftype *ast.FuncType
	var captured *env
	id := ""
	if fn.fn != nil {
		lit := fn.fn.(*ast.FuncLit)
		body, ftype, captured = lit.Body, lit.Type, fn.env
		id = it.an.inlineID(nil, lit)
	} else if fn.fobj != nil {
		decl, ok := it.an.decls[fn.fobj]
		if !ok || decl.Body == nil {
			it.unknown("forks body-less function " + fn.fobj.FullName())
			return
		}
		body, ftype = decl.Body, decl.Type
		id = it.an.inlineID(fn.fobj, nil)
	} else {
		it.unknown("forks unresolved function (" + label + ")")
		return
	}
	for _, s := range it.stack {
		if s == id {
			// A thread body forking itself recursively: treat the nested
			// spawn as already covered by this interpretation.
			return
		}
	}
	if len(it.stack) >= maxInlineDepth {
		it.unknown("fork depth exceeded")
		return
	}

	saved := it.snap()
	savedEnv, savedFrames, savedBreak := it.env, it.frames, it.breakable
	savedCtx, savedCtxMulti, savedLoop := it.ctx, it.ctxMulti, it.loopDepth

	childMulti := it.ctxMulti || it.loopDepth > 0
	it.held = map[string]heldLock{}
	it.st = phaseState{pre: true}
	it.live = true
	it.ctx = it.ctx + "/" + label
	it.ctxMulti = childMulti
	it.loopDepth = 0
	if childMulti {
		it.loopDepth = 1 // creations inside a many-instance thread are multi
	}
	it.env = newEnv(captured)
	bindParams(it.an, it.env, ftype, args)
	it.breakable = nil
	it.stack = append(it.stack, id)
	fr := &frame{}
	it.frames = []*frame{fr}

	it.stmts(body.List)
	if it.live {
		it.mergeExit(fr)
	}
	if fr.exitSet {
		it.restore(fr.exit)
	}
	it.runDeferred(fr)

	it.stack = it.stack[:len(it.stack)-1]
	it.frames, it.breakable = savedFrames, savedBreak
	it.env = savedEnv
	it.ctx, it.ctxMulti, it.loopDepth = savedCtx, savedCtxMulti, savedLoop
	it.restore(saved)
}

// escapeSevere reports whether a type reaching unanalyzable code can
// cause arbitrary instrumented effects (T, Program, or functions over
// them), as opposed to mere identity loss (Var, Mutex).
func escapeSevere(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Pointer:
			return walk(x.Elem())
		case *types.Slice:
			return walk(x.Elem())
		case *types.Array:
			return walk(x.Elem())
		case *types.Map:
			return walk(x.Key()) || walk(x.Elem())
		case *types.Chan:
			return walk(x.Elem())
		case *types.Signature:
			for i := 0; i < x.Params().Len(); i++ {
				if isDSLish(x.Params().At(i).Type()) {
					return true
				}
			}
			for i := 0; i < x.Results().Len(); i++ {
				if isDSLish(x.Results().At(i).Type()) {
					return true
				}
			}
			return false
		case *types.Named:
			if isSchedPkg(x.Obj().Pkg()) {
				switch x.Obj().Name() {
				case "T", "Program", "Runtime":
					return true
				}
				return false
			}
			return walk(x.Underlying())
		}
		return false
	}
	return walk(t)
}

// unknownCall applies the conservative escape rules for a call the
// interpreter cannot follow.
func (it *interp) unknownCall(name string, call *ast.CallExpr, recvB binding, args []binding) binding {
	an := it.an
	severe := false
	taintOne := func(b binding, e ast.Expr) {
		if b.kind == bindKey && (b.key.kind == kindVar || b.key.kind == kindMutex) {
			an.taint(b.key, "escapes to "+name)
		}
		if b.kind == bindFunc && b.fn != nil && litUsesDSL(an, b.fn.(*ast.FuncLit)) {
			severe = true
		}
		if e != nil {
			if tv, ok := an.info.Types[e]; ok && escapeSevere(tv.Type) {
				severe = true
			}
		}
	}
	if recvB.kind != bindNone || call != nil {
		taintOne(recvB, nil)
	}
	for i, b := range args {
		var e ast.Expr
		if call != nil && i < len(call.Args) {
			e = call.Args[i]
		}
		taintOne(b, e)
	}
	if severe {
		it.unknown("calls " + name + " with runtime values")
	}
	return binding{}
}

// litUsesDSL reports whether a function literal's body touches any
// virtual-runtime value; such a literal escaping to unknown code may run
// instrumented operations the interpreter never sees.
func litUsesDSL(an *analysis, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := an.info.Uses[id]
		if obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && isDSLish(v.Type()) {
			found = true
		}
		return !found
	})
	return found
}
