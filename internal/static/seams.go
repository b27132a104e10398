package static

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/trace"
)

// This file is the package's exported seam for sibling tools — today the
// source translator (internal/cooptrans) — that need the same two
// ingredients the analyzer is built on: the stdlib-only module loader and
// the ops.go recognition tables. Exporting a thin view keeps a single
// source of truth for "what is a sync call" and "how is a package
// type-checked" across the static pass and the translator, so the two can
// never drift apart on recognition.

// Universe is the exported result of loading one or more target
// directories as a single type-checked universe.
type Universe struct {
	Fset *token.FileSet
	Info *types.Info
	Pkgs []*LoadedPackage
	// Decls indexes every function declaration seen anywhere in the
	// module (targets and module-local imports), for cross-package
	// resolution of call targets.
	Decls map[*types.Func]*ast.FuncDecl
	// Warnings are the collected type-check and import errors, deduplicated
	// and sorted. Loading degrades rather than fails: a universe with
	// warnings has incomplete type information and consumers should treat
	// affected constructs conservatively.
	Warnings []string
}

// LoadedPackage is one target package of a Universe.
type LoadedPackage struct {
	Name  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
}

// Load parses and type-checks the packages rooted at dirs with the same
// loader Analyze uses: module-local imports from source, the standard
// library from export data (from source when `go list` cannot locate it),
// test files excluded, type errors collected rather than fatal.
func Load(dirs []string) (*Universe, error) {
	l, pkgs, err := load(dirs)
	if err != nil {
		return nil, err
	}
	u := &Universe{Fset: l.fset, Info: l.info, Decls: l.declsByObj, Warnings: warningStrings(l.typeErrs)}
	for _, p := range pkgs {
		u.Pkgs = append(u.Pkgs, &LoadedPackage{Name: p.name, Dir: p.dir, Files: p.files, Pkg: p.pkg})
	}
	return u, nil
}

// warningStrings renders collected loader errors as deduplicated, sorted
// diagnostics.
func warningStrings(errs []error) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range errs {
		s := e.Error()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// ActionKind is the exported face of the recognizer's classification.
type ActionKind uint8

const (
	// ActionUnknown: a virtual-runtime entry point the abstract semantics
	// do not model (Run, Explore, ...); treat conservatively.
	ActionUnknown ActionKind = iota
	// ActionPure: no instrumented effect (ID, Name, RLocker, ...).
	ActionPure
	// ActionOp: the call emits one abstract trace op on a target.
	ActionOp
	// ActionFork: T.Fork — boundary plus a new thread body.
	ActionFork
	// ActionInline: a closure-wrapping method (WithLock, Call, Atomic,
	// Once.Do); see Flavor.
	ActionInline
	// ActionCreator: a Program-level object creation intrinsic.
	ActionCreator
	// ActionSetMain: Program.SetMain.
	ActionSetMain
)

// Flavor distinguishes the closure-wrapping intrinsics.
type Flavor uint8

const (
	FlavorWithLock Flavor = iota
	FlavorCall
	FlavorAtomic
	FlavorOnceDo
)

// Action is the exported interpretation of one recognized call.
type Action struct {
	Kind ActionKind
	// Op is the abstract trace operation for ActionOp.
	Op trace.Op
	// Target is the argument index carrying the op's identity; -1 means
	// the receiver, -2 means the op is identity-less (Yield, Select).
	Target int
	// FnArg is the closure argument index for Fork/Inline/SetMain.
	FnArg int
	// Flavor refines ActionInline.
	Flavor Flavor
	// GuardGrade marks lock acquisitions that provide real mutual
	// exclusion (false for read-side RWMutex ops and TryLock).
	GuardGrade bool
	// Recv is the receiver type's name ("Mutex", "RWMutex", "WaitGroup",
	// "Once", "Cond", "Map", "Pool", "Locker", ... or "" for package
	// functions), and Path the defining package's import path — consumers
	// that need primitive-specific lowering (the translator's WaitGroup
	// and Once expansions) branch on these rather than re-deriving them.
	Recv string
	Path string
}

// RecognizeCall classifies a resolved callee against the shared
// recognition tables (virtual-runtime DSL, sync, sync/atomic). ok=false
// means the call is not an intrinsic: callers should inline the body if
// available or treat the call conservatively.
func RecognizeCall(f *types.Func) (Action, bool) {
	act, ok := recognize(f)
	if !ok {
		return Action{}, false
	}
	out := Action{
		Op:         act.op,
		Target:     act.target,
		FnArg:      act.fnArg,
		GuardGrade: act.guardGrade,
		Recv:       recvNamed(f),
	}
	if p := f.Pkg(); p != nil {
		out.Path = p.Path()
	}
	switch act.kind {
	case actPure:
		out.Kind = ActionPure
	case actOp:
		out.Kind = ActionOp
	case actFork:
		out.Kind = ActionFork
	case actInline:
		out.Kind = ActionInline
		switch act.flavor {
		case inlWithLock:
			out.Flavor = FlavorWithLock
		case inlCall:
			out.Flavor = FlavorCall
		case inlAtomic:
			out.Flavor = FlavorAtomic
		case inlOnceDo:
			out.Flavor = FlavorOnceDo
		}
	case actCreator:
		out.Kind = ActionCreator
	case actSetMain:
		out.Kind = ActionSetMain
	default:
		out.Kind = ActionUnknown
	}
	return out, true
}

// FormatPos renders a position in the runtime's "dir/file.go:line"
// location format, the shared coordinate system of static findings,
// dynamic trace events, and translated-program source maps.
func FormatPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	if !p.IsValid() {
		return ""
	}
	return trimLoc(p.Filename) + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// PathKeyID names storage reached from a stable root object exactly like
// the analyzer's own key abstraction (keys.go pathKey), so translated
// objects and static classes share ids. fset is the universe's FileSet.
func PathKeyID(fset *token.FileSet, root types.Object, path string) string {
	return pathKey(fset, kindOpaque, root, path, false).id
}

// SiteKeyID names a creation site exactly like the analyzer's freshKey.
func SiteKeyID(pos token.Position, label string) string {
	return freshKey(kindOpaque, "", pos, label, false).id
}
