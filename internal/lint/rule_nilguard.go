package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// nilguardRule enforces the cost contract of the simulator's opt-in
// observers: every emission call on one of the guarded types below sits
// behind an explicit nil guard, so a run with that observer off pays
// exactly one branch per emission point — not the construction of the
// arguments for a callee nobody holds.
//
// Recognized guard shapes (receiver expression X rendered textually):
//
//	if X != nil { ... X.Instant(...) ... }     // enclosing-if form
//	if X == nil { return }; ...; X.Instant(...) // early-return form
//
// The rule is interprocedural: a helper that emits on a parameter without
// guarding it exports the guard obligation to its callers, so passing a
// possibly-nil receiver to such a helper unguarded is reported at the call
// site with the chain down to the emission.
type nilguardRule struct{}

const nilguardName = "nilguard"

func (nilguardRule) Name() string { return nilguardName }
func (nilguardRule) Doc() string {
	return "Tracer (Complete/Instant/Counter), netsim.Observer.Observe and prof.Flight (Note/Mark) emission calls must sit behind a nil guard, including through helpers emitting on a parameter"
}

// nilGuard is one guarded receiver type.
type nilGuard struct {
	what   string // the receiver, as diagnostics name it
	guard  string // the guard, as diagnostics name it
	exempt string // the package owning the type's nil-safety, or ""
	match  func(fn *types.Func) bool
	why    string // the message tail: what the guard protects
}

// nilGuards are the guarded types. Metadata and export methods (NameThread,
// WriteTo, Windows, ...) run once per run and carry no obligation, and
// neither do prof.Phase/Profiler methods: they take no constructed
// arguments, so the nil check inside the callee is already the whole cost.
var nilGuards = []*nilGuard{
	{
		// The methods are nil-safe; the guard keeps disabled telemetry from
		// building telemetry.Arg slices on hot paths.
		what:   "tracer",
		guard:  "nil-tracer",
		exempt: telemetryPath,
		match:  isTracerEmitMethod,
		why:    "so disabled telemetry costs one branch",
	},
	{
		// Calling a method on a nil interface value panics, so an unguarded
		// site here is a latent crash on the default (observer-less) path.
		what:  "observer",
		guard: "nil-observer",
		match: isObserverMethod,
		why:   "— a nil interface call panics and the disabled path must cost one branch",
	},
	{
		// The methods are nil-safe; the guard keeps a run without profiling
		// from building subject strings and values on hot paths (flow
		// completion, failure injection, reroute passes).
		what:   "flight recorder",
		guard:  "nil-recorder",
		exempt: profPath,
		match:  isFlightEmitMethod,
		why:    "so a run without profiling costs one branch",
	},
}

// guardFor returns the guarded type whose emission method fn is, or nil.
func guardFor(fn *types.Func) *nilGuard {
	for _, g := range nilGuards {
		if g.match(fn) {
			return g
		}
	}
	return nil
}

func (nilguardRule) Check(p *Pass) {
	for _, f := range p.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var g *nilGuard
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok {
				fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
				g = guardFor(fn)
			}
			if g == nil {
				checkParamEmitCall(p, call, stack)
				return true
			}
			recv := types.ExprString(sel.X)
			if p.Pkg.ImportPath == g.exempt || guardedNotNil(stack, call, recv) {
				return true
			}
			p.Reportf(call.Pos(), nilguardName,
				"%s.%s() is not behind a %s guard; wrap it in `if %s != nil { ... }` (or early-return on nil) %s",
				recv, sel.Sel.Name, g.guard, recv, g.why)
			return true
		})
	}
}

// checkParamEmitCall is the interprocedural half: a call passing a
// possibly-nil receiver expression into a parameter whose summary says it
// is emitted on unguarded. Known-non-nil arguments (calls, composite
// literals, addresses) are exempt.
func checkParamEmitCall(p *Pass, call *ast.CallExpr, stack []ast.Node) {
	fi := p.Prog.FuncOf(calleeFunc(p.Info, call))
	if fi == nil || len(fi.sum.ParamEmit) == 0 {
		return
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return
	}
	for ai, arg := range call.Args {
		target := ai
		if sig.Variadic() && target >= sig.Params().Len()-1 {
			target = sig.Params().Len() - 1
		}
		emit := fi.sum.ParamEmit[target]
		if emit == nil || p.Pkg.ImportPath == emit.guard.exempt {
			continue
		}
		switch ast.Unparen(arg).(type) {
		case *ast.CallExpr, *ast.CompositeLit, *ast.UnaryExpr:
			continue // freshly constructed, cannot be nil
		}
		expr := types.ExprString(ast.Unparen(arg))
		if expr == "nil" || guardedNotNil(stack, call, expr) {
			continue
		}
		p.ReportChain(arg.Pos(), nilguardName,
			"passes possibly-nil "+emit.guard.what+" "+expr+" to "+fi.Name()+", which emits on it without a nil guard (interprocedural); guard the call or the emission",
			p.Prog.chain(emit, factParamEmit))
	}
}

// tracerEmitMethods are the per-event emission entry points of
// telemetry.Tracer.
var tracerEmitMethods = map[string]bool{
	"Complete": true,
	"Instant":  true,
	"Counter":  true,
}

// isTracerEmitMethod reports whether fn is a Complete/Instant/Counter
// method declared on telemetry.Tracer (not, say, Registry.Counter).
func isTracerEmitMethod(fn *types.Func) bool {
	return funcPkgPath(fn) == telemetryPath && tracerEmitMethods[fn.Name()] && recvNamed(fn) == "Tracer"
}

// flightEmitMethods are the per-event emission entry points of
// prof.Flight; Windows and WriteTSV run once per export.
var flightEmitMethods = map[string]bool{
	"Note": true,
	"Mark": true,
}

// isFlightEmitMethod reports whether fn is a Note/Mark method declared on
// prof.Flight.
func isFlightEmitMethod(fn *types.Func) bool {
	return funcPkgPath(fn) == profPath && flightEmitMethods[fn.Name()] && recvNamed(fn) == "Flight"
}

// isObserverMethod reports whether fn is Observe declared on the
// netsim.Observer interface itself — the dynamic-dispatch call sites the
// contract covers. Concrete implementations (health.Monitor and fixture
// doubles) call their own method with a known-non-nil receiver and are
// exempt.
func isObserverMethod(fn *types.Func) bool {
	if funcPkgPath(fn) != netsimPath || recvNamed(fn) != "Observer" {
		return false
	}
	_, isIface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// recvNamed returns the name of fn's receiver type (through one pointer),
// or "" when fn is not a method on a named type.
func recvNamed(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// guardedNotNil reports whether the call node is dominated by a nil check
// on the receiver expression recv: either inside an if whose condition
// requires recv != nil, or preceded in an enclosing block by an
// `if recv == nil { return }` statement.
func guardedNotNil(stack []ast.Node, call ast.Node, recv string) bool {
	child := call
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			if anc.Body == child && condRequiresNotNil(anc.Cond, recv) {
				return true
			}
		case *ast.BlockStmt:
			for idx, st := range anc.List {
				if st != child {
					continue
				}
				for _, prev := range anc.List[:idx] {
					if isNilEarlyReturn(prev, recv) {
						return true
					}
				}
				break
			}
		}
		child = stack[i]
	}
	return false
}

// condRequiresNotNil reports whether cond can only be true when
// `recv != nil` holds, looking through && conjunctions.
func condRequiresNotNil(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return condRequiresNotNil(e.X, recv) || condRequiresNotNil(e.Y, recv)
		case token.NEQ:
			return isNilComparison(e, recv)
		}
	}
	return false
}

// isNilEarlyReturn matches `if recv == nil { return ... }`.
func isNilEarlyReturn(st ast.Stmt, recv string) bool {
	ifst, ok := st.(*ast.IfStmt)
	if !ok || ifst.Init != nil || len(ifst.Body.List) == 0 {
		return false
	}
	bin, ok := ast.Unparen(ifst.Cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL || !isNilComparison(bin, recv) {
		return false
	}
	_, ok = ifst.Body.List[len(ifst.Body.List)-1].(*ast.ReturnStmt)
	return ok
}

// isNilComparison reports whether bin compares the receiver expression
// against the nil identifier (in either operand order).
func isNilComparison(bin *ast.BinaryExpr, recv string) bool {
	matches := func(x, y ast.Expr) bool {
		id, ok := ast.Unparen(y).(*ast.Ident)
		return ok && id.Name == "nil" && types.ExprString(ast.Unparen(x)) == recv
	}
	return matches(bin.X, bin.Y) || matches(bin.Y, bin.X)
}
