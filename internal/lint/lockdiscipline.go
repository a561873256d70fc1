package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline enforces the locking convention of mutex-bearing types:
// an exported method on a struct that carries a lock field — a
// sync.Mutex/RWMutex, or a slice or array of values that carry one
// (striped locks) — must acquire a lock field before touching any
// sibling field. Acquiring means calling Lock/RLock on the field, on an
// element of it (recv.shards[i].mu.Lock()), or calling a same-type
// helper that does so and returns without releasing it (lockRange-style
// helpers). Fields that synchronise themselves — sync/atomic values and
// structs carrying their own mutex — are not guarded by the outer lock.
// The check is interprocedural: an exported method that launders the
// access through an unexported helper (which, per convention, relies on
// the caller's lock) is flagged at the exported entry point, with the
// helper chain in the message. It also watches the known escape hatch
// pattern in tests — calling an Unwrap-style method (which hands out the
// unsynchronized inner value) while spawned goroutines may still be
// running — and flags home-tier operations issued while a writeback-queue
// mutex is held: the home tier sits across the CXL link, whose transfers
// can stall in retry/backoff or an outage, and a queue lock held across
// that stall starves every device-resident access that only wanted the
// queue.
type LockDiscipline struct{}

// Name implements Analyzer.
func (LockDiscipline) Name() string { return "lockdiscipline" }

// Doc implements Analyzer.
func (LockDiscipline) Doc() string {
	return "flags exported methods touching mutex-guarded fields without locking (directly or via helpers), and Unwrap while goroutines are live"
}

// RunProgram implements ProgramAnalyzer.
func (a LockDiscipline) RunProgram(prog *Program) []Finding {
	guarded := map[string]*guardedType{}
	for _, pkg := range prog.Packages {
		for named, g := range a.guardedTypes(pkg) {
			guarded[typeKey(named)] = g
		}
	}
	out := a.checkMethods(prog, guarded)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			isTest := strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go")
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				out = append(out, a.checkQueueMutexHomeCalls(pkg, fn)...)
				if isTest {
					out = append(out, a.checkUnwrapLiveness(pkg, fn)...)
				}
			}
		}
	}
	return out
}

// guardedType records a struct carrying one or more lock fields.
type guardedType struct {
	mutexFields map[string]bool // lock fields: mutexes and striped mutex slices/arrays
	dataFields  map[string]bool // fields guarded by convention (not self-synchronising)
}

// typeKey names a named type across package loads.
func typeKey(named *types.Named) string {
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// guardedTypes finds the package's mutex-bearing struct types.
func (LockDiscipline) guardedTypes(pkg *Package) map[*types.Named]*guardedType {
	out := map[*types.Named]*guardedType{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named := namedType(tn.Type())
		if named == nil {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		g := &guardedType{mutexFields: map[string]bool{}, dataFields: map[string]bool{}}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			switch {
			case isLockField(f.Type()):
				g.mutexFields[f.Name()] = true
			case selfSynced(f.Type()):
				// Guards itself; the outer lock has no say over it.
			default:
				g.dataFields[f.Name()] = true
			}
		}
		if len(g.mutexFields) > 0 && len(g.dataFields) > 0 {
			out[named] = g
		}
	}
	return out
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// isLockField reports whether a field of type t is a lock of its
// struct: a mutex, or a slice or array whose elements are or carry one
// (one lock per stripe or shard).
func isLockField(t types.Type) bool {
	if isSyncMutex(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return carriesMutex(u.Elem())
	case *types.Array:
		return carriesMutex(u.Elem())
	}
	return false
}

// carriesMutex reports whether t is a mutex or a struct with a mutex
// field.
func carriesMutex(t types.Type) bool {
	if isSyncMutex(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSyncMutex(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// selfSynced reports whether a value of type t synchronises itself: a
// sync/atomic type, a struct carrying its own mutex, or an array of
// either.
func selfSynced(t types.Type) bool {
	if n := namedType(t); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" {
		return true
	}
	if a, ok := t.Underlying().(*types.Array); ok {
		return selfSynced(a.Elem())
	}
	return carriesMutex(t)
}

// ldTouch summarizes how a non-locking method reaches guarded data: the
// first field touched, and the helper chain it goes through ("" for a
// direct touch).
type ldTouch struct {
	field string
	chain string
}

// checkMethods flags exported methods on guarded types that reach
// guarded fields without acquiring a mutex — directly, or through any
// chain of same-type helper methods that themselves do not lock
// (unexported helpers rely on the caller's lock by convention, so the
// finding lands on the exported entry point that broke the contract).
func (a LockDiscipline) checkMethods(prog *Program, guarded map[string]*guardedType) []Finding {
	// acquirers holds the methods that return with a lock field held:
	// they lock and never unlock one. A call to a same-type acquirer
	// counts as locking.
	acquirers := map[string]bool{}
	for _, fn := range prog.Functions() {
		if _, g, recvName := a.methodContext(fn, guarded); g != nil {
			locks, unlocks, _ := a.scanMethodBody(fn, g, recvName)
			if locks && !unlocks {
				acquirers[fn.FullName()] = true
			}
		}
	}
	callsAcquirer := func(fn *FuncNode, named *types.Named) bool {
		for _, site := range fn.Calls {
			for _, target := range site.Targets {
				if target != fn && acquirers[target.FullName()] && typeKeyOfRecv(target.Obj) == typeKey(named) {
					return true
				}
			}
		}
		return false
	}

	// touches[funcKey] is the summary of a method that reaches guarded
	// data without locking; methods that acquire a lock contribute
	// nothing (their accesses and callees run under the lock).
	touches := map[string]*ldTouch{}
	prog.Fixpoint(func(fn *FuncNode) bool {
		key := fn.FullName()
		if touches[key] != nil {
			return false
		}
		named, g, recvName := a.methodContext(fn, guarded)
		if g == nil || recvName == "" {
			return false
		}
		locks, _, touched := a.scanMethodBody(fn, g, recvName)
		if locks || callsAcquirer(fn, named) {
			return false
		}
		if len(touched) > 0 {
			touches[key] = &ldTouch{field: touched[0].Sel.Name}
			return true
		}
		// No direct touch: inherit the first helper summary, same type.
		for _, site := range fn.Calls {
			for _, target := range site.Targets {
				if target == fn || typeKeyOfRecv(target.Obj) != typeKey(named) {
					continue
				}
				if t := touches[target.FullName()]; t != nil {
					chain := target.Obj.Name()
					if t.chain != "" {
						chain += " -> " + t.chain
					}
					touches[key] = &ldTouch{field: t.field, chain: chain}
					return true
				}
			}
		}
		return false
	})

	var out []Finding
	for _, fn := range prog.Functions() {
		if !fn.Decl.Name.IsExported() {
			continue
		}
		named, _, _ := a.methodContext(fn, guarded)
		t := touches[fn.FullName()]
		if named == nil || t == nil {
			continue
		}
		if t.chain == "" {
			out = append(out, Finding{
				Pos:      fn.posOf(fn.Decl.Name),
				Analyzer: a.Name(),
				Severity: Error,
				Message: fmt.Sprintf("exported method %s.%s touches guarded field %q without acquiring the mutex",
					named.Obj().Name(), fn.Decl.Name.Name, t.field),
			})
		} else {
			out = append(out, Finding{
				Pos:      fn.posOf(fn.Decl.Name),
				Analyzer: a.Name(),
				Severity: Error,
				Message: fmt.Sprintf("exported method %s.%s touches guarded field %q via %s without acquiring the mutex",
					named.Obj().Name(), fn.Decl.Name.Name, t.field, t.chain),
			})
		}
	}
	return out
}

// methodContext resolves a node to (receiver named type, guard info,
// receiver name) when it is a usable method on a guarded type.
func (LockDiscipline) methodContext(fn *FuncNode, guarded map[string]*guardedType) (*types.Named, *guardedType, string) {
	if fn.Decl.Recv == nil || len(fn.Decl.Recv.List) != 1 {
		return nil, nil, ""
	}
	recvType := fn.Pkg.Info.TypeOf(fn.Decl.Recv.List[0].Type)
	if p, ok := recvType.(*types.Pointer); ok {
		recvType = p.Elem()
	}
	named := namedType(recvType)
	g := guarded[typeKey(named)]
	if g == nil {
		return nil, nil, ""
	}
	var recvName string
	if len(fn.Decl.Recv.List[0].Names) > 0 {
		recvName = fn.Decl.Recv.List[0].Names[0].Name
	}
	if recvName == "" || recvName == "_" {
		return nil, nil, ""
	}
	return named, g, recvName
}

// typeKeyOfRecv is typeKey for a method's receiver type ("" for plain
// functions).
func typeKeyOfRecv(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return typeKey(namedType(t))
}

// scanMethodBody reports whether the method acquires and whether it
// releases one of its lock fields (or an element of one), and which
// guarded data fields it touches through the receiver, in source order.
func (LockDiscipline) scanMethodBody(fn *FuncNode, g *guardedType, recvName string) (locks, unlocks bool, touched []*ast.SelectorExpr) {
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && g.mutexFields[recvField(sel.X, recvName)] {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					locks = true
				case "Unlock", "RUnlock":
					unlocks = true
				}
			}
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName && g.dataFields[sel.Sel.Name] {
				touched = append(touched, sel)
			}
		}
		return true
	})
	return locks, unlocks, touched
}

// recvField returns the receiver field an expression is rooted at —
// "shards" for recv.shards[i].mu, "mu" for recv.mu — or "" when the
// expression does not start at the receiver.
func recvField(e ast.Expr, recvName string) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recvName {
				return x.Sel.Name
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// homeTierCalls names the operations whose latency is bounded by the CXL
// link, not device memory: each one can stall in the fault-retry budget
// or fail an entire outage long. Holding a queue mutex across them blocks
// the fast path behind the slow one.
var homeTierCalls = map[string]bool{
	"gateHome":         true,
	"gateHomePageRead": true,
	"gateEvictWrites":  true,
	"ReadThrough":      true,
	"WriteThrough":     true,
	"CheckpointChunk":  true,
	"DrainWritebacks":  true,
	"drainOne":         true,
}

// checkQueueMutexHomeCalls flags home-tier calls made while a mutex whose
// name contains "queue" is held. Lock/Unlock pairs are tracked in source
// position order; a deferred Unlock means the mutex is held to the end of
// the function, so everything after the Lock counts as under it.
func (a LockDiscipline) checkQueueMutexHomeCalls(pkg *Package, fn *ast.FuncDecl) []Finding {
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	const (
		evLock = iota
		evUnlock
		evHomeCall
	)
	type event struct {
		pos  token.Pos
		kind int
		name string
	}
	var events []event
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if inner, ok := sel.X.(*ast.SelectorExpr); ok &&
			strings.Contains(strings.ToLower(inner.Sel.Name), "queue") &&
			isSyncMutex(pkg.Info.TypeOf(inner)) {
			switch sel.Sel.Name {
			case "Lock", "RLock":
				events = append(events, event{call.Pos(), evLock, inner.Sel.Name})
			case "Unlock", "RUnlock":
				if !deferred[call] {
					events = append(events, event{call.Pos(), evUnlock, inner.Sel.Name})
				}
			}
			return true
		}
		if homeTierCalls[sel.Sel.Name] {
			events = append(events, event{call.Pos(), evHomeCall, sel.Sel.Name})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	var out []Finding
	held := ""
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			held = ev.name
		case evUnlock:
			held = ""
		case evHomeCall:
			if held != "" {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(ev.pos),
					Analyzer: a.Name(),
					Severity: Error,
					Message: fmt.Sprintf("home-tier call %s while holding writeback-queue mutex %q; a link stall here starves every queue user",
						ev.name, held),
				})
			}
		}
	}
	return out
}

// checkUnwrapLiveness flags x.Unwrap() calls in test functions that occur
// after a `go` statement with no intervening .Wait() call: the unwrapped
// value is unsynchronized, so handing it out while goroutines may still
// be running defeats the wrapper.
func (a LockDiscipline) checkUnwrapLiveness(pkg *Package, fn *ast.FuncDecl) []Finding {
	var lastGo, lastWait ast.Node
	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			lastGo = n
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Wait":
				lastWait = n
			case "Unwrap":
				if lastGo != nil && (lastWait == nil || lastWait.Pos() < lastGo.Pos()) && n.Pos() > lastGo.Pos() {
					out = append(out, Finding{
						Pos:      pkg.Fset.Position(n.Pos()),
						Analyzer: a.Name(),
						Severity: Warning,
						Message:  "Unwrap called after spawning goroutines with no Wait in between; the inner value is unsynchronized",
					})
				}
			}
		}
		return true
	})
	return out
}
