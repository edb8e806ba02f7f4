package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"buddy/internal/lint/analysis"
)

// LockOrder enforces the Device lock hierarchy documented on core.Device —
// the allocation-table mu, then the 64 entry-shard mutexes — and a release
// discipline for every sync.Mutex /
// sync.RWMutex: a lock acquired in a function must be deferred-unlocked or
// released on every return path of that function.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `enforce the mu -> entry-shard lock order and release discipline

Flags acquiring a Device lock while already holding one that ranks after
it in the documented hierarchy (mu before the entry-shard locks), re-acquiring a lock already held (self-deadlock), mismatched
RLock/Unlock pairs, and any sync mutex Lock whose Unlock is neither
deferred nor present on every return path. The walk is path-sensitive
across if/else, switch and loops; function literals are independent
frames.`,
	Run: runLockOrder,
}

// Device lock ranks; unranked locks participate only in the release and
// double-acquire checks.
const (
	rankMu = iota
	rankShard
	rankNone = -1
)

var rankNames = [...]string{"mu", "entry-shard"}

type heldLock struct {
	rank     int
	rlock    bool // acquired with RLock
	deferred bool // a matching deferred unlock is in place
	pos      token.Pos
}

type lockState map[string]*heldLock

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		cv := *v
		c[k] = &cv
	}
	return c
}

// merge folds a non-terminated branch state into s: a lock held on any
// incoming path is held (for violation detection), and it only counts as
// deferred if every path deferred it.
func (s lockState) merge(b lockState) {
	for k, v := range b {
		if cur, ok := s[k]; ok {
			cur.deferred = cur.deferred && v.deferred
		} else {
			cv := *v
			s[k] = &cv
		}
	}
}

func runLockOrder(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walkLockFrame(pass, n.Body)
				}
			case *ast.FuncLit:
				// Each literal is its own frame; statement walking never
				// descends into nested literals, so visiting every literal
				// here covers them all exactly once.
				walkLockFrame(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// walkLockFrame analyzes one function body as an independent lock frame:
// falling off the end of the body is an exit path like any return.
func walkLockFrame(pass *analysis.Pass, body *ast.BlockStmt) {
	w := &lockWalker{pass: pass, shardVars: map[types.Object]bool{}}
	held := lockState{}
	if !w.block(body.List, held) {
		w.checkExit(held, body.End(), "fall-through")
	}
}

type lockWalker struct {
	pass *analysis.Pass
	// shardVars are locals assigned from Allocation.shard(i): rank-2 keys.
	shardVars map[types.Object]bool
}

// lockMethod returns the receiver expression and method name of a
// sync.Mutex/sync.RWMutex method call (including promoted embedded
// mutexes), or ok=false.
func (w *lockWalker) lockMethod(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	obj := w.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// rankOf places a lock receiver in the Device hierarchy: fields mu and
// shards of a type named Device, plus locals returned by a shard()
// method. Everything else is unranked.
func (w *lockWalker) rankOf(recv ast.Expr) int {
	switch recv := recv.(type) {
	case *ast.IndexExpr:
		if sel, ok := recv.X.(*ast.SelectorExpr); ok && w.deviceField(sel) == "shards" {
			return rankShard
		}
	case *ast.SelectorExpr:
		if w.deviceField(recv) == "mu" {
			return rankMu
		}
	case *ast.Ident:
		if w.shardVars[w.pass.TypesInfo.Uses[recv]] {
			return rankShard
		}
	}
	return rankNone
}

// deviceField returns sel's field name when sel selects a field of a type
// named Device, "" otherwise.
func (w *lockWalker) deviceField(sel *ast.SelectorExpr) string {
	s := w.pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Device" {
		return ""
	}
	return s.Obj().Name()
}

// keyOf renders the lock receiver as a stable textual key.
func keyOf(recv ast.Expr) string { return types.ExprString(recv) }

// acquire records taking a lock, checking hierarchy order and
// double-acquisition.
func (w *lockWalker) acquire(recv ast.Expr, name string, held lockState, pos token.Pos) {
	key := keyOf(recv)
	rank := w.rankOf(recv)
	if prev, ok := held[key]; ok {
		w.pass.Reportf(pos, "%s is already held (acquired at %s); re-acquiring deadlocks", key, w.pass.Fset.Position(prev.pos))
		return
	}
	if rank != rankNone {
		for k, h := range held {
			if h.rank != rankNone && h.rank > rank {
				w.pass.Reportf(pos, "acquiring %s (%s) while holding %s (%s) violates the lock order mu -> entry shards",
					key, rankNames[rank], k, rankNames[h.rank])
			}
		}
	}
	held[key] = &heldLock{rank: rank, rlock: name == "RLock", pos: pos}
}

// release records an unlock, checking RLock/Unlock pairing. Unlocks of
// locks not held in this frame are ignored: the lock may be held by a
// caller.
func (w *lockWalker) release(recv ast.Expr, name string, held lockState, pos token.Pos) {
	key := keyOf(recv)
	h, ok := held[key]
	if !ok {
		return
	}
	if h.rlock != (name == "RUnlock") {
		want := "Unlock"
		if h.rlock {
			want = "RUnlock"
		}
		w.pass.Reportf(pos, "%s releases %s acquired with %s; use %s", name, key,
			map[bool]string{true: "RLock", false: "Lock"}[h.rlock], want)
	}
	delete(held, key)
}

// block walks a statement list, mutating held; it reports whether control
// cannot flow past the list (return/panic/branch).
func (w *lockWalker) block(list []ast.Stmt, held lockState) bool {
	for _, s := range list {
		if w.stmt(s, held) {
			return true
		}
	}
	return false
}

// stmt walks one statement; the boolean result reports termination.
func (w *lockWalker) stmt(s ast.Stmt, held lockState) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, name, ok := w.lockMethod(call); ok {
				switch name {
				case "Lock", "RLock":
					w.acquire(recv, name, held, call.Pos())
				default:
					w.release(recv, name, held, call.Pos())
				}
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.DeferStmt:
		w.deferCall(s.Call, held)
	case *ast.AssignStmt:
		// Track sh := a.shard(i): the result is an entry-shard lock.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "shard" {
					if id, ok := s.Lhs[0].(*ast.Ident); ok {
						if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
							w.shardVars[obj] = true
						} else if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
							w.shardVars[obj] = true
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		w.checkExit(held, s.Pos(), "return")
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto: state does not flow past
	case *ast.BlockStmt:
		return w.block(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		bodyHeld := held.clone()
		bodyTerm := w.block(s.Body.List, bodyHeld)
		elseHeld := held.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseHeld)
		}
		for k := range held {
			delete(held, k)
		}
		if !bodyTerm {
			held.merge(bodyHeld)
		}
		if !elseTerm {
			held.merge(elseHeld)
		}
		return bodyTerm && elseTerm && s.Else != nil
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.loopBody(s.Body, held)
	case *ast.RangeStmt:
		w.loopBody(s.Body, held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		for _, c := range body.List {
			var stmts []ast.Stmt
			switch c := c.(type) {
			case *ast.CaseClause:
				stmts = c.Body
			case *ast.CommClause:
				stmts = c.Body
			}
			caseHeld := held.clone()
			if !w.block(stmts, caseHeld) {
				held.merge(caseHeld)
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return false
}

// deferCall handles defer statements: a deferred Unlock (directly or
// inside a deferred function literal) marks the lock as safely released
// at function exit.
func (w *lockWalker) deferCall(call *ast.CallExpr, held lockState) {
	if recv, name, ok := w.lockMethod(call); ok && (name == "Unlock" || name == "RUnlock") {
		if h, ok := held[keyOf(recv)]; ok {
			h.deferred = true
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if recv, name, ok := w.lockMethod(inner); ok && (name == "Unlock" || name == "RUnlock") {
					if h, ok := held[keyOf(recv)]; ok {
						h.deferred = true
					}
				}
			}
			return true
		})
	}
}

// loopBody walks a loop body in an isolated state: a lock acquired inside
// an iteration must be released (or deferred) by the iteration's end, or
// the next iteration self-deadlocks.
func (w *lockWalker) loopBody(body *ast.BlockStmt, held lockState) {
	inner := held.clone()
	preKeys := make(map[string]bool, len(inner))
	for k := range inner {
		preKeys[k] = true
	}
	if w.block(body.List, inner) {
		return
	}
	for k, h := range inner {
		if !preKeys[k] && !h.deferred {
			w.pass.Reportf(h.pos, "%s locked in a loop body is not released by the end of the iteration", k)
		}
	}
}

// checkExit reports locks still held, and not deferred-released, at a
// function exit point.
func (w *lockWalker) checkExit(held lockState, pos token.Pos, kind string) {
	for k, h := range held {
		if !h.deferred {
			w.pass.Reportf(pos, "%s (locked at %s) is not released on this %s path and has no deferred unlock",
				k, w.pass.Fset.Position(h.pos), kind)
		}
	}
}
