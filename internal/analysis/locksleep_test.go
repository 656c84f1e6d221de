package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"testing"
)

// locksleep reports blocking or sleeping calls made while a sync.Mutex
// or sync.RWMutex acquired in the same function is held. It is the MVCC
// engine's commit-path rule: a cost-model charge (DB.chargeCost, which
// sleeps on Clock.Sleep) under commitMu holds the lock for the
// statement's whole simulated cost, and the engine's concurrency
// collapses to the lock engine's. The same goes for any blocking call
// (channel receive, Tier.Sync, WaitGroup.Wait) under any mutex.
//
// The walk is intraprocedural and follows the branches: within one
// function body it tracks x.Lock()/x.RLock() against
// x.Unlock()/x.RUnlock(), a deferred unlock holding its lock to function
// exit. Each branch of an if, switch or select, and a loop body, is walked
// from the lock state before it; a branch that ends in return or panic
// leaves nothing behind, and after the statement a lock is held if any
// branch that falls through (or the path that skips them all) holds it.
// So an unlock on an early-return branch does not release the lock for
// the code after it. A deferred blocking call is reported only when a
// deferred unlock was registered before it: defers run last-in-first-out,
// so it runs under the lock. Lock state is keyed by the receiver's printed
// form ("mu", "tbl.lock"), so two spellings of one lock are two locks.
func locksleep(fset *token.FileSet, p *pkg) []finding {
	var found []finding
	for _, f := range p.files {
		for _, decl := range f.Decls {
			site := p.siteOf(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				}
				if body != nil {
					c := &lockWalk{info: p.info, held: map[string]bool{}, report: func(pos token.Pos, callee, format string, args ...any) {
						found = append(found, p.finding(fset, "locksleep", site, callee, pos, format, args...))
					}}
					c.stmts(body.List)
				}
				return true
			})
		}
	}
	return found
}

// lockWalk walks one function body.
type lockWalk struct {
	info   *types.Info
	report func(pos token.Pos, callee, format string, args ...any)
	held   map[string]bool
	// deferredUnlocks counts defer x.Unlock() statements seen so far;
	// a deferred blocking call registered after one runs under the lock.
	deferredUnlocks int
}

// stmts walks a statement list and reports whether it ends in return or
// panic.
func (c *lockWalk) stmts(list []ast.Stmt) (ends bool) {
	for _, s := range list {
		if c.stmt(s) {
			return true
		}
	}
	return false
}

// stmt walks one statement and reports whether it ends its branch.
func (c *lockWalk) stmt(s ast.Stmt) (ends bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.stmts(s.List)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt)
	case *ast.ReturnStmt:
		c.walk(s)
		return true
	case *ast.ExprStmt:
		c.walk(s)
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		b, ok := c.info.Uses[identOf(call.Fun)].(*types.Builtin)
		return ok && b.Name() == "panic"
	case *ast.IfStmt:
		c.opt(s.Init)
		c.walk(s.Cond)
		before := maps.Clone(c.held)
		var after []map[string]bool
		if !c.stmts(s.Body.List) {
			after = append(after, c.held)
		}
		c.held = maps.Clone(before)
		if s.Else == nil || !c.stmt(s.Else) {
			after = append(after, c.held)
		}
		return c.join(before, after)
	case *ast.SwitchStmt:
		c.opt(s.Init)
		if s.Tag != nil {
			c.walk(s.Tag)
		}
		return c.clauses(s.Body, true)
	case *ast.TypeSwitchStmt:
		c.opt(s.Init)
		c.walk(s.Assign)
		return c.clauses(s.Body, true)
	case *ast.SelectStmt:
		c.selectStmt(s)
		return c.clauses(s.Body, false)
	case *ast.ForStmt:
		c.opt(s.Init)
		if s.Cond != nil {
			c.walk(s.Cond)
		}
		c.loop(s.Body, s.Post)
	case *ast.RangeStmt:
		c.walk(s.X)
		c.loop(s.Body, nil)
	default:
		c.walk(s)
	}
	return false
}

// opt walks an optional statement.
func (c *lockWalk) opt(s ast.Stmt) {
	if s != nil {
		c.stmt(s)
	}
}

// identOf is the identifier a call's function expression names, or nil.
func identOf(fun ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(fun).(*ast.Ident)
	return id
}

// clauses walks the case clauses of a switch or select, each from the
// lock state before the statement. skippable: no clause need run (a
// switch without default), so that state also falls through.
func (c *lockWalk) clauses(body *ast.BlockStmt, skippable bool) (ends bool) {
	before := maps.Clone(c.held)
	var after []map[string]bool
	for _, cl := range body.List {
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.walk(e)
			}
			skippable = skippable && cl.List != nil
			list = cl.Body
		case *ast.CommClause:
			list = cl.Body
		}
		c.held = maps.Clone(before)
		if !c.stmts(list) {
			after = append(after, c.held)
		}
	}
	if skippable {
		after = append(after, before)
	}
	return c.join(before, after)
}

// loop walks a loop body (and post statement), which may run no times.
func (c *lockWalk) loop(body *ast.BlockStmt, post ast.Stmt) {
	before := maps.Clone(c.held)
	if !c.stmts(body.List) {
		c.opt(post)
	}
	c.join(before, []map[string]bool{before, c.held})
}

// join makes the lock state after a branching statement the union of the
// states its branches fall through with, and reports whether none does.
func (c *lockWalk) join(before map[string]bool, after []map[string]bool) (ends bool) {
	if len(after) == 0 {
		c.held = before
		return true
	}
	c.held = map[string]bool{}
	for _, held := range after {
		maps.Copy(c.held, held)
	}
	return false
}

// walk visits the calls and receives of a simple statement or an
// expression in source order.
func (c *lockWalk) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A different dynamic extent, walked on its own.
			return false
		case *ast.DeferStmt:
			// Arguments are evaluated now; the call itself runs at exit.
			for _, arg := range n.Call.Args {
				c.walk(arg)
			}
			c.call(n.Call, true)
			return false
		case *ast.CallExpr:
			c.call(n, false)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(c.held) > 0 {
				c.report(n.Pos(), "<-", "channel receive from %s", types.ExprString(n.X))
			}
		}
		return true
	})
}

// call classifies one call: a lock-state transition or a blocking
// operation.
func (c *lockWalk) call(call *ast.CallExpr, deferred bool) {
	obj := callee(c.info, call)
	if obj == nil {
		return
	}
	if key, kind, ok := mutexOp(c.info, call, obj); ok {
		switch {
		case kind == "Lock" || kind == "RLock":
			c.held[key] = true
		case deferred:
			// The lock stays held until function exit.
			c.deferredUnlocks++
		default:
			delete(c.held, key)
		}
		return
	}
	name, what := blockingCall(obj)
	switch {
	case name == "":
	case deferred && c.deferredUnlocks > 0:
		c.report(call.Pos(), name, "deferred %s runs before the earlier deferred unlock releases its lock (defers run last-in-first-out)", what)
	case !deferred && len(c.held) > 0:
		c.report(call.Pos(), name, "%s while a mutex acquired in this function is held", what)
	}
}

// selectStmt: a select with a default clause never blocks; without one
// it blocks like a receive. The comm operations are accounted for here;
// clauses walks the clause bodies.
func (c *lockWalk) selectStmt(sel *ast.SelectStmt) {
	hasDefault := false
	for _, cl := range sel.Body.List {
		hasDefault = hasDefault || cl.(*ast.CommClause).Comm == nil
	}
	if !hasDefault && len(c.held) > 0 {
		c.report(sel.Pos(), "select", "blocking select while a mutex acquired in this function is held")
	}
}

// mutexOp recognizes x.Lock, x.RLock, x.Unlock and x.RUnlock where x is
// a sync.Mutex or sync.RWMutex, possibly behind pointers, and returns a
// key for x and the method name.
func mutexOp(info *types.Info, call *ast.CallExpr, obj types.Object) (key, kind string, ok bool) {
	switch obj.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !namedType(tv.Type, "sync", "Mutex") && !namedType(tv.Type, "sync", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), obj.Name(), true
}

// blockingCall recognizes the module's blocking and sleeping calls and
// returns the name an exception row spells and a description:
// time.Sleep, any Sleep of internal/clock, cost-model charging (a
// chargeCost method), the replication barrier Tier.Sync and
// sync.WaitGroup.Wait. sync.Cond.Wait is not one: it releases its mutex
// while parked, so waiting under the lock is its contract.
func blockingCall(obj types.Object) (name, what string) {
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	switch {
	case path == "time" && obj.Name() == "Sleep":
		return "time.Sleep", "time.Sleep"
	case path == "stagedweb/internal/clock" && obj.Name() == "Sleep":
		return "Clock.Sleep", "Clock.Sleep"
	case obj.Name() == "chargeCost":
		return "chargeCost", "cost-model charge (chargeCost sleeps the statement's simulated cost)"
	case path == "stagedweb/internal/dbtier" && obj.Name() == "Sync":
		return "Tier.Sync", "replication barrier Tier.Sync"
	case path == "sync" && obj.Name() == "Wait":
		if recv := obj.(*types.Func).Signature().Recv(); recv != nil && namedType(recv.Type(), "sync", "WaitGroup") {
			return "WaitGroup.Wait", "sync.WaitGroup.Wait"
		}
	}
	return "", ""
}

// locksleepPrelude heads every locksleep fixture: an engine with the
// sqldb commit path's locks and its cost-model charge.
const locksleepPrelude = `package fixture

import (
	"sync"
	"time"
)

type engine struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	costNS int64
}

// chargeCost mimics sqldb.DB.chargeCost: the check knows the charge by
// this name.
func (e *engine) chargeCost() {
	time.Sleep(time.Duration(e.costNS))
}
`

// TestLocksleepFixtures covers the commit-path rule both ways: a sleep,
// a deferred charge, a channel receive, a WaitGroup join and a
// defaultless select under a held mutex are flagged, and so is a sleep
// after an unlock on a branch that returns or panics (dbtier.Tier.eject's
// shape), or on a branch that some other path skips; the
// collect-release-charge discipline, a charge deferred before any
// unlock, a polling select, sync.Cond.Wait, a goroutine started under
// the lock, and a sleep after every branch that falls through has
// unlocked are not.
func TestLocksleepFixtures(t *testing.T) {
	held := " while a mutex acquired in this function is held"
	runFixtures(t, locksleep, locksleepPrelude, []fixture{
		{"sleep under the commit lock", `
func (e *engine) commitBad() {
	e.mu.Lock()
	defer e.mu.Unlock()
	time.Sleep(time.Millisecond)
}`, []string{"engine.commitBad: time.Sleep" + held}},
		{"charge deferred after the unlock", `
func (e *engine) deferBad() {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.chargeCost()
}`, []string{"engine.deferBad: deferred cost-model charge (chargeCost sleeps the statement's simulated cost) runs before the earlier deferred unlock releases its lock (defers run last-in-first-out)"}},
		{"receive under a read lock", `
func (e *engine) recvBad(applied chan int) int {
	e.rw.RLock()
	defer e.rw.RUnlock()
	return <-applied
}`, []string{"engine.recvBad: channel receive from applied"}},
		{"WaitGroup join under the lock", `
func (e *engine) waitBad(wg *sync.WaitGroup) {
	e.mu.Lock()
	wg.Wait()
	e.mu.Unlock()
}`, []string{"engine.waitBad: sync.WaitGroup.Wait" + held}},
		{"defaultless select under the lock", `
func (e *engine) selectBad(ch chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-ch:
	}
}`, []string{"engine.selectBad: blocking select" + held}},
		{"sleep after an early-return unlock", `
func (e *engine) ejectBad(gone bool) {
	e.mu.Lock()
	if gone {
		e.mu.Unlock()
		return
	}
	time.Sleep(time.Millisecond)
	e.mu.Unlock()
}`, []string{"engine.ejectBad: time.Sleep" + held}},
		{"sleep after unlocks on panicking and returning cases", `
func (e *engine) switchBad(n int) {
	e.mu.Lock()
	switch n {
	case 0:
		e.mu.Unlock()
		panic("zero")
	case 1:
		e.mu.Unlock()
		return
	}
	e.chargeCost()
	e.mu.Unlock()
}`, []string{"engine.switchBad: cost-model charge (chargeCost sleeps the statement's simulated cost)" + held}},
		{"sleep after an unlock the else path skips", `
func (e *engine) branchBad(ok bool) {
	e.mu.Lock()
	if ok {
		e.mu.Unlock()
	}
	time.Sleep(time.Millisecond)
}`, []string{"engine.branchBad: time.Sleep" + held}},
		{"sleep after every falling-through branch unlocked", `
func (e *engine) branchGood(n int) {
	e.mu.Lock()
	switch {
	case n < 0:
		return
	case n == 0:
		e.mu.Unlock()
	default:
		e.costNS = int64(n)
		e.mu.Unlock()
	}
	for i := 0; i < n; i++ {
		e.mu.Lock()
		e.costNS++
		e.mu.Unlock()
	}
	time.Sleep(time.Duration(e.costNS))
}`, nil},
		{"collect, release, charge", `
func (e *engine) commitGood() {
	e.mu.Lock()
	cost := e.costNS
	e.mu.Unlock()
	time.Sleep(time.Duration(cost))
}`, nil},
		{"charge deferred with no deferred unlock", `
func (e *engine) deferGood() {
	e.mu.Lock()
	e.costNS++
	e.mu.Unlock()
	defer e.chargeCost()
}`, nil},
		{"polling select", `
func (e *engine) selectGood(ch chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-ch:
	default:
	}
}`, nil},
		{"sync.Cond.Wait", `
func (e *engine) condGood(c *sync.Cond) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.costNS == 0 {
		c.Wait()
	}
}`, nil},
		{"goroutine started under the lock", `
func (e *engine) spawnGood() {
	e.mu.Lock()
	defer e.mu.Unlock()
	go func() { e.chargeCost() }()
}`, nil},
	})
}
