// Package lockio flags file/network I/O performed while a sync.Mutex or
// RWMutex is held. DASSA's hot paths (BlockCache shards, the ingester's
// catalog lock, the obs registry) are designed so disk reads happen
// outside critical sections — singleflight and snapshot-swap exist exactly
// so a slow disk never stalls every reader behind a lock. Functions whose
// name ends in "Locked" are treated as running entirely under their
// caller's lock (the project's naming convention).
//
// Before per-function analysis, a package-local summary pass records
// which declared non-*Locked functions and methods directly perform I/O,
// so a call to such a helper under a held lock is reported even though
// the I/O is one call away. The summary is one level deep by design — a
// helper that only reaches I/O through another helper stays invisible
// (the documented blind spot; closing it needs real SSA call graphs).
// *Locked helpers are excluded from the summary because their bodies are
// already analyzed as whole critical sections.
package lockio

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"dassa/internal/lint/analysis"
	"dassa/internal/lint/astutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "no file or network I/O while a sync.Mutex/RWMutex is held; " +
		"*Locked functions are assumed to hold their caller's lock",
	Run: run,
}

// osIOFuncs are package-level os functions that touch the filesystem.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Stat": true, "Lstat": true,
	"ReadDir": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Link": true, "Symlink": true, "Chmod": true, "Chtimes": true,
}

// dasfIOFuncs are the storage layer's entry points that open, read, or
// write physical files.
var dasfIOFuncs = map[string]bool{
	"Open": true, "ReadInfo": true, "WriteData": true, "WriteDataCompressed": true,
	"WriteVCA": true, "CreateData": true, "OpenForWrite": true,
}

// dassIOFuncs are catalog/VCA operations that hit the filesystem; every
// method of dass.Scanner does too.
var dassIOFuncs = map[string]bool{
	"CreateVCA": true, "AppendToVCA": true, "OpenView": true,
	"ScanDir": true, "ScanDirCached": true,
}

// netIOFuncs covers the dial/listen/request surface of net and net/http.
var netIOFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true,
	"Get": true, "Post": true, "PostForm": true, "Head": true, "Do": true,
}

func run(pass *analysis.Pass) error {
	sum := summarize(pass)
	for _, f := range pass.Files {
		for _, u := range astutil.Units(f) {
			checkUnit(pass, u, sum)
		}
	}
	return nil
}

// summarize records, for every declared non-*Locked function or method
// in the package, the first file/network/dasf I/O its body performs
// directly (nested function literals excluded — they run later, if at
// all). Calls to these helpers count as I/O at the call site.
func summarize(pass *analysis.Pass) map[*types.Func]string {
	out := map[*types.Func]string{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			desc := ""
			astutil.WalkUnit(fd.Body, func(n ast.Node) bool {
				if desc != "" {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if d, ok := ioCall(pass, call); ok {
						desc = d
						return false
					}
				}
				return true
			})
			if desc != "" {
				out[obj] = desc
			}
		}
	}
	return out
}

// event is one ordered occurrence inside a function body.
type event struct {
	pos  int // source offset order
	kind int // 0 lock, 1 unlock, 2 io
	key  string
	desc string
	node ast.Node
}

const (
	evLock = iota
	evUnlock
	evIO
)

func checkUnit(pass *analysis.Pass, u astutil.FuncUnit, sum map[*types.Func]string) {
	var events []event
	lockedWhole := u.Decl != nil && strings.HasSuffix(u.Decl.Name.Name, "Locked")

	astutil.WalkUnit(u.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock never ends the region before the function
			// returns, so it contributes no unlock event. Deferred I/O runs
			// after the (deferred) unlocks in LIFO order more often than
			// not; treating it as outside the region avoids false alarms.
			return false
		case *ast.CallExpr:
			if key, op, ok := mutexOp(pass, x); ok {
				kind := evLock
				if op == "Unlock" || op == "RUnlock" {
					kind = evUnlock
				}
				events = append(events, event{pos: int(x.Pos()), kind: kind, key: key, node: x})
			} else if desc, ok := ioCall(pass, x); ok {
				events = append(events, event{pos: int(x.Pos()), kind: evIO, desc: desc, node: x})
			} else if fn := astutil.Callee(pass.TypesInfo, x); fn != nil {
				if helperIO, ok := sum[fn]; ok && (u.Decl == nil || pass.TypesInfo.Defs[u.Decl.Name] != fn) {
					events = append(events, event{pos: int(x.Pos()), kind: evIO,
						desc: fmt.Sprintf("call to %s (which does %s)", fn.Name(), helperIO), node: x})
				}
			}
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	for _, ev := range events {
		if ev.kind != evIO {
			continue
		}
		if lockedWhole {
			pass.Reportf(ev.node.Pos(),
				"lockio: %s inside %s, which by its name runs with the caller's lock held; "+
					"move the I/O outside the critical section", ev.desc, u.Decl.Name.Name)
			continue
		}
		if key, ok := heldAt(events, ev.pos); ok {
			pass.Reportf(ev.node.Pos(),
				"lockio: %s while %s is held; move the I/O outside the critical section "+
					"(snapshot under the lock, then do the I/O)", ev.desc, key)
		}
	}
}

// heldAt reports whether any mutex is lock-acquired before offset pos
// without an intervening unlock of the same mutex expression.
func heldAt(events []event, pos int) (string, bool) {
	held := map[string]bool{}
	for _, ev := range events {
		if ev.pos >= pos {
			break
		}
		switch ev.kind {
		case evLock:
			held[ev.key] = true
		case evUnlock:
			delete(held, ev.key)
		}
	}
	for k := range held {
		return k, true
	}
	return "", false
}

// mutexOp matches x.Lock/Unlock/RLock/RUnlock on sync.Mutex/RWMutex
// receivers and returns the receiver's rendering as the region key.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	fn := astutil.Callee(pass.TypesInfo, call)
	recv := astutil.RecvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	if name := recv.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", "", false
	}
	if op == "TryLock" || op == "TryRLock" {
		op = "Lock" // a successful try holds the lock; treat as acquisition
	}
	return types.ExprString(sel.X), op, true
}

// ioCall classifies call as I/O and describes it.
func ioCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := astutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if recv := astutil.RecvNamed(fn); recv != nil {
		rp := ""
		if recv.Obj().Pkg() != nil {
			rp = recv.Obj().Pkg().Path()
		}
		switch {
		case rp == "os" && recv.Obj().Name() == "File":
			return "os.File." + name, true
		case pathEnds(rp, "dasf") && (recv.Obj().Name() == "Reader" || recv.Obj().Name() == "ParallelWriter"),
			pathEnds(rp, "dass") && recv.Obj().Name() == "Scanner":
			return recv.Obj().Name() + "." + name, true
		case (rp == "net/http" || rp == "net") && netIOFuncs[name]:
			return recv.Obj().Name() + "." + name, true
		}
		return "", false
	}
	switch p := astutil.PkgPath(fn); {
	case p == "os" && osIOFuncs[name]:
		return "os." + name, true
	case pathEnds(p, "dasf") && dasfIOFuncs[name]:
		return "dasf." + name, true
	case pathEnds(p, "dass") && dassIOFuncs[name]:
		return "dass." + name, true
	case (p == "net" || p == "net/http") && netIOFuncs[name]:
		return p + "." + name, true
	}
	return "", false
}

func pathEnds(p, suffix string) bool {
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}
