// Package lockscope forbids blocking while a sync.Mutex or sync.RWMutex
// is held. A channel operation, a blocking I/O call, or a call into a
// function that may block inside a critical section turns lock
// contention into latency for every other goroutine — and, when the
// blocked operation needs the same lock to make progress (a metrics sink
// re-entering its sampler, a checkpoint writer flushing through a
// callback), into a deadlock.
//
// Critical sections are tracked syntactically per function body: from a
// `x.Lock()` / `x.RLock()` call to the matching same-receiver
// `x.Unlock()` / `x.RUnlock()`, or to the end of the body when the
// unlock is deferred or missing. Inside a section the analyzer flags:
//
//   - channel sends, receives, selects, and ranges,
//   - calls from a curated table of blocking standard-library functions
//     (time.Sleep, WaitGroup.Wait, os.File and bufio I/O, JSON
//     encode/decode to streams, io.Copy, exec.Cmd waits, ...),
//   - calls to module functions that may block — computed bottom-up over
//     the call graph and carried across packages by the "blocks" fact,
//   - calls through func values (unverifiable, so presumed blocking).
//
// A section whose lock exists precisely to serialise a blocking resource
// — a shared output stream, say — carries //itp:lock-io with a reason.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"

	"itpsim/internal/lint/lintcore"
)

// Analyzer is the lockscope check.
var Analyzer = &lintcore.Analyzer{
	Name: "lockscope",
	Doc:  "no channel ops, blocking I/O, or may-block calls while a mutex is held",
	Run:  run,
}

const blocksFact = "blocks"

var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// blockingStdlib is the curated may-block table. Lock acquisition is
// deliberately absent: flagging nested locking is lock-ordering
// analysis, not this check.
var blockingStdlib = map[string]bool{
	"time.Sleep":                      true,
	"(*sync.WaitGroup).Wait":          true,
	"(*sync.Cond).Wait":               true,
	"(*os.File).Read":                 true,
	"(*os.File).ReadAt":               true,
	"(*os.File).Write":                true,
	"(*os.File).WriteAt":              true,
	"(*os.File).WriteString":          true,
	"(*os.File).Sync":                 true,
	"(*bufio.Writer).Write":           true,
	"(*bufio.Writer).WriteString":     true,
	"(*bufio.Writer).WriteByte":       true,
	"(*bufio.Writer).Flush":           true,
	"(*bufio.Reader).Read":            true,
	"(*bufio.Reader).ReadString":      true,
	"(*bufio.Reader).ReadBytes":       true,
	"(*bufio.Scanner).Scan":           true,
	"(*encoding/json.Encoder).Encode": true,
	"(*encoding/json.Decoder).Decode": true,
	"io.Copy":                         true,
	"io.ReadAll":                      true,
	"io.ReadFull":                     true,
	"fmt.Fprint":                      true,
	"fmt.Fprintf":                     true,
	"fmt.Fprintln":                    true,
	"(*os/exec.Cmd).Run":              true,
	"(*os/exec.Cmd).Wait":             true,
	"(*os/exec.Cmd).Output":           true,
	"(*os/exec.Cmd).CombinedOutput":   true,
	"net/http.Get":                    true,
	"(*net/http.Client).Do":           true,
}

func run(pass *lintcore.Pass) error {
	pkg := pass.Pkg
	g := pkg.CallGraph()

	external := func(fn *types.Func) bool {
		if fn.Pkg() == nil {
			return false
		}
		_, ok := pass.Fact(fn.Pkg().Path(), lintcore.FuncFullName(fn))
		return ok
	}
	// mayBlock marks declared functions whose body contains a channel
	// operation or a blocking stdlib call, directly or transitively.
	// Directives do not enter the summary: //itp:lock-io reviews one
	// flag site, it does not launder the callee's blocking nature.
	mayBlock := g.Propagate(func(n *lintcore.FuncNode) bool {
		if len(n.ChanOps) > 0 {
			return true
		}
		for _, site := range n.Calls {
			if site.Callee != nil && blockingStdlib[lintcore.FuncFullName(site.Callee)] {
				return true
			}
		}
		return false
	}, external)
	for fn, ok := range mayBlock {
		if ok {
			pass.ExportFact(lintcore.FuncFullName(fn), blocksFact)
		}
	}

	dirs := pkg.Directives()
	for _, node := range g.Nodes() {
		body := nodeBody(node)
		if body == nil || pkg.IsTestFile(body.Pos()) {
			continue
		}
		sections := criticalSections(pkg.Info, body)
		if len(sections) == 0 {
			continue
		}
		report := func(pos token.Pos, recv, what string) {
			if dirs.Covers(pos, lintcore.DirLockIO) {
				return
			}
			pass.Reportf(pos, "%s while %s is held: the lock is hostage to this operation's progress (//itp:lock-io with a reason if the lock exists to serialise it)", what, recv)
		}
		for _, op := range node.ChanOps {
			if recv, ok := inSection(sections, op.Node.Pos()); ok {
				report(op.Node.Pos(), recv, chanOpName(op.Kind))
			}
		}
		for _, site := range node.Calls {
			recv, ok := inSection(sections, site.Call.Pos())
			if !ok {
				continue
			}
			switch {
			case site.Callee == nil:
				report(site.Call.Pos(), recv, "call through a func value (unverifiable, presumed blocking)")
			case blockingStdlib[lintcore.FuncFullName(site.Callee)]:
				report(site.Call.Pos(), recv, "blocking call to "+lintcore.FuncFullName(site.Callee))
			case lockMethods[lintcore.FuncFullName(site.Callee)] || unlockMethods[lintcore.FuncFullName(site.Callee)]:
				// Nested locking is lock-ordering territory, not ours.
			case mayBlock[site.Callee] || (site.Callee.Pkg() != nil && site.Callee.Pkg() != pkg.Types && external(site.Callee)):
				report(site.Call.Pos(), recv, "call to "+lintcore.FuncFullName(site.Callee)+", which may block,")
			}
		}
	}
	return nil
}

func nodeBody(node *lintcore.FuncNode) *ast.BlockStmt {
	if node.Decl != nil {
		return node.Decl.Body
	}
	return node.Lit.Body
}

// section is one critical region: (start, end] positions guarded by the
// mutex named by recv (the receiver expression, e.g. "c.mu").
type section struct {
	start, end token.Pos
	recv       string
}

// criticalSections scans body in source order for Lock/Unlock pairs.
// A deferred or missing unlock extends the section to the body's end;
// nested function literals are separate bodies and are skipped.
func criticalSections(info *types.Info, body *ast.BlockStmt) []section {
	type open struct {
		recv  string
		start token.Pos
	}
	var stack []open
	var out []section
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			fn := lintcore.StaticCallee(info, n)
			if fn == nil {
				return true
			}
			name := lintcore.FuncFullName(fn)
			recv := recvString(n)
			switch {
			case lockMethods[name] && !deferred[n]:
				stack = append(stack, open{recv: recv, start: n.End()})
			case unlockMethods[name]:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].recv != recv {
						continue
					}
					end := n.Pos()
					if deferred[n] {
						end = body.End()
					}
					out = append(out, section{start: stack[i].start, end: end, recv: recv})
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
		}
		return true
	})
	// Locks never released in this body hold to its end.
	for _, o := range stack {
		out = append(out, section{start: o.start, end: body.End(), recv: o.recv})
	}
	return out
}

// inSection reports whether pos lies inside any critical section,
// returning the innermost (latest-starting) matching lock's receiver.
func inSection(sections []section, pos token.Pos) (string, bool) {
	best := -1
	for i, s := range sections {
		if pos > s.start && pos < s.end {
			if best < 0 || s.start > sections[best].start {
				best = i
			}
		}
	}
	if best < 0 {
		return "", false
	}
	return sections[best].recv, true
}

// recvString renders the lock call's receiver expression ("c.mu"); for
// a promoted embedded mutex it is the outer value itself.
func recvString(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "mutex"
	}
	return types.ExprString(sel.X)
}

func chanOpName(k lintcore.ChanOpKind) string {
	switch k {
	case lintcore.ChanSend:
		return "channel send"
	case lintcore.ChanRecv:
		return "channel receive"
	case lintcore.ChanSelect:
		return "select"
	default:
		return "range over a channel"
	}
}
