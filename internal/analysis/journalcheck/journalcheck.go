// Package journalcheck guards the durability contract between the
// broker's in-memory state machine and its write-ahead journal
// (DESIGN.md §11): recovery replays the journal through the normal
// admission paths, so the journal and the guarded state must move
// under the same critical section.
//
// Two rules, over any type whose methods append to a *Journal-named
// type (the broker.Journal interface, pubsub.BrokerJournal):
//
//  1. lock discipline at append sites — RecordMessage / RecordAttach
//     record state transitions and must be called with the receiver's
//     state lock held exclusively; RecordPubsSeen records the dedup
//     window and may run under the shared (publish-path) lock;
//  2. completeness — once a type journals at all, every exported
//     method that (transitively, via same-receiver calls) mutates a
//     +guarded_by field must also, on some path, append to the
//     journal. That is what keeps a new admission endpoint from
//     silently escaping recovery.
//
// Intentionally unjournaled mutators (state that recovery re-derives)
// carry `//brokervet:allow journalcheck <reason>`.
package journalcheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"probsum/internal/analysis"
)

// Analyzer is the journalcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "journalcheck",
	Doc:  "check journal appends run under the state lock and that exported mutators journal",
	Run:  run,
}

// methodInfo is what the pass learns about one method.
type methodInfo struct {
	decl     *ast.FuncDecl
	named    *types.Named
	journals bool // directly contains a Record* append
	mutates  bool // directly writes a guarded field of its receiver
	callees  []*types.Func
}

func run(pass *analysis.Pass) error {
	files := pass.NonTestFiles()
	guards := analysis.CollectGuards(pass, files, false)
	mustlocks := analysis.CollectMustLocks(pass, files, false)

	methods := make(map[*types.Func]*methodInfo)
	byType := make(map[*types.Named][]*types.Func)

	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			named := recvNamed(fn)
			if named == nil {
				continue
			}
			mi := &methodInfo{decl: fd, named: named}
			methods[fn] = mi
			byType[named] = append(byType[named], fn)

			locks := trackedLocks(named, guards, mustlocks)
			entry := make(map[string]analysis.LockLevel)
			if ml, ok := mustlocks[fn]; ok {
				entry[ml.Lock] = ml.Level
			}
			fieldGuards := guards[named]

			analysis.WalkMethod(fd, analysis.MethodWalk{
				Info:  pass.TypesInfo,
				Locks: locks,
				Entry: entry,
				Access: func(_ *ast.SelectorExpr, field string, write bool, _ analysis.State) {
					if write {
						if _, guarded := fieldGuards[field]; guarded {
							mi.mutates = true
						}
					}
				},
				Call: func(call *ast.CallExpr, st analysis.State) {
					if callee := sameRecvCallee(pass.TypesInfo, call, fd); callee != nil {
						mi.callees = append(mi.callees, callee)
					}
					append_, ok := journalAppend(pass.TypesInfo, call)
					if !ok {
						return
					}
					mi.journals = true
					required := analysis.Exclusive
					if append_.Name() == "RecordPubsSeen" {
						required = analysis.Shared
					}
					held := analysis.Unlocked
					for _, l := range locks {
						if lv := st.Level(l); lv > held {
							held = lv
						}
					}
					if held < required {
						pass.Reportf(call.Pos(),
							"journal append %s must run with the receiver's state lock held %s (held: %s): recovery replays the journal as the lock-ordered truth",
							append_.Name(), required, held)
					}
				},
			})
		}
	}

	// Completeness: in types that journal at all, exported mutators
	// must journal on some path.
	journaledTypes := make(map[*types.Named]bool)
	for _, mi := range methods {
		if mi.journals {
			journaledTypes[mi.named] = true
		}
	}
	var flagged []*methodInfo
	for named := range journaledTypes {
		for _, fn := range byType[named] {
			mi := methods[fn]
			if !fn.Exported() {
				continue
			}
			if closure(fn, methods, func(m *methodInfo) bool { return m.mutates }) &&
				!closure(fn, methods, func(m *methodInfo) bool { return m.journals }) {
				flagged = append(flagged, mi)
			}
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].decl.Pos() < flagged[j].decl.Pos() })
	for _, mi := range flagged {
		pass.Reportf(mi.decl.Pos(),
			"exported method %s.%s mutates journaled state but no path appends to the journal: a crash after it loses the mutation on recovery",
			mi.named.Obj().Name(), mi.decl.Name.Name)
	}
	return nil
}

// closure reports whether pred holds for fn or any same-receiver
// method it transitively calls.
func closure(fn *types.Func, methods map[*types.Func]*methodInfo, pred func(*methodInfo) bool) bool {
	visited := make(map[*types.Func]bool)
	var visit func(*types.Func) bool
	visit = func(f *types.Func) bool {
		if visited[f] {
			return false
		}
		visited[f] = true
		mi, ok := methods[f]
		if !ok {
			return false
		}
		if pred(mi) {
			return true
		}
		for _, c := range mi.callees {
			if visit(c) {
				return true
			}
		}
		return false
	}
	return visit(fn)
}

// journalAppend recognizes calls to Record* methods of a
// *Journal-named type.
func journalAppend(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !strings.HasPrefix(fn.Name(), "Record") {
		return nil, false
	}
	named := recvNamed(fn)
	if named == nil || !strings.Contains(named.Obj().Name(), "Journal") {
		return nil, false
	}
	return fn, true
}

// trackedLocks returns the receiver locks worth tracking for a type:
// every lock its guards and mustlock annotations name, or a bare
// mutex field called mu as fallback.
func trackedLocks(named *types.Named, guards analysis.Guards, mustlocks map[*types.Func]analysis.MustLock) []string {
	set := make(map[string]bool)
	for _, g := range guards[named] {
		set[g.Lock] = true
	}
	for fn, ml := range mustlocks {
		if recvNamed(fn) == named {
			set[ml.Lock] = true
		}
	}
	if len(set) == 0 {
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "mu" {
					set["mu"] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// sameRecvCallee resolves recv.method(...) calls on the enclosing
// method's receiver.
func sameRecvCallee(info *types.Info, call *ast.CallExpr, fd *ast.FuncDecl) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recvObj := info.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil || info.Uses[id] != recvObj {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	return fn
}

// recvNamed returns the named receiver type of a method, through a
// pointer.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n
	}
	return nil
}
