// Package wirecheck machine-checks the wire protocol's growth rules.
// Every PR that adds a frame kind or a field must keep two promises
// that historically lived in review comments:
//
//  1. exhaustiveness — every Msg* kind of the MsgKind enum is handled
//     in the binary encode switch reachable from MarshalFrame and the
//     decode switch reachable from UnmarshalFrame;
//  2. field symmetry — within the binary switches, a Message field
//     serialized for a kind must be decoded for that kind and vice
//     versa (the "added a field on one side" bug class).
//
// The analyzer activates only in packages that declare MarshalFrame /
// UnmarshalFrame over a type named MsgKind; everything else is out of
// scope by construction.
package wirecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"probsum/internal/analysis"
)

// Analyzer is the wirecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "wirecheck",
	Doc:  "check Msg* codec exhaustiveness and encode/decode field symmetry",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	files := pass.NonTestFiles()
	marshal := findFuncDecl(pass, files, "MarshalFrame")
	unmarshal := findFuncDecl(pass, files, "UnmarshalFrame")
	if marshal == nil && unmarshal == nil {
		return nil
	}
	kindType := findKindType(pass)
	if kindType == nil {
		return nil
	}
	kinds := kindConsts(pass, kindType)
	if len(kinds) == 0 {
		return nil
	}

	graph := buildCallGraph(pass, files)

	// Rule 1: exhaustiveness of the binary switches.
	encode := collectSide(pass, graph, marshal, kindType)
	decode := collectSide(pass, graph, unmarshal, kindType)
	reportMissingKinds(pass, marshal, "encode switch reachable from MarshalFrame", kinds, encode)
	reportMissingKinds(pass, unmarshal, "decode switch reachable from UnmarshalFrame", kinds, decode)

	// Rule 2: encode/decode field symmetry per kind.
	if marshal != nil && unmarshal != nil {
		checkFieldSymmetry(pass, kinds, encode, decode)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Kind discovery

// findKindType locates the named type called MsgKind that this
// package's frame kinds are constants of — declared locally or
// imported.
func findKindType(pass *analysis.Pass) *types.Named {
	for _, m := range []map[*ast.Ident]types.Object{pass.TypesInfo.Defs, pass.TypesInfo.Uses} {
		for _, obj := range m {
			if obj == nil {
				continue
			}
			tn, ok := obj.(*types.TypeName)
			if ok && tn.Name() == "MsgKind" {
				if named, ok := tn.Type().(*types.Named); ok {
					return named
				}
			}
			if c, ok := obj.(*types.Const); ok {
				if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == "MsgKind" {
					return named
				}
			}
		}
	}
	return nil
}

// kindConsts enumerates the Msg*-named constants of the kind type
// from its defining package's scope.
func kindConsts(pass *analysis.Pass, kindType *types.Named) map[string]*types.Const {
	pkg := kindType.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	out := make(map[string]*types.Const)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Msg") {
			continue
		}
		if types.Identical(c.Type(), kindType) {
			out[name] = c
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Reachability

// buildCallGraph over-approximates the package-local call graph: an
// edge exists wherever a function's body references another
// package-level function or method.
func buildCallGraph(pass *analysis.Pass, files []*ast.File) map[*types.Func][]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	graph := make(map[*types.Func][]*ast.FuncDecl)
	for fn, fd := range decls {
		if fd.Body == nil {
			continue
		}
		seen := make(map[*types.Func]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || seen[callee] {
				return true
			}
			if target, ok := decls[callee]; ok {
				seen[callee] = true
				graph[fn] = append(graph[fn], target)
			}
			return true
		})
	}
	return graph
}

// reachableDecls returns root plus every package-level function its
// body transitively references.
func reachableDecls(pass *analysis.Pass, graph map[*types.Func][]*ast.FuncDecl, root *ast.FuncDecl) []*ast.FuncDecl {
	rootFn, ok := pass.TypesInfo.Defs[root.Name].(*types.Func)
	if !ok {
		return []*ast.FuncDecl{root}
	}
	visited := map[*types.Func]bool{rootFn: true}
	out := []*ast.FuncDecl{root}
	queue := []*types.Func{rootFn}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, fd := range graph[fn] {
			callee, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || visited[callee] {
				continue
			}
			visited[callee] = true
			out = append(out, fd)
			queue = append(queue, callee)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Switch collection

// sideInfo is what one side (encode or decode) of the codec covers.
type sideInfo struct {
	covered map[string]token.Pos       // kind → first case clause position
	fields  map[string]map[string]bool // kind → Message fields touched in its cases
}

// collectSide gathers the kind-switch coverage reachable from root.
func collectSide(pass *analysis.Pass, graph map[*types.Func][]*ast.FuncDecl, root *ast.FuncDecl, kindType *types.Named) *sideInfo {
	if root == nil {
		return nil
	}
	side := &sideInfo{
		covered: make(map[string]token.Pos),
		fields:  make(map[string]map[string]bool),
	}
	msgType := findMessageType(pass, kindType)
	for _, fd := range reachableDecls(pass, graph, root) {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.TypesInfo.Types[sw.Tag]
			if !ok || !sameNamed(tv.Type, kindType) {
				return true
			}
			for _, c := range sw.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				var caseKinds []string
				for _, e := range cc.List {
					if name, ok := kindConstName(pass, e, kindType); ok {
						caseKinds = append(caseKinds, name)
						if _, seen := side.covered[name]; !seen {
							side.covered[name] = cc.Pos()
						}
					}
				}
				if msgType == nil || len(caseKinds) == 0 {
					continue
				}
				touched := messageFields(pass, cc, msgType)
				for _, k := range caseKinds {
					if side.fields[k] == nil {
						side.fields[k] = make(map[string]bool)
					}
					for f := range touched {
						side.fields[k][f] = true
					}
				}
			}
			return true
		})
	}
	return side
}

// kindConstName resolves a case expression to a Msg* constant name.
func kindConstName(pass *analysis.Pass, e ast.Expr, kindType *types.Named) (string, bool) {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok || !types.Identical(c.Type(), kindType) {
		return "", false
	}
	return c.Name(), true
}

// findMessageType locates the frame struct: the named struct type
// with a Kind field of the kind type, searched in the kind type's
// package and the current one.
func findMessageType(pass *analysis.Pass, kindType *types.Named) *types.Named {
	scopes := []*types.Scope{pass.Pkg.Scope()}
	if p := kindType.Obj().Pkg(); p != nil {
		scopes = append(scopes, p.Scope())
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "Kind" && types.Identical(f.Type(), kindType) {
					return named
				}
			}
		}
	}
	return nil
}

// messageFields collects the frame-struct fields a case body touches:
// selector reads/writes on Message-typed expressions plus composite
// literal keys, Kind excluded.
func messageFields(pass *analysis.Pass, cc *ast.CaseClause, msgType *types.Named) map[string]bool {
	out := make(map[string]bool)
	for _, s := range cc.Body {
		ast.Inspect(s, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				tv, ok := pass.TypesInfo.Types[x.X]
				if !ok || !sameNamed(tv.Type, msgType) {
					return true
				}
				if sel, ok := pass.TypesInfo.Selections[x]; !ok || sel.Kind() != types.FieldVal {
					return true
				}
				if x.Sel.Name != "Kind" {
					out[x.Sel.Name] = true
				}
			case *ast.CompositeLit:
				tv, ok := pass.TypesInfo.Types[x]
				if !ok || !sameNamed(tv.Type, msgType) {
					return true
				}
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name != "Kind" {
							out[id.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// sameNamed compares a (possibly pointer-wrapped, possibly aliased)
// type against a named type.
func sameNamed(t types.Type, named *types.Named) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

// reportMissingKinds flags kinds absent from a side's switches.
func reportMissingKinds(pass *analysis.Pass, root *ast.FuncDecl, where string, kinds map[string]*types.Const, side *sideInfo) {
	if root == nil || side == nil {
		return
	}
	var missing []string
	for name := range kinds {
		if _, ok := side.covered[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		pass.Reportf(root.Pos(), "%s is not handled in the %s", name, where)
	}
}

// ---------------------------------------------------------------------------
// Field symmetry

func checkFieldSymmetry(pass *analysis.Pass, kinds map[string]*types.Const, encode, decode *sideInfo) {
	if encode == nil || decode == nil {
		return
	}
	var names []string
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		encPos, encOK := encode.covered[name]
		decPos, decOK := decode.covered[name]
		if !encOK || !decOK {
			continue // exhaustiveness already reported
		}
		for _, f := range sortedDiff(encode.fields[name], decode.fields[name]) {
			pass.Reportf(encPos,
				"field %s of %s is serialized in the encode switch but never decoded: the peer silently drops it", f, name)
		}
		for _, f := range sortedDiff(decode.fields[name], encode.fields[name]) {
			pass.Reportf(decPos,
				"field %s of %s is decoded but never serialized in the encode switch: it can only ever be zero on the wire", f, name)
		}
	}
}

func sortedDiff(a, b map[string]bool) []string {
	var out []string
	for f := range a {
		if !b[f] {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// findFuncDecl locates a package-level function by name.
func findFuncDecl(pass *analysis.Pass, files []*ast.File, name string) *ast.FuncDecl {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}
