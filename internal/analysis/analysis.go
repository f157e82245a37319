// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis surface that brokervet's
// analyzers are written against. The container this repo builds in has
// no module proxy access, so rather than vendor x/tools the suite
// defines the same shape — Analyzer, Pass, Diagnostic — over the
// standard library's go/ast + go/types, plus the three pieces every
// brokervet pass shares:
//
//   - annotation parsing: `+guarded_by:<lock>` on struct fields,
//     `+mustlock:<lock>` on methods
//   - suppression comments: `//brokervet:allow <analyzer> <reason>`
//   - a package loader (load.go) and the lock-state walker
//     (lockstate.go)
//
// Analyzers are pure functions of a typed package; they keep no state
// between packages and export no facts. That forfeits cross-package
// fact propagation (gVisor's checklocks uses it for exported APIs) but
// every invariant brokervet enforces is package-local by construction:
// the guarded fields, the codec switches, and the journal call sites
// are all unexported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one brokervet pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in
	// //brokervet:allow suppressions.
	Name string
	// Doc is the one-paragraph description printed by cmd/brokervet.
	Doc string
	// Run applies the pass to one package and reports findings
	// through pass.Report.
	Run func(*Pass) error
}

// A Pass is one application of an analyzer to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) { p.diags = append(p.diags, d) }

// Reportf records one formatted finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NonTestFiles returns the pass's files excluding _test.go files.
// brokervet enforces its invariants on production code: tests reach
// into internals (poking guarded fields after quiescence, real sleeps
// around real sockets) deliberately, and the race detector plus the
// deterministic harnesses own that ground.
func (p *Pass) NonTestFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// ---------------------------------------------------------------------------
// Annotations

var (
	guardedRe  = regexp.MustCompile(`\+guarded_by:([A-Za-z_][A-Za-z0-9_]*)(\s*\(writes\))?`)
	mustlockRe = regexp.MustCompile(`\+mustlock:([A-Za-z_][A-Za-z0-9_]*)(\s*\(shared\))?`)
)

// FieldGuard is one `+guarded_by:<lock>` annotation on a struct field:
// reads of the field require at least the shared mode of the named
// lock, writes its exclusive mode. The `(writes)` form checks writes
// only — for fields read lock-free through an atomic but whose
// updates are serialized by the lock (pubDedup's generation pointer).
type FieldGuard struct {
	Lock       string
	WritesOnly bool
	// Pos is the annotated field's position (where validation
	// diagnostics anchor).
	Pos token.Pos
}

// Guards maps a named struct type to its annotated fields.
type Guards map[*types.Named]map[string]FieldGuard

// CollectGuards parses every `+guarded_by` annotation in files and,
// when report is set, validates that the named lock is a sync.Mutex /
// sync.RWMutex field of the same struct (only one analyzer should
// report validation, or findings double up). Fields whose annotation
// fails validation are still returned (so dependent checks do not
// cascade), with the guard as written.
func CollectGuards(pass *Pass, files []*ast.File, report bool) Guards {
	guards := make(Guards)
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name]
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					guard, ok := parseGuard(field)
					if !ok {
						continue
					}
					if report && !structHasLockField(named, guard.Lock) {
						pass.Reportf(field.Pos(),
							"+guarded_by:%s: struct %s has no sync.Mutex or sync.RWMutex field named %q",
							guard.Lock, named.Obj().Name(), guard.Lock)
					}
					if guards[named] == nil {
						guards[named] = make(map[string]FieldGuard)
					}
					for _, name := range field.Names {
						guards[named][name.Name] = guard
					}
				}
			}
		}
	}
	return guards
}

// parseGuard extracts a +guarded_by annotation from a field's doc or
// trailing comment.
func parseGuard(field *ast.Field) (FieldGuard, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return FieldGuard{Lock: m[1], WritesOnly: m[2] != "", Pos: field.Pos()}, true
		}
	}
	return FieldGuard{}, false
}

// structHasLockField reports whether the named struct type declares a
// field lock of a mutex type.
func structHasLockField(named *types.Named, lock string) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == lock && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// MustLock is one `+mustlock:<lock>` annotation on a method: callers
// must hold the receiver's named lock — exclusively by default, at
// least shared with the `(shared)` form — before calling, and the
// method body is analyzed starting in that lock state.
type MustLock struct {
	Lock  string
	Level LockLevel
}

// CollectMustLocks parses `+mustlock` annotations on method
// declarations and, when report is set, validates that the named lock
// is a mutex field of the receiver's struct.
func CollectMustLocks(pass *Pass, files []*ast.File, report bool) map[*types.Func]MustLock {
	out := make(map[*types.Func]MustLock)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Recv == nil {
				continue
			}
			m := mustlockRe.FindStringSubmatch(fd.Doc.Text())
			if m == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ml := MustLock{Lock: m[1], Level: Exclusive}
			if m[2] != "" {
				ml.Level = Shared
			}
			if named := recvNamed(fn); report && (named == nil || !structHasLockField(named, ml.Lock)) {
				pass.Reportf(fd.Pos(),
					"+mustlock:%s: receiver of %s has no sync.Mutex or sync.RWMutex field named %q",
					ml.Lock, fd.Name.Name, ml.Lock)
			}
			out[fn] = ml
		}
	}
	return out
}

// recvNamed returns the named type of a method's receiver (through a
// pointer), or nil.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ---------------------------------------------------------------------------
// Suppressions

// allowRe matches suppression comments. Like any Go directive the
// comment must start exactly with `//brokervet:allow` (no space), so
// prose that merely mentions the syntax does not suppress anything.
// The reason is mandatory: a suppression without a recorded why is
// itself a finding.
var allowRe = regexp.MustCompile(`^//brokervet:allow(?:\s+(\S+))?\s*(.*)$`)

// Allow is one parsed suppression comment.
type Allow struct {
	Analyzer string
	Reason   string
	Pos      token.Pos
}

// CollectAllows gathers the //brokervet:allow comments of all files,
// keyed by file name and line. A suppression applies to diagnostics
// on its own line and on the line directly below (the "annotation
// above the statement" form).
func CollectAllows(fset *token.FileSet, files []*ast.File) map[string]map[int][]Allow {
	out := make(map[string]map[int][]Allow)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int][]Allow)
				}
				a := Allow{Analyzer: m[1], Reason: strings.TrimSpace(m[2]), Pos: c.Pos()}
				out[pos.Filename][pos.Line] = append(out[pos.Filename][pos.Line], a)
			}
		}
	}
	return out
}

// Suppressed reports whether a diagnostic of the named analyzer at
// pos is covered by an allow comment on the same line or the line
// above.
func Suppressed(fset *token.FileSet, allows map[string]map[int][]Allow, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := allows[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, a := range lines[line] {
			if a.Analyzer == analyzer {
				return true
			}
		}
	}
	return false
}
