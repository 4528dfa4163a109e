package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at one source position.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String formats the diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	// Name is the identifier used by -checks and //lint:ignore.
	Name string
	// Doc is the one-line description shown by acrlint -list.
	Doc string
	// Run reports the analyzer's findings for one package via the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	// Prog is the whole loaded program, for cross-package call-graph walks.
	Prog *Program
	// Pkg is the package under analysis.
	Pkg *Package

	check string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite: the six v1 syntax-driven
// checks plus the four v2 CFG/dataflow checks.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerMemoKey,
		analyzerUnitSafe,
		analyzerLockGuard,
		analyzerFloatEq,
		analyzerCtxFlow,
		analyzerDupeHelper,
		analyzerGoroLeak,
		analyzerDetOrder,
		analyzerAllocHot,
		analyzerSpanFlow,
	}
}

// ByName resolves a comma-separated analyzer list.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over every package of the program, applies
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// by position.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range p.Packages {
		for _, a := range analyzers {
			pass := &Pass{Prog: p, Pkg: pkg, check: a.Name, diags: &diags}
			a.Run(pass)
		}
	}
	diags = p.applySuppressions(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	checks map[string]bool // nil means "all"
}

// applySuppressions drops diagnostics covered by a
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// comment on the same line or the line directly above, and reports
// malformed suppressions (a reason is mandatory — the suppression is the
// audit trail for why the contract does not apply).
func (p *Program) applySuppressions(diags []Diagnostic) []Diagnostic {
	// file -> line -> suppressions effective on that line.
	byLine := make(map[string]map[int][]suppression)
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "lint:ignore")
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						diags = append(diags, Diagnostic{
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Check:   "lint",
							Message: "malformed suppression: want //lint:ignore <check> <reason>",
						})
						continue
					}
					s := suppression{}
					if fields[0] != "all" {
						s.checks = make(map[string]bool)
						for _, name := range strings.Split(fields[0], ",") {
							s.checks[name] = true
						}
					}
					m := byLine[pos.Filename]
					if m == nil {
						m = make(map[int][]suppression)
						byLine[pos.Filename] = m
					}
					// A trailing comment guards its own line; a standalone
					// comment guards the next line. Registering both keeps
					// the syntax position-insensitive.
					m[pos.Line] = append(m[pos.Line], s)
					m[pos.Line+1] = append(m[pos.Line+1], s)
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range byLine[d.File][d.Line] {
			if s.checks == nil || s.checks[d.Check] {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// ---- shared type helpers ----

// namedStruct returns the named type and struct underlying t (through
// pointers), or nil when t is not a (pointer to) named struct.
func namedStruct(t types.Type) (*types.Named, *types.Struct) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
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

// isAtomicType reports whether t is one of sync/atomic's typed values
// (atomic.Uint64 and friends) — cache bookkeeping like a mutex, not
// model input.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// containsMutex reports whether t transitively embeds a sync mutex by
// value.
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if isMutexType(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if containsMutex(st.Field(i).Type(), seen) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isFloatType reports whether t's core type is a floating-point basic type.
func isFloatType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// calleeOf resolves the *types.Func a call expression invokes, or nil for
// indirect calls, conversions and builtins. Methods of instantiated
// generic types resolve to their generic origin, so FuncDecl lookups see
// the declaration (Memory[Point].Get → Memory[V].Get).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	case *ast.IndexExpr:
		// Explicitly instantiated generic function: f[T](...).
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ = info.Uses[id].(*types.Func)
		}
	}
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// inModule reports whether obj is declared inside the analyzed module (its
// package is one of the program's loaded packages).
func (p *Program) inModule(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && p.byPath[obj.Pkg().Path()] != nil
}
