// Package lint is a small static-analysis framework for this repository,
// built entirely on the standard library (go/parser, go/ast, go/types).
// It exists because the reproduction's scientific claims rest on
// invariants the Go compiler cannot check:
//
//   - the synthetic population and analysis layers must be bit-for-bit
//     deterministic, or the Table 2 / Figure 1 calibration stops being
//     reproducible (analyzers: determinism);
//   - the hand-rolled DNS wire codec must never index past buffer
//     bounds on adversarial input — the parser-robustness failure class
//     that NSEC3 CPU-exhaustion attacks exploit at measurement scale
//     (analyzer: wiresafety);
//   - errors, lock copies, and magic protocol numbers must not slip in
//     as the scanner grows toward production scale (analyzers:
//     errdiscard, copylock, rfcconst).
//
// The framework intentionally mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) without
// depending on it, honoring the repository's stdlib-only constraint.
// The cmd/reprolint driver loads packages and runs Analyzers().
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Pos locates the finding (file, line, column).
	Pos token.Position
	// Message describes the violation and, where possible, the fix.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's syntax trees, already filtered down to the
	// files in the analyzer's scope.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression and object tables.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check over a type-checked package, or — when
// RunProject is set — over the whole loaded package set at once.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Packages restricts the analyzer to packages whose import path ends
	// with one of these suffixes (segment-aligned). Empty means every
	// package.
	Packages []string
	// ExtraFiles admits individual files (path suffix match) that live
	// in packages outside the Packages scope.
	ExtraFiles []string
	// ExemptFiles are file path suffixes the analyzer never inspects,
	// even inside an in-scope package.
	ExemptFiles []string
	// Run inspects pass.Files and calls pass.Reportf for violations.
	// Nil for project-wide analyzers.
	Run func(pass *Pass)
	// RunProject, when set, runs once over the whole package set with
	// the cross-package call graph instead of per package. Project
	// analyzers scope themselves (Packages/ExtraFiles/ExemptFiles do
	// not apply).
	RunProject func(pass *ProjectPass)
}

// Project is the whole loaded package set plus its call graph — the
// view interprocedural analyzers run on.
type Project struct {
	// Packages are the loaded packages, sharing one token.FileSet.
	Packages []*Package
	// Graph is the static cross-package call graph.
	Graph *CallGraph
}

// NewProject builds the interprocedural view of pkgs.
func NewProject(pkgs []*Package) *Project {
	return &Project{Packages: pkgs, Graph: BuildCallGraph(pkgs)}
}

// ProjectPass carries one project analyzer's run.
type ProjectPass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Project is the loaded package set and call graph.
	Project *Project

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos, located through fset (use the
// owning package's or node's FileSet).
func (p *ProjectPass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// pathSuffixMatch reports whether path ends with suffix on a path
// segment boundary ("internal/population" matches
// "repro/internal/population" but not "x/notinternal/population").
func pathSuffixMatch(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// inScope reports whether the analyzer applies to the file named
// filename inside the package with import path pkgPath.
func (a *Analyzer) inScope(pkgPath, filename string) bool {
	for _, ex := range a.ExemptFiles {
		if pathSuffixMatch(filename, ex) {
			return false
		}
	}
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if pathSuffixMatch(pkgPath, p) {
			return true
		}
	}
	for _, f := range a.ExtraFiles {
		if pathSuffixMatch(filename, f) {
			return true
		}
	}
	return false
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the parsed source files (tests excluded).
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info is the type-checker's fact tables for Files.
	Info *types.Info
}

// Analyzers returns the full project suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		WireSafetyAnalyzer,
		ErrDiscardAnalyzer,
		CopyLockAnalyzer,
		RFCConstAnalyzer,
		DeterTaintAnalyzer,
		GoLeakAnalyzer,
		LockOrderAnalyzer,
		CtxPropAnalyzer,
		WireTaintAnalyzer,
		MergePurityAnalyzer,
		HotPathAllocAnalyzer,
		BufAliasAnalyzer,
		PoolSafeAnalyzer,
	}
}

// Run applies each analyzer to each package within its scope and
// returns every diagnostic, sorted by position then analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var project *Project
	for _, a := range analyzers {
		if a.RunProject != nil && project == nil {
			project = NewProject(pkgs)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			var files []*ast.File
			for _, f := range pkg.Files {
				name := pkg.Fset.Position(f.Package).Filename
				if a.inScope(pkg.Path, name) {
					files = append(files, f)
				}
			}
			if len(files) == 0 {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunProject == nil {
			continue
		}
		a.RunProject(&ProjectPass{Analyzer: a, Project: project, diags: &diags})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for builtins, function-typed variables, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := info.Uses[calleeIdent(call.Fun)].(*types.Func)
	return fn
}

// calleeIdent returns the identifier naming a call's function — f,
// x.f, or an explicit instantiation f[T] / x.f[T, U] — or nil.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	case *ast.IndexExpr:
		return calleeIdent(fun.X)
	case *ast.IndexListExpr:
		return calleeIdent(fun.X)
	}
	return nil
}

// exprString renders an expression in canonical source form, used as a
// syntactic identity key by several analyzers.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (not a method).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}
