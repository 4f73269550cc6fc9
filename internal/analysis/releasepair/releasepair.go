// Package releasepair enforces the Response pooling contract: Release()
// hands a Response's backing storage (its result columns) back to
// its engine's pool, after which Results may alias a later request's
// in-flight write. Reading it after Release on ANY control-flow
// path is a data race the type system cannot see; this analyzer sees it
// statically.
//
// Two checks:
//
//   - use-after-release: within one function, once an identifier of type
//     Response (or *Response) may have been released on some path, any later
//     read of its Results field — or a re-Release from a second
//     copy — is flagged. Reassigning the variable re-arms it. The analysis is
//     path-insensitive in the conservative direction: a Release inside one
//     branch taints the merge point, because the contract must hold on every
//     path.
//
//   - scratch escape: pooled scratch values (named types whose name ends in
//     "Scratch"/"scratch", e.g. respScratch and the BRJ joiner's brjScratch) must
//     not outlive their owning function except through the sanctioned sinks —
//     a sync.Pool Put/Get, or the Response's own scratch field. Declared
//     scratch-typed results, stores into package-level variables, channel
//     sends, and stores into foreign struct fields are flagged. Pool
//     accessors that legitimately hand scratch out carry
//     //distbound:allow-scratch-escape <reason>.
//
//   - pooled response cached: a pooled Response (one with a Release method
//     and a scratch-backed field) handed to a result cache's Put. A cache
//     entry outlives the inserting request and is shared by every later hit,
//     so it must be a refcounted copy decoupled from the pool — caching the
//     pooled Response itself lets a hit's Release hand shared storage back
//     to the pool while other holders still read it. Caches are recognized
//     by type name ("Cache"/"LRU"); sync.Pool's own Put is exempt, that IS
//     the sanctioned return path. Plain GC-managed Response types (no
//     Release, no scratch field — the shard layer's merged responses) may be
//     cached directly and are not flagged.
//
// Matching is name-based (type named Response with a Release method, type
// names with a scratch suffix) so fixtures can model the shapes without
// importing the engine.
package releasepair

import (
	"go/ast"
	"go/types"
	"strings"

	"distbound/internal/analysis"
)

// Annotation is the escape-suppression directive:
// //distbound:allow-scratch-escape <reason> on the enclosing declaration.
const Annotation = "allow-scratch-escape"

// Analyzer is the releasepair analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "releasepair",
	Doc: "flag reads of Response.Results after Release() on any path, " +
		"pooled scratch values escaping their owning function, " +
		"and pooled Responses inserted into result caches",
	Run: run,
}

// releasedFields are the scratch-backed Response fields that must not be
// read after Release.
var releasedFields = map[string]bool{"Results": true}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if pass.ClassifyFile(file) == analysis.ClassTest {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUseAfterRelease(pass, fd.Body)
			checkScratchEscape(pass, file, fd)
			checkCachePut(pass, fd)
		}
	}
	return nil, nil
}

// ---- use-after-release ----

// relState tracks, per variable object, whether a path reaching the current
// statement may have released it.
type relState map[types.Object]bool

func (s relState) clone() relState {
	c := make(relState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s relState) union(o relState) {
	for k, v := range o {
		if v {
			s[k] = true
		}
	}
}

// checkUseAfterRelease runs the conservative statement-order analysis over
// one function body.
func checkUseAfterRelease(pass *analysis.Pass, body *ast.BlockStmt) {
	st := relState{}
	walkStmts(pass, body.List, st)
}

// walkStmts threads the released-set through a statement sequence.
func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, st relState) {
	for _, s := range stmts {
		walkStmt(pass, s, st)
	}
}

// walkStmt updates st for one statement: first every contained expression is
// checked against the current released-set, then Release() calls and
// reassignments mutate it. Branching statements evaluate each arm on a copy
// and merge by union — "released on any path" is what the contract forbids.
func walkStmt(pass *analysis.Pass, s ast.Stmt, st relState) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		walkStmts(pass, s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, st)
		}
		checkExpr(pass, s.Cond, st)
		thenSt := st.clone()
		walkStmt(pass, s.Body, thenSt)
		elseSt := st.clone()
		if s.Else != nil {
			walkStmt(pass, s.Else, elseSt)
		}
		st.union(thenSt)
		st.union(elseSt)
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, st)
		}
		// Two passes over the body: the second sees the first's releases, so
		// a release-then-use ordering across iterations is caught unless the
		// variable is reassigned at the top of the loop.
		for i := 0; i < 2; i++ {
			if s.Cond != nil {
				checkExpr(pass, s.Cond, st)
			}
			bodySt := st.clone()
			walkStmt(pass, s.Body, bodySt)
			if s.Post != nil {
				walkStmt(pass, s.Post, bodySt)
			}
			st.union(bodySt)
		}
	case *ast.RangeStmt:
		checkExpr(pass, s.X, st)
		for i := 0; i < 2; i++ {
			bodySt := st.clone()
			walkStmt(pass, s.Body, bodySt)
			st.union(bodySt)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, st)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, st)
		}
		merged := st.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseSt := st.clone()
			for _, e := range cc.List {
				checkExpr(pass, e, caseSt)
			}
			walkStmts(pass, cc.Body, caseSt)
			merged.union(caseSt)
		}
		st.union(merged)
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Rare on response paths; analyze arms conservatively via Inspect.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				checkExpr(pass, e, st)
				return false
			}
			return true
		})
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkExpr(pass, rhs, st)
		}
		for _, lhs := range s.Lhs {
			// Writing x.Field after release is as racy as reading it.
			checkExpr(pass, lhs, st)
			if obj := identObj(pass, lhs); obj != nil {
				st[obj] = false // reassignment re-arms the variable
			}
		}
	case *ast.DeferStmt:
		// A deferred Release is the idiomatic pairing: it runs at function
		// exit, after every lexical use, so it does not taint the body. The
		// call's arguments ARE evaluated now, so reads in them are checked.
		for _, arg := range s.Call.Args {
			checkReads(pass, arg, st)
		}
	case *ast.GoStmt:
		checkExpr(pass, s.Call, st)
	case *ast.ExprStmt:
		checkExpr(pass, s.X, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			checkExpr(pass, e, st)
		}
	case *ast.SendStmt:
		checkExpr(pass, s.Chan, st)
		checkExpr(pass, s.Value, st)
	case *ast.IncDecStmt:
		checkExpr(pass, s.X, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkExpr(pass, v, st)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, st)
	}
}

// checkExpr flags released-field reads inside e, then records any Release()
// calls it performs.
func checkExpr(pass *analysis.Pass, e ast.Expr, st relState) {
	checkReads(pass, e, st)
	checkExprShallow(pass, e, st)
}

// checkReads flags released-field reads inside e without recording releases.
func checkReads(pass *analysis.Pass, e ast.Expr, st relState) {
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := identObj(pass, sel.X)
		if obj == nil || !st[obj] {
			return true
		}
		if releasedFields[sel.Sel.Name] && isResponse(pass.TypesInfo.Types[sel.X].Type) {
			pass.Reportf(sel.Pos(),
				"%s.%s read after %s.Release(); the backing storage may already serve another request",
				obj.Name(), sel.Sel.Name, obj.Name())
		}
		return true
	})
}

// checkExprShallow records Release() calls in e without re-checking field
// reads (used for defers, whose call runs after the body).
func checkExprShallow(pass *analysis.Pass, e ast.Expr, st relState) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
			return true
		}
		if !isResponse(pass.TypesInfo.Types[sel.X].Type) {
			return true
		}
		if obj := identObj(pass, sel.X); obj != nil {
			st[obj] = true
		}
		return true
	})
}

// identObj resolves an identifier (possibly parenthesized) to its variable
// object; composite receivers (slice elements, struct fields) are not
// tracked.
func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj, ok := pass.TypesInfo.Uses[id]; ok {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// isResponse reports whether t is a named type Response or pointer to one.
func isResponse(t types.Type) bool {
	name, _ := namedName(t)
	return name == "Response"
}

// ---- scratch escape ----

// checkScratchEscape flags scratch-typed values leaving fd through
// unsanctioned sinks.
func checkScratchEscape(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl) {
	allowed := false
	if a, ok := analysis.FuncAnnotation(fd, Annotation); ok {
		if a.Reason == "" {
			pass.Reportf(fd.Pos(), "//distbound:allow-scratch-escape requires a reason")
		}
		allowed = true
	}

	// Declared scratch-typed results: the function hands pooled storage to
	// its caller. Only sanctioned pool accessors may do that.
	if !allowed && fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			if t := pass.TypesInfo.Types[f.Type].Type; isScratch(t) {
				pass.Reportf(f.Type.Pos(),
					"function returns pooled scratch type %s; scratch must not escape its owning function "+
						"(annotate deliberate pool accessors with //distbound:allow-scratch-escape <reason>)",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break // multi-value RHS: no scratch-typed sources there
				}
				if !isScratch(pass.TypesInfo.Types[n.Rhs[i]].Type) {
					continue
				}
				if sinkViolation(pass, lhs) {
					pass.Reportf(n.Pos(),
						"pooled scratch value stored outside its owning function; "+
							"only a sync.Pool or the Response scratch field may hold it")
				}
			}
		case *ast.SendStmt:
			if isScratch(pass.TypesInfo.Types[n.Value].Type) {
				pass.Reportf(n.Pos(), "pooled scratch value sent on a channel escapes its owning function")
			}
		}
		return true
	})
}

// sinkViolation reports whether storing a scratch value into lhs lets it
// escape: package-level variables always do; struct fields do unless the
// holder is itself scratch-typed or the field is the sanctioned Response
// scratch slot (a lower-case "scratch" field).
func sinkViolation(pass *analysis.Pass, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[l]
		if obj == nil {
			obj = pass.TypesInfo.Defs[l]
		}
		if v, ok := obj.(*types.Var); ok {
			// Package-level variable: outlives every function.
			return v.Parent() == pass.Pkg.Scope()
		}
	case *ast.SelectorExpr:
		if strings.EqualFold(l.Sel.Name, "scratch") {
			return false // the sanctioned Response.scratch slot
		}
		if isScratch(pass.TypesInfo.Types[l.X].Type) {
			return false // scratch holding scratch stays pooled together
		}
		return true
	case *ast.IndexExpr:
		return true // map/slice stores outlive the frame conservatively
	}
	return false
}

// ---- pooled response cached ----

// checkCachePut flags pooled Responses handed to a result cache's Put. The
// cached entry is shared by every later hit, so it must be refcounted and
// pool-decoupled; the pooled Response itself is neither.
func checkCachePut(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Put" {
			return true
		}
		if !isCacheType(pass.TypesInfo.Types[sel.X].Type) {
			return true
		}
		for _, arg := range call.Args {
			if isPooledResponse(pass.TypesInfo.Types[arg].Type) {
				pass.Reportf(arg.Pos(),
					"pooled Response inserted into a result cache; a later hit would share "+
						"pool-backed storage and its Release would return it mid-read — "+
						"cache a refcounted, pool-decoupled copy instead")
			}
		}
		return true
	})
}

// isCacheType reports whether t names a result-cache type: a named type (or
// pointer to one, possibly generic) whose name contains "cache" or "lru"
// case-insensitively. sync.Pool deliberately does not match — Put on a pool
// is the sanctioned return path for pooled storage.
func isCacheType(t types.Type) bool {
	name, _ := namedName(t)
	low := strings.ToLower(name)
	return strings.Contains(low, "cache") || strings.Contains(low, "lru")
}

// isPooledResponse reports whether t is a pooled Response: a named type (or
// pointer to one) named Response carrying both a Release method and a
// scratch-backed field. Responses without either — the shard layer's plain
// merged responses — are ordinary GC-managed values and cache safely.
func isPooledResponse(t types.Type) bool {
	name, named := namedName(t)
	if name != "Response" || named == nil {
		return false
	}
	hasRelease := false
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "Release" {
			hasRelease = true
			break
		}
	}
	if !hasRelease {
		return false
	}
	str, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < str.NumFields(); i++ {
		f := str.Field(i)
		if strings.EqualFold(f.Name(), "scratch") || isScratch(f.Type()) {
			return true
		}
	}
	return false
}

// isScratch reports whether t names a pooled scratch type: a named type (or
// pointer to one) whose name ends in "scratch" case-insensitively.
func isScratch(t types.Type) bool {
	name, _ := namedName(t)
	return strings.HasSuffix(strings.ToLower(name), "scratch")
}

// namedName unwraps pointers and aliases to a named type's object name.
func namedName(t types.Type) (string, *types.Named) {
	if t == nil {
		return "", nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name(), named
	}
	return "", nil
}
