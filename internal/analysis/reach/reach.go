// Package reach reports production code that no production root reaches: a
// function or method that nothing outside _test.go files calls. It is the
// "minimal by construction" rule as a check: code only tests exercise either
// goes, or says why it stays.
//
// The roots are every main and init (commands, examples and the bench/
// harness), every package-level var initializer, and every function annotated
// //distbound:api <reason> (library surface kept without a caller yet, or a
// test seam) or //distbound:oracle <reason> (kept as a test reference). An
// annotation without a reason is itself a finding.
//
// From the roots the pass follows every function an identifier in a reached
// body uses (calls, method values and function values alike) and, by rapid
// type analysis, interface calls: an interface method call reaches the method
// of every type that reached code converts to an interface of this program
// and that implements the called method's interface. A type converted to an
// interface this program does not declare (error, any, fmt.Stringer,
// sort.Interface …) may have any exported method called by the standard
// library, so all of them are reached. Reflection is not followed, nor a
// value the standard library receives through one of this program's
// interfaces: check a String or Error finding before deleting it.
//
// Packages that only _test.go files import (test support such as
// internal/testutil) are neither roots nor reported; a helper only they call
// needs an oracle annotation.
package reach

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"

	"distbound/internal/analysis"
)

// Analyzer is the reach analyzer. It needs the whole program, so it runs
// through Program, not Run.
var Analyzer = &analysis.Analyzer{
	Name: "reach",
	Doc: "report functions no production root reaches; keep deliberate ones with " +
		"//distbound:api <reason> or //distbound:oracle <reason>",
	Program: run,
}

// decl is one function or method declaration of the program.
type decl struct {
	fd   *ast.FuncDecl
	info *types.Info
}

// state is one reachability solve.
type state struct {
	pkgs    map[*types.Package]bool // the analysed (non-test-support) packages
	decls   map[*types.Func]decl
	reached map[*types.Func]bool
	queue   []*types.Func

	// Rapid type analysis: the interface methods reached code calls, and the
	// types it converts to this program's interfaces.
	calls    []*types.Func
	called   map[*types.Func]bool
	live     []types.Type
	liveSeen map[string]bool
}

func run(pkgs []*analysis.Package, report func(analysis.Diagnostic)) error {
	skip, err := testSupport(pkgs)
	if err != nil {
		return err
	}
	s := &state{pkgs: map[*types.Package]bool{}, decls: map[*types.Func]decl{},
		reached: map[*types.Func]bool{}, called: map[*types.Func]bool{}, liveSeen: map[string]bool{}}
	var program []*analysis.Package
	for _, p := range pkgs {
		if !skip[p.PkgPath] {
			program = append(program, p)
			s.pkgs[p.Types] = true
		}
	}
	for _, p := range program {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					s.decls[p.Info.Defs[fd.Name].(*types.Func)] = decl{fd, p.Info}
				}
			}
		}
	}
	for _, p := range program {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					if gd := d.(*ast.GenDecl); gd.Tok == token.VAR {
						s.walk(p.Info, gd, nil)
					}
					continue
				}
				for _, name := range []string{"api", "oracle"} {
					if a, ok := analysis.DeclAnnotation(fd, name); ok {
						if a.Reason == "" {
							report(analysis.Diagnostic{Pos: fd.Pos(), Message: "//distbound:" + name + " requires a reason"})
						}
						s.reach(p.Info.Defs[fd.Name].(*types.Func))
					}
				}
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.Types.Name() == "main") {
					s.reach(p.Info.Defs[fd.Name].(*types.Func))
				}
			}
		}
	}

	// Drain the queue, then let each new (interface call, live type) pair
	// reach its method, until neither grows.
	for calls, live := -1, -1; ; {
		for len(s.queue) > 0 {
			d := s.decls[s.queue[len(s.queue)-1]]
			s.queue = s.queue[:len(s.queue)-1]
			if d.fd.Body != nil {
				s.walk(d.info, d.fd.Body, d.info.Defs[d.fd.Name].Type().(*types.Signature))
			}
		}
		if calls == len(s.calls) && live == len(s.live) {
			break
		}
		calls, live = len(s.calls), len(s.live)
		for _, m := range s.calls {
			for _, t := range s.live {
				s.dispatch(m, t)
			}
		}
	}

	for fn, d := range s.decls {
		if s.reached[fn] || fn.Name() == "_" {
			continue
		}
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = types.TypeString(recv.Type(), types.RelativeTo(fn.Pkg())) + "." + name
		}
		report(analysis.Diagnostic{Pos: d.fd.Name.Pos(), Message: name + " is unreachable from every " +
			"production root (main, init, package var, //distbound:api, //distbound:oracle): " +
			"delete it or annotate it with a reason"})
	}
	return nil
}

// reach marks a function reached and queues its body.
func (s *state) reach(fn *types.Func) {
	if fn = fn.Origin(); !s.reached[fn] {
		s.reached[fn] = true
		if _, ok := s.decls[fn]; ok {
			s.queue = append(s.queue, fn)
		}
	}
}

// walk records the edges of one reached body: the functions its identifiers
// use, the interface methods it calls, and the conversions to interfaces it
// makes. sig is the enclosing function's signature (nil for a package var),
// which return statements convert to.
func (s *state) walk(info *types.Info, body ast.Node, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.walk(info, n.Body, info.TypeOf(n).(*types.Signature))
			return false
		case *ast.Ident:
			// Instantiation hands each type argument to its constraint.
			for i := range info.Instances[n].TypeArgs.Len() {
				s.addLive(info.Instances[n].TypeArgs.At(i))
			}
			fn, ok := info.Uses[n].(*types.Func)
			if !ok {
				break
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
				s.reach(fn)
			} else if fn = fn.Origin(); !s.called[fn] {
				s.called[fn] = true
				s.calls = append(s.calls, fn)
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 {
					s.convert(info.TypeOf(n.Args[0]), tv.Type)
				}
			} else if fsig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature); ok {
				params, last := fsig.Params(), fsig.Params().Len()-1
				for i, arg := range n.Args {
					if fsig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
						s.convert(info.TypeOf(arg), params.At(last).Type().(*types.Slice).Elem())
					} else if i <= last {
						s.convert(info.TypeOf(arg), params.At(i).Type())
					}
				}
			}
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					s.convert(info.TypeOf(n.Rhs[i]), info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if n.Type != nil {
					s.convert(info.TypeOf(v), info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			for i, r := range n.Results {
				if sig != nil && len(n.Results) == sig.Results().Len() {
					s.convert(info.TypeOf(r), sig.Results().At(i).Type())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				s.convert(info.TypeOf(n.Value), ch.Elem())
			}
		case *ast.CompositeLit:
			s.compositeLit(info, n)
		}
		return true
	})
}

// compositeLit records the conversions of a composite literal's elements to
// their field, element or key types.
func (s *state) compositeLit(info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit).Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	for i, e := range lit.Elts {
		key, val := ast.Expr(nil), e
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			key, val = kv.Key, kv.Value
		}
		switch u := t.(type) {
		case *types.Struct:
			if id, ok := key.(*ast.Ident); ok && info.Uses[id] != nil {
				s.convert(info.TypeOf(val), info.Uses[id].Type())
			} else if key == nil {
				s.convert(info.TypeOf(val), u.Field(i).Type())
			}
		case interface{ Elem() types.Type }: // slice, array, map
			if m, ok := u.(*types.Map); ok {
				s.convert(info.TypeOf(key), m.Key())
			}
			s.convert(info.TypeOf(val), u.Elem())
		}
	}
}

// convert records a value of type from flowing into a variable of type to.
// Only a concrete type converted to an interface matters: converted to an
// interface this program declares, it joins the live set that interface
// calls dispatch to; converted to any other interface, every exported method
// it has is reached, since the standard library may call any of them.
func (s *state) convert(from, to types.Type) {
	if from == nil || to == nil || !types.IsInterface(to) || types.IsInterface(from) {
		return
	}
	if _, ok := to.(*types.TypeParam); ok {
		return
	}
	if n, ok := types.Unalias(to).(*types.Named); ok && s.pkgs[n.Obj().Pkg()] {
		s.addLive(from)
		return
	}
	ms := types.NewMethodSet(from)
	for i := range ms.Len() {
		if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
			s.reach(fn)
		}
	}
}

// addLive adds a type with methods to the set interface calls dispatch to.
func (s *state) addLive(t types.Type) {
	if key := types.TypeString(t, nil); !s.liveSeen[key] && types.NewMethodSet(t).Len() > 0 {
		s.liveSeen[key] = true
		s.live = append(s.live, t)
	}
}

// dispatch reaches t's implementation of the interface method m, if t
// implements m's interface.
func (s *state) dispatch(m *types.Func, t types.Type) {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok || !types.Implements(t, iface) {
		return
	}
	if sel := types.NewMethodSet(t).Lookup(m.Pkg(), m.Name()); sel != nil {
		s.reach(sel.Obj().(*types.Func))
	}
}

// testSupport returns the packages only _test.go files import: imported by a
// test file, and by no non-test file outside that set.
func testSupport(pkgs []*analysis.Package) (map[string]bool, error) {
	skip := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		tests, _ := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		for _, name := range tests {
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				skip[path] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range pkgs {
			for _, imp := range p.Types.Imports() {
				if !skip[p.PkgPath] && skip[imp.Path()] {
					delete(skip, imp.Path())
					changed = true
				}
			}
		}
	}
	return skip, nil
}
