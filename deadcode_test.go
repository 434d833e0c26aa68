package heteroos

import (
	"bytes"
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadcodeAllow names the production declarations that no CLI or
// perfbench reaches but that stay anyway, one reason each. An entry is
// keyed as TestDeadCode reports it: package path inside the module, then
// the receiver type for a method, then the name. An entry that the roots
// reach without it is stale and fails the gate.
var deadcodeAllow = map[string]string{
	"internal/guestos.OS.LRUOf":         "vmm's scanner-versus-reference test deactivates hot pages to drive reclaim into the lap memo",
	"internal/guestos.OS.Store":         "vmm's per-page reference scanner and heat-index tests read page flags and set write heat page by page",
	"internal/snapshot.Reader.Raw":      "restore fuzzers and checkpoint tests in other packages seed from, and compare, real section bodies",
	"internal/snapshot.Reader.Sections": "checkpoint tests in core and fleet walk every section of a real checkpoint",
}

// TestDeadCode fails on every top-level func, method, type, var or const
// declared outside _test.go files that no root reaches. The roots are
// main and init, everything perfbench (a separate module, tests
// included) refers to, CheckInvariants methods, and the methods of a
// live type whose name an interface in the module, error, fmt.Stringer,
// json.Marshaler or io.Closer declares. `make deadcode` runs it alone.
func TestDeadCode(t *testing.T) {
	dead, err := findDeadCode(".", "perfbench", deadcodeAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s is reached only from tests: delete it, move it to an export_test.go, or allowlist it in deadcode_test.go", d)
	}
}

// TestDeadCodeFixture checks the gate on testdata/deadcode: an exported
// function nothing calls and a helper only it calls are dead; a
// String method and a function only the perfbench-style root calls are
// not. Allowlisting a reachable function is a stale entry.
func TestDeadCodeFixture(t *testing.T) {
	dir := filepath.Join("testdata", "deadcode")
	dead, err := findDeadCode(dir, "bench", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib/lib.go:6: lib.Unused", "lib/lib.go:9: lib.helper"}
	if !slices.Equal(dead, want) {
		t.Fatalf("dead = %q, want %q", dead, want)
	}
	_, err = findDeadCode(dir, "bench", map[string]string{"lib.Measured": "reachable"})
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("allowlisting a reachable function: err = %v, want a stale entry", err)
	}
	_, err = findDeadCode(dir, "bench", map[string]string{"lib.Missing": "no such function"})
	if err == nil || !strings.Contains(err.Error(), "declares nothing") {
		t.Fatalf("allowlisting an undeclared name: err = %v, want an unknown entry", err)
	}
}

// stdInterfaceMethods are the methods of the standard interfaces that
// the module's types satisfy without naming the interface.
var stdInterfaceMethods = []string{"Error", "String", "MarshalJSON", "Close"}

// deadcodeWalk type-checks a module's non-test packages once each, plus
// one root directory whose every reference is a root, and records which
// top-level declarations refer to which.
type deadcodeWalk struct {
	fset    *token.FileSet
	mod     string // module path
	root    string // module directory
	info    *types.Info
	std     types.Importer
	files   map[string][]*ast.File // import path → parsed files
	checked map[string]*types.Package

	decls map[types.Object]string         // declaration → report key
	pos   map[types.Object]token.Position // declaration → position
	edges map[types.Object][]types.Object
	roots []types.Object
	// rootDecls are the main and init functions, whose references are
	// roots once every declaration is known.
	rootDecls []ast.Node
	byKey     map[string]types.Object
	ifaces    map[string]bool // method names some interface declares
}

// findDeadCode returns the declarations of the module at dir that are
// not reachable from its roots, as "file:line: key", sorted. rootDir,
// relative to dir, holds the perfbench-style root files; allow lists
// keys that count as roots, and an unknown or stale entry is an error.
func findDeadCode(dir, rootDir string, allow map[string]string) ([]string, error) {
	w, err := loadDeadcodeWalk(dir, rootDir)
	if err != nil {
		return nil, err
	}
	var allowed []types.Object
	for _, key := range slices.Sorted(maps.Keys(allow)) {
		obj, ok := w.byKey[key]
		if !ok {
			return nil, fmt.Errorf("deadcode allowlist entry %s declares nothing", key)
		}
		allowed = append(allowed, obj)
	}
	for i, obj := range allowed {
		others := slices.Delete(slices.Clone(allowed), i, i+1)
		if w.reach(append(others, w.roots...))[obj] {
			return nil, fmt.Errorf("deadcode allowlist entry %s is stale: the roots reach it without the entry", w.decls[obj])
		}
	}
	live := w.reach(append(allowed, w.roots...))
	var dead []types.Object
	for obj := range w.decls {
		if !live[obj] {
			dead = append(dead, obj)
		}
	}
	slices.SortFunc(dead, func(a, b types.Object) int {
		pa, pb := w.pos[a], w.pos[b]
		return cmp.Or(strings.Compare(pa.Filename, pb.Filename), cmp.Compare(pa.Line, pb.Line))
	})
	out := make([]string, len(dead))
	for i, obj := range dead {
		p := w.pos[obj]
		rel, err := filepath.Rel(w.root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out[i] = fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, w.decls[obj])
	}
	return out, nil
}

// reach returns every declaration reachable from roots.
func (w *deadcodeWalk) reach(roots []types.Object) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	stack := slices.Clone(roots)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[obj] {
			continue
		}
		seen[obj] = true
		stack = append(stack, w.edges[obj]...)
	}
	return seen
}

func loadDeadcodeWalk(dir, rootDir string) (*deadcodeWalk, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	w := &deadcodeWalk{
		fset: token.NewFileSet(),
		mod:  mod,
		root: root,
		info: &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		},
		files:   make(map[string][]*ast.File),
		checked: make(map[string]*types.Package),
		decls:   make(map[types.Object]string),
		pos:     make(map[types.Object]token.Position),
		edges:   make(map[types.Object][]types.Object),
		byKey:   make(map[string]types.Object),
		ifaces:  make(map[string]bool),
	}
	rootAbs := filepath.Join(root, rootDir)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if path == rootAbs || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		files, err := w.parseDir(path, false)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := mod
		if rel != "." {
			ip = mod + "/" + filepath.ToSlash(rel)
		}
		w.files[ip] = files
		return nil
	})
	if err != nil {
		return nil, err
	}
	rootFiles, err := w.parseDir(rootAbs, true)
	if err != nil {
		return nil, err
	}
	if len(rootFiles) == 0 {
		return nil, fmt.Errorf("deadcode: no Go files in root directory %s", rootAbs)
	}
	if w.std, err = w.stdImporter(rootFiles); err != nil {
		return nil, err
	}
	for _, ip := range slices.Sorted(maps.Keys(w.files)) {
		if _, err := w.Import(ip); err != nil {
			return nil, err
		}
	}
	// The root package is checked like the others but contributes no
	// declarations: everything it refers to is a root.
	conf := types.Config{Importer: w}
	if _, err := conf.Check(mod+"/"+rootDir, w.fset, rootFiles, w.info); err != nil {
		return nil, fmt.Errorf("deadcode: type-checking %s: %w", rootDir, err)
	}
	for ip, files := range w.files {
		for _, f := range files {
			w.declare(w.checked[ip], f)
			w.collectInterfaces(f)
		}
	}
	for _, f := range rootFiles {
		w.collectInterfaces(f)
		w.rootDecls = append(w.rootDecls, f)
	}
	for _, n := range w.rootDecls {
		w.roots = append(w.roots, w.refsIn(n)...)
	}
	for ip, files := range w.files {
		for _, f := range files {
			w.link(w.checked[ip], f)
		}
	}
	return w, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// parseDir parses the .go files of dir, _test.go files only when tests
// is set.
func (w *deadcodeWalk) parseDir(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || (!tests && strings.HasSuffix(name, "_test.go")) {
			continue
		}
		f, err := parser.ParseFile(w.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// stdImporter reads the compiler's export data for every import outside
// the module, located with a single `go list -export`.
func (w *deadcodeWalk) stdImporter(rootFiles []*ast.File) (types.Importer, error) {
	paths := make(map[string]bool)
	note := func(f *ast.File) {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != w.mod && !strings.HasPrefix(p, w.mod+"/") {
				paths[p] = true
			}
		}
	}
	for _, files := range w.files {
		for _, f := range files {
			note(f)
		}
	}
	for _, f := range rootFiles {
		note(f)
	}
	export := make(map[string]string)
	if len(paths) > 0 {
		args := append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, slices.Sorted(maps.Keys(paths))...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("deadcode: go list -export: %v\n%s", err, stderr.Bytes())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if p, file, ok := strings.Cut(line, "\t"); ok {
				export[p] = file
			}
		}
	}
	return importer.ForCompiler(w.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("deadcode: no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// Import type-checks a module package from source, once, and hands any
// other path to the export-data importer.
func (w *deadcodeWalk) Import(path string) (*types.Package, error) {
	if pkg, ok := w.checked[path]; ok {
		return pkg, nil
	}
	files, ok := w.files[path]
	if !ok {
		return w.std.Import(path)
	}
	conf := types.Config{Importer: w}
	pkg, err := conf.Check(path, w.fset, files, w.info)
	if err != nil {
		return nil, fmt.Errorf("deadcode: type-checking %s: %w", path, err)
	}
	w.checked[path] = pkg
	return pkg, nil
}

// declare records f's top-level declarations and its roots.
func (w *deadcodeWalk) declare(pkg *types.Package, f *ast.File) {
	short := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), w.mod), "/")
	if short == "" {
		short = pkg.Name()
	}
	add := func(id *ast.Ident, recv string) types.Object {
		obj := w.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		key := short + "." + id.Name
		if recv != "" {
			key = short + "." + recv + "." + id.Name
		}
		w.decls[obj] = key
		w.pos[obj] = w.fset.Position(id.Pos())
		w.byKey[key] = obj
		return obj
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main") {
				w.rootDecls = append(w.rootDecls, d)
				continue
			}
			recv := ""
			if d.Recv != nil {
				recv = recvTypeName(d.Recv.List[0].Type)
			}
			if obj := add(d.Name, recv); obj != nil && recv != "" && d.Name.Name == "CheckInvariants" {
				w.roots = append(w.roots, obj)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, "")
					}
				}
			}
		}
	}
}

func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// collectInterfaces notes the method names of every interface type
// written in f.
func (w *deadcodeWalk) collectInterfaces(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			if iface, ok := w.info.TypeOf(it).(*types.Interface); ok {
				for i := range iface.NumMethods() {
					w.ifaces[iface.Method(i).Name()] = true
				}
			}
		}
		return true
	})
}

// link records, for each top-level declaration of f, the declarations it
// refers to. A method whose name an interface declares is linked from
// its receiver type, so it lives exactly as long as the type does.
func (w *deadcodeWalk) link(pkg *types.Package, f *ast.File) {
	ifaceName := func(name string) bool {
		return w.ifaces[name] || slices.Contains(stdInterfaceMethods, name)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := w.info.Defs[d.Name]
			if _, ok := w.decls[obj]; !ok {
				continue
			}
			w.edges[obj] = append(w.edges[obj], w.refsIn(d)...)
			if d.Recv != nil && ifaceName(d.Name.Name) {
				if tn := pkg.Scope().Lookup(recvTypeName(d.Recv.List[0].Type)); tn != nil {
					w.edges[tn] = append(w.edges[tn], obj)
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					obj := w.info.Defs[s.Name]
					w.edges[obj] = append(w.edges[obj], w.refsIn(s)...)
				case *ast.ValueSpec:
					refs := w.refsIn(s)
					for _, id := range s.Names {
						obj := w.info.Defs[id]
						if obj == nil {
							continue
						}
						w.edges[obj] = append(w.edges[obj], refs...)
						// An iota constant's type is named only on the
						// first line of its block.
						if named, ok := obj.Type().(*types.Named); ok {
							w.edges[obj] = append(w.edges[obj], named.Origin().Obj())
						}
					}
				}
			}
		}
	}
}

// refsIn returns the module declarations that identifiers inside n use.
func (w *deadcodeWalk) refsIn(n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := w.decls[obj]; ok {
			out = append(out, obj)
		}
		return true
	})
	return out
}
