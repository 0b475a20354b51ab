package softsec

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reach_test.go builds every shipped binary — the six tools, cmd/perf
// and the four examples — and checks two things against that one build:
// every function declared under internal/ is linked into some binary,
// and each example runs and prints its key lines. A function no binary
// reaches is deleted, moved into the tests that need it, or named in
// testdata/unreached.txt with its reason.

// shipped holds the binaries shippedBinaries builds, once per test
// process, for every test that runs them.
var shipped struct {
	once sync.Once
	dir  string
	err  error
}

// shippedBinaries builds every shipped binary into one directory, each
// named after its package's directory, and returns the directory: the
// six tools and the four examples with one go build, cmd/perf (a module
// of its own) with a second. Inlining is off, so that a function
// reached only through an inlined call still has its own symbol; it
// does not change what a binary does.
func shippedBinaries(t *testing.T) string {
	t.Helper()
	shipped.once.Do(func() {
		if shipped.dir, shipped.err = os.MkdirTemp("", "softsec-bin-"); shipped.err != nil {
			return
		}
		for _, args := range [][]string{
			{"build", "-gcflags=all=-l", "-o", shipped.dir + string(filepath.Separator), "./cmd/...", "./examples/..."},
			{"-C", "cmd/perf", "build", "-gcflags=all=-l", "-o", filepath.Join(shipped.dir, "perf"), "."},
		} {
			if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
				shipped.err = fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
				return
			}
		}
	})
	if shipped.err != nil {
		t.Fatal(shipped.err)
	}
	return shipped.dir
}

// TestMain removes the shipped binaries after the last test.
func TestMain(m *testing.M) {
	code := m.Run()
	if shipped.dir != "" {
		os.RemoveAll(shipped.dir)
	}
	os.Exit(code)
}

// linkedFunctions lists the text symbols of the binaries in dir, each
// with the bracketed type shapes of a generic instantiation stripped, so
// that "buildcache.(*Cache[go.shape.string,...]).Get" reads as
// "buildcache.(*Cache).Get".
func linkedFunctions(t *testing.T, dir string) map[string]bool {
	t.Helper()
	binaries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := map[string]bool{}
	for _, b := range binaries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "  4a1b20 T softsec/internal/mem.(*Memory).Map"; a shape
			// may contain spaces, so the name is the rest of the line.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				syms[stripShapes(f[2])] = true
			}
		}
	}
	return syms
}

// stripShapes removes every bracketed span, nested or not.
func stripShapes(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFunctions lists every function and method declared in a
// non-test file under internal/, keyed by its symbol name relative to
// "softsec/internal/" ("mem.(*Memory).Map", "cpu.CPU.String").
func declaredFunctions(t *testing.T) map[string]string {
	t.Helper()
	decls := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), "internal"+string(filepath.Separator)))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// receiverName renders a receiver type as the linker names it: "T" or
// "(*T)", without type parameters.
func receiverName(e ast.Expr) string {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		ptr, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}

// readUnreached parses testdata/unreached.txt: one function per line,
// its name, then its reason; blank lines and "#" comments are skipped.
func readUnreached(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testdata/unreached.txt:%d: %s has no reason", n+1, name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("testdata/unreached.txt:%d: %s is listed twice", n+1, name)
		}
		allow[name] = reason
	}
	return allow
}

// unreachedProblems compares the declared functions with the linked
// symbols and the allowlist, and returns one line per problem: a
// function no binary reaches that the list does not name, and a listed
// name that is reached or no longer declared.
func unreachedProblems(decls map[string]string, linked map[string]bool, allow map[string]string) []string {
	var problems []string
	for name, pos := range decls {
		reached := linked["softsec/internal/"+name]
		_, listed := allow[name]
		switch {
		case !reached && !listed:
			problems = append(problems, fmt.Sprintf("%s: %s is in no binary: delete it, move it into a _test.go file, or list it in testdata/unreached.txt with a reason", pos, name))
		case reached && listed:
			problems = append(problems, fmt.Sprintf("testdata/unreached.txt: %s is reached; remove its line", name))
		}
	}
	for name := range allow {
		if _, ok := decls[name]; !ok {
			problems = append(problems, fmt.Sprintf("testdata/unreached.txt: %s is not declared under internal/; remove its line", name))
		}
	}
	sort.Strings(problems)
	return problems
}

func TestShippedBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := shippedBinaries(t)
	t.Run("every internal function is reached", func(t *testing.T) {
		for _, p := range unreachedProblems(declaredFunctions(t), linkedFunctions(t, bin), readUnreached(t)) {
			t.Error(p)
		}
	})
	// Each example must print its lines, in order.
	for _, ex := range []struct {
		name  string
		lines []string
	}{
		{"attestation", []string{"genuine module attests: true", "tampered module attests: false"}},
		{"pinvault", []string{"pma violation"}},
		{"quickstart", []string{"SHELL!", "fail-fast"}},
		{"ropgallery", []string{"COMPROMISED"}},
	} {
		t.Run("example "+ex.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, ex.name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", ex.name, err, out)
			}
			rest := string(out)
			for _, l := range ex.lines {
				i := strings.Index(rest, l)
				if i < 0 {
					t.Fatalf("%s did not print %q in order:\n%s", ex.name, l, out)
				}
				rest = rest[i+len(l):]
			}
		})
	}
}
