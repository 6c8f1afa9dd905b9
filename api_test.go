package stance_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from the package's exported identifiers")

// TestAPISurface pins the package's exported identifiers, one line
// each with its signature, to testdata/api.golden, so a new export, a
// removed one or a changed signature shows up as a reviewed diff.
// Regenerate the file with go test -run TestAPISurface -update .
func TestAPISurface(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	decl := func(prefix string, node any) {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, prefix+strings.Join(strings.Fields(b.String()), " "))
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decl("", &ast.FuncDecl{Name: d.Name, Type: d.Type})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decl("type ", &ast.TypeSpec{Name: s.Name, Assign: s.Assign, Type: s.Type})
						}
					case *ast.ValueSpec:
						for i, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							line := d.Tok.String() + " " + n.Name
							if i < len(s.Values) {
								var b bytes.Buffer
								if err := printer.Fprint(&b, fset, s.Values[i]); err != nil {
									t.Fatal(err)
								}
								line += " = " + b.String()
							}
							lines = append(lines, line)
						}
					}
				}
			}
		}
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s (review, then rerun with -update):\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
