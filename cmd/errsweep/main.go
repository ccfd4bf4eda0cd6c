// Command errsweep is the repo's in-tree errcheck: it flags I/O method
// calls whose error result is silently discarded on durability-relevant
// paths. The container has no third-party linters, so this stdlib-only
// AST sweep is wired into `make lint` and CI instead.
//
// A discarded error is allowed ONLY when the call (or the line above
// it) carries a comment containing "errcheck:ok <reason>" — the reason
// is mandatory, so every swallowed error documents why it is provably
// benign (close-after-fsync, advisory pruning, abandoned fds, ...).
//
// Usage:
//
//	errsweep [dir ...]   # default: internal/iox internal/store internal/serve cmd/fdserve
//
// Exits 1 listing file:line for every unannotated discard. Test files
// are skipped: tests discard errors on purpose while arranging fixtures.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// watched is the set of method names whose error result guards
// durability: discarding one silently can lose acknowledged data.
var watched = map[string]bool{
	"Close": true, "Sync": true, "SyncDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Truncate": true, "Write": true, "WriteString": true,
	"WriteAt": true, "Seek": true, "Flush": true, "MkdirAll": true,
}

const marker = "errcheck:ok "

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"internal/iox", "internal/store", "internal/serve", "cmd/fdserve"}
	}
	var findings []string
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "errsweep: %v\n", err)
			os.Exit(2)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			findings = append(findings, sweepFile(filepath.Join(dir, name))...)
		}
	}
	if len(findings) > 0 {
		sort.Strings(findings)
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Fprintf(os.Stderr, "errsweep: %d discarded I/O error(s) without an errcheck:ok reason\n", len(findings))
		os.Exit(1)
	}
}

// sweepFile returns one "file:line: message" per unannotated discard.
func sweepFile(path string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", path, err)}
	}
	// Every line covered by a comment containing the marker blesses
	// itself and the line below (annotation-above style).
	blessed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				line := fset.Position(c.Pos()).Line
				blessed[line] = true
				blessed[line+1] = true
			}
		}
	}
	var findings []string
	flag := func(call *ast.CallExpr) {
		name, ok := callName(call)
		if !ok || !watched[name] {
			return
		}
		pos := fset.Position(call.Pos())
		if blessed[pos.Line] {
			return
		}
		findings = append(findings,
			fmt.Sprintf("%s:%d: result of %s() discarded without an %q reason", path, pos.Line, name, strings.TrimSpace(marker)))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				flag(call)
			}
		case *ast.DeferStmt:
			flag(stmt.Call)
		case *ast.GoStmt:
			flag(stmt.Call)
		}
		return true
	})
	return findings
}

// callName extracts the called method's bare name (x.Close → Close);
// plain function calls and indirect calls are not watched.
func callName(call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name, true
	}
	return "", false
}
