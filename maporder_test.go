package sccsim

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// mapOrderPackages are the packages whose output reaches a manifest, a
// table, a snapshot or a report: the simulator and the commands that
// render its results.
var mapOrderPackages = []string{
	"internal/harness", "internal/obs", "internal/explain", "internal/pipeline",
	"internal/scc", "internal/uopcache", "internal/simpoint", "internal/emu",
	"internal/bpred", "internal/vpred", "internal/cache", "internal/snap",
	"internal/power", "internal/stats", "internal/uop", "internal/isa",
	"internal/asm", "internal/workloads",
	"cmd/sccbench", "cmd/sccsim", "cmd/sccdiff",
}

// orderMark is the comment that declares a range over a map safe: its
// result does not depend on the order Go happens to visit the keys in.
const orderMark = "// order-independent:"

// TestMapRangesAreMarked fails on every range over a map, in the
// non-test files of mapOrderPackages, that carries no
// "// order-independent: <reason>" comment on its line or the line
// above. Go randomizes map iteration order, so an unmarked loop is where
// a result can silently change from run to run: simpoint.Select once
// summed distances in map order and broke near-ties differently between
// runs.
func TestMapRangesAreMarked(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the packages from source; skipped in -short mode")
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for _, dir := range mapOrderPackages {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var files []*ast.File
		marked := map[token.Position]bool{} // file and line of each mark
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					reason, ok := strings.CutPrefix(c.Text, orderMark)
					if ok && strings.TrimSpace(reason) != "" {
						p := fset.Position(c.Slash)
						marked[token.Position{Filename: p.Filename, Line: p.Line}] = true
					}
				}
			}
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check("sccsim/"+dir, fset, files, info); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				p := fset.Position(rs.For)
				line := token.Position{Filename: p.Filename, Line: p.Line}
				above := token.Position{Filename: p.Filename, Line: p.Line - 1}
				if !marked[line] && !marked[above] {
					t.Errorf("%s: range over a map without an %q comment on its line or the line above", p, orderMark+" <reason>")
				}
				return true
			})
		}
	}
}
