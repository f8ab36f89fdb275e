package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	goanalysis "golang.org/x/tools/go/analysis"
)

// snapshotScope lists the epoch-scoped consumers: they pin ONE snapshot per
// epoch (ddp: per epoch across all replicas; prep: per Run) and pass the
// pinned Topology down. Serving intentionally re-pins per micro-batch and
// is not in scope.
var snapshotScope = map[string]bool{
	"train": true,
	"ddp":   true,
	"prep":  true,
}

// SnapshotPin enforces the pinning discipline: inside epoch/step loop bodies
// in train/ddp/prep, no View() (or Snapshot()) calls on a graph.Viewer or a
// *graph.Dynamic — a mid-epoch re-pin would observe concurrent graph
// mutations and break the bit-reproducibility oracle (and the zero-alloc
// gather, which relies on the overlay being merged once at pin time).
// Calling View() on an already-pinned *graph.Snapshot or *graph.Partitioned
// is free (it returns itself) and stays legal.
var SnapshotPin = &goanalysis.Analyzer{
	Name: "snapshotpin",
	Doc:  "forbid View()/Snapshot() re-pinning of a graph.Viewer or *graph.Dynamic inside epoch/step loops in train/ddp/prep; pin once and pass the pinned View down",
	Run:  runSnapshotPin,
}

func runSnapshotPin(pass *goanalysis.Pass) (interface{}, error) {
	if !snapshotScope[pkgBase(pass.Pkg.Path())] {
		return nil, nil
	}
	idx := buildAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		// Collect loop-body extents, then flag re-pinning calls inside any.
		var loops []struct{ pos, end token.Pos }
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			}
			if body != nil {
				loops = append(loops, struct{ pos, end token.Pos }{body.Pos(), body.End()})
			}
			return true
		})
		if len(loops) == 0 {
			continue
		}
		inLoop := func(p token.Pos) bool {
			for _, l := range loops {
				if l.pos <= p && p < l.end {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !inLoop(call.Pos()) {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "View" && sel.Sel.Name != "Snapshot") {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			m := s.Obj()
			if m.Pkg() == nil || !strings.HasSuffix(m.Pkg().Path(), graphPkgSuffix) {
				return true
			}
			if recv := namedRecv(s.Recv()); recv != "Viewer" && recv != "Dynamic" {
				return true // a *Snapshot or *Partitioned returns itself: already pinned
			}
			report(pass, idx, call.Pos(),
				sel.Sel.Name+"() inside a loop body re-pins the graph mid-epoch: pin one view before the loop and pass the pinned graph.View down")
			return true
		})
	}
	return nil, nil
}
