// Package anonymity implements the anonlint/anonymity analyzer.
//
// The defining constraint of the fully-anonymous model (PAPER.md §2;
// Raynal–Taubenfeld) is that all processors run the *same* code: a
// machine has no identifier, no notion of "which processor am I", and
// can differ from its peers only in its input value and its private
// wiring permutation (which the System applies for it — machines never
// see it). Any machine implementation that receives, stores or branches
// on a processor index is running per-processor code and has silently
// left the model, invalidating every covering and impossibility argument
// built on it.
//
// The analyzer finds types implementing the machine step protocol (a
// method set containing Pending, Advance and Done — the machine.Machine
// shape) and flags, on those types and their constructors:
//
//   - constructor parameters of plain integer type whose name denotes a
//     processor identity (p, pid, proc, procID, rank, me, self, myID, id);
//   - struct fields of plain integer type with such names;
//   - struct fields holding the shared memory or system
//     (anonmem.Memory, machine.System) — machines may interact with
//     shared state only through the ops they offer;
//   - reads of ghost identity fields (machine.StepInfo.Proc/ReadFrom/
//     PrevWriter, anonmem.ReadResult.LastWriter,
//     anonmem.WriteResult.PrevWriter) inside the type's methods;
//   - calls from the type's methods into the canon package — the
//     symmetry-reduction layer is the quotient map over processor and
//     register identity, the one non-analysis package allowed to inspect
//     it, and algorithm code calling into it would observe its own orbit
//     (machines may *implement* canon's Symmetric, Encoder and
//     Relabelable interfaces; they must never *call* the package).
//
// Identity detection is name-based by design: an int parameter named p is
// overwhelmingly a processor index in this codebase, and a false positive
// costs one rename or one justified //lint:ignore line, while a missed
// identity leak costs a silent exit from the model.
package anonymity

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"anonshm/internal/lint/lintutil"
)

const name = "anonymity"

// Analyzer is the anonlint/anonymity analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "enforce the identical-program discipline on machine.Machine implementations\n\n" +
		"Anonymous processors run identical code: a machine must not receive, store or branch " +
		"on a processor index, hold a reference to the shared memory or system, read ghost " +
		"writer-identity fields, or call into the canon symmetry layer. Identity enters only " +
		"through the scheduler and the private wiring permutation, both outside the machine.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	rep := lintutil.NewReporter(pass, name)
	machines := lintutil.MachineTypes(pass.Pkg)
	if len(machines) == 0 {
		return nil, nil
	}
	for obj := range machines {
		checkStructFields(pass, rep, obj)
	}
	lintutil.WalkFiles(pass, func(f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv == nil {
				checkConstructor(pass, rep, fd)
			} else if recvIsMachine(pass, machines, fd) {
				checkMethodBody(pass, rep, fd)
			}
		}
	})
	return nil, nil
}

func isPlainInt(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func checkStructFields(pass *analysis.Pass, rep *lintutil.Reporter, tn *types.TypeName) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if lintutil.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		switch {
		case lintutil.IdentityName.MatchString(f.Name()) && isPlainInt(f.Type()):
			rep.Reportf(f.Pos(),
				"machine %s stores a processor-identity field %q; anonymous processors run identical code and must not know their index (PAPER.md §2)",
				tn.Name(), f.Name())
		case lintutil.NamedFrom(f.Type(), "anonmem", "Memory"):
			rep.Reportf(f.Pos(),
				"machine %s holds a reference to the shared memory; machines touch shared state only through the ops they offer (the System applies the wiring)",
				tn.Name())
		case lintutil.NamedFrom(f.Type(), "machine", "System"):
			rep.Reportf(f.Pos(),
				"machine %s holds a reference to the executing System; machines must not observe scheduling or peer state",
				tn.Name())
		}
	}
}

// checkConstructor flags processor-identity parameters on functions that
// return a machine-shaped type (concrete or interface).
func checkConstructor(pass *analysis.Pass, rep *lintutil.Reporter, fd *ast.FuncDecl) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	returnsMachine := false
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		for {
			p, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = p.Elem()
		}
		if lintutil.MachineShaped(t) {
			returnsMachine = true
			break
		}
	}
	if !returnsMachine {
		return
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if lintutil.IdentityName.MatchString(p.Name()) && isPlainInt(p.Type()) {
			rep.Reportf(p.Pos(),
				"machine constructor %s takes a processor-identity parameter %q; identity may enter a machine only through the scheduler/permutation, never its code (PAPER.md §2)",
				fd.Name.Name, p.Name())
		}
	}
}

// ghost maps (owner type, field) to the package suffix that declares it.
var ghost = map[[2]string]string{
	{"StepInfo", "Proc"}:          "machine",
	{"StepInfo", "ReadFrom"}:      "machine",
	{"StepInfo", "PrevWriter"}:    "machine",
	{"ReadResult", "LastWriter"}:  "anonmem",
	{"WriteResult", "PrevWriter"}: "anonmem",
}

func recvIsMachine(pass *analysis.Pass, machines map[*types.TypeName]bool, fd *ast.FuncDecl) bool {
	if len(fd.Recv.List) != 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && machines[named.Obj()]
}

// checkMethodBody flags ghost writer-identity reads and calls into the
// canon symmetry layer inside the methods of a machine implementation.
func checkMethodBody(pass *analysis.Pass, rep *lintutil.Reporter, fd *ast.FuncDecl) {
	ast.Inspect(fd, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := typeutil.Callee(pass.TypesInfo, call); callee != nil &&
				lintutil.FromPackage(callee, "canon") {
				rep.Reportf(call.Pos(),
					"machine step logic calls into the canon symmetry layer (%s); canonicalization is the observer's quotient map and must stay outside algorithm code (PAPER.md §2)",
					callee.Name())
			}
			return true
		}
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel := pass.TypesInfo.Selections[se]
		if sel == nil || sel.Kind() != types.FieldVal {
			return true
		}
		recv := sel.Recv()
		for {
			p, ok := recv.(*types.Pointer)
			if !ok {
				break
			}
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return true
		}
		pkgBase, found := ghost[[2]string{named.Obj().Name(), se.Sel.Name}]
		if !found || !lintutil.FromPackage(named.Obj(), pkgBase) {
			return true
		}
		rep.Reportf(se.Sel.Pos(),
			"machine step logic reads ghost identity %s.%s; writer and processor identity are invisible to anonymous machines (PAPER.md §2)",
			named.Obj().Name(), se.Sel.Name)
		return true
	})
}
