package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported names under internal/ that no non-test
// code uses, each with the reason it stays. Anything else with no caller
// is API that only its own tests hold up, and goes with them.
var testOnlyExports = map[string]string{
	// Test fakes and fault injection.
	"clock.NewTick":     "test fake: a clock that advances one fixed tick per read",
	"clock.Sim.Advance": "test fake: moves the simulated clock",
	"chaos.Wrap":        "fault injection: cuts, corrupts or delays one connection",

	// Test oracles.
	"grid.Reference":           "oracle: the whole grid in one process, which the multi-process runs must match bit for bit",
	"pipeline.Workload.Engine": "oracle access: tests reach a suite row's engine through it",
	"autograd.Transpose":       "oracle: the composed attention graph the one-node Attention is checked against bit for bit",
	"autograd.SliceRows":       "oracle: the composed attention graph the one-node Attention is checked against bit for bit",
	"autograd.ConcatRows":      "oracle: the composed attention graph the one-node Attention is checked against bit for bit",
	"tensor.Transpose2D":       "oracle: the reference the transposed GEMM forms are checked against",
	"tensor.Equal":             "oracle: elementwise comparison within a tolerance",

	// Test-support packages.
	"leakcheck.Check":   "test-support package: the goroutine-leak teardowns",
	"leakcheck.Count":   "test-support package: the goroutine-leak teardowns",
	"benchwarm.Parking": "test-support package: fills the runtime's parking lists before a step benchmark counts",
	"analysis.LoadTree": "test-support: loads the analyzers' golden packages",

	// Primitives many tests build their inputs with.
	"autograd.Sum":        "primitive: the scalar loss of every gradient check",
	"autograd.Tape.Leaf":  "primitive: the differentiable leaves of every gradient check",
	"tensor.Full":         "primitive: constant test inputs",
	"tensor.MatMul":       "primitive: products the GEMM and autograd tests check against",
	"tensor.MatMulTransA": "primitive: products the GEMM and autograd tests check against",
	"tensor.MatMulTransB": "primitive: products the GEMM and autograd tests check against",
	"tensor.Tensor.Clone": "primitive: copies of test inputs",
	"tensor.Tensor.Copy":  "primitive: copies of test inputs",

	// Recorded numbers.
	"tensor.MatMulRows":  "recorded number: the naive row of BENCH_gemm.json",
	"autograd.Tape.Len":  "recorded number: the node count bench_step_test reports",
	"arena.PoolOf.Stats": "recorded number: the arena traffic the obs registry is to fold in",

	// Paper reproductions in the root benchmarks.
	"core.Spread":                          "§3.2.2: the run-to-run spread of the timing samples",
	"cluster.WorkloadModel.EpochsToTarget": "§2.2.2: epochs to target against global batch",

	// The paper's enumerations: the MLLOG key set, the divisions and the
	// system categories.
	"mlog.KeySubmission":  "MLLOG key set",
	"mlog.KeyCache":       "MLLOG key set",
	"mlog.KeyHyperparam":  "MLLOG key set",
	"core.Open":           "§4.2.1 division set",
	"submission.Research": "§4.2.2 system category set",
}

// TestEveryExportHasACaller type-checks the module's non-test code (cmd/,
// examples/ and bench/ count as callers) and requires a use of every
// exported package-level func, method, type, const and var declared under
// internal/. A method counts as used when its receiver type implements an
// interface that declares it: one of the module's, error, the errors
// package's Unwrap protocol or fmt.Stringer. An allowlist entry whose name
// is used, or gone, fails too.
func TestEveryExportHasACaller(t *testing.T) {
	pkgs, err := LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[types.Object]bool)
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(0, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(0, nil, "", errType)), false))
	ifaces := map[*types.Interface]bool{
		errType.Underlying().(*types.Interface):                       true,
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(): true,
	}
	instances := make(map[*types.Named][]*types.Named)
	var decls []types.Object
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses { // selectors' Sel identifiers included
			used[origin(obj)] = true
		}
		for _, inst := range p.Info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				instances[n.Origin()] = append(instances[n.Origin()], n)
			}
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces[it] = true
			}
		}
		for _, imp := range p.Types.Imports() {
			if imp.Path() == "fmt" {
				ifaces[imp.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)] = true
			}
		}
		if !strings.Contains(p.Path+"/", "/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			decls = append(decls, obj)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							decls = append(decls, m)
						}
					}
				}
			}
		}
	}

	var unused []string
	for _, obj := range decls {
		if used[obj] || satisfies(obj, ifaces, instances) {
			continue
		}
		unused = append(unused, exportName(obj))
	}
	sort.Strings(unused)
	orphan := make(map[string]bool, len(unused))
	for _, name := range unused {
		orphan[name] = true
		if _, ok := testOnlyExports[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or list it in testOnlyExports with the reason it stays", name)
		}
	}
	for name := range testOnlyExports {
		if !orphan[name] {
			t.Errorf("testOnlyExports lists %s, which is used outside tests or gone: drop the entry", name)
		}
	}
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// satisfies reports whether obj is a method its receiver type, or an
// instantiation of it, needs to implement one of ifaces.
func satisfies(obj types.Object, ifaces map[*types.Interface]bool, instances map[*types.Named][]*types.Named) bool {
	m, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := m.Signature().Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type()).Origin()
	cands := []*types.Named{named}
	if named.TypeParams().Len() > 0 {
		cands = instances[named]
	}
	for it := range ifaces {
		if !declares(it, m.Name()) {
			continue
		}
		for _, t := range cands {
			if types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// declares reports whether it has a method called name.
func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// receiverNamed strips the pointer off a method's receiver type.
func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// exportName renders obj as pkg.Name, or pkg.Type.Method for a method.
func exportName(obj types.Object) string {
	name := obj.Name()
	if m, ok := obj.(*types.Func); ok && m.Signature().Recv() != nil {
		name = receiverNamed(m.Signature().Recv().Type()).Obj().Name() + "." + name
	}
	return obj.Pkg().Name() + "." + name
}
