package tir

import (
	"strings"

	"repro/internal/diag"
)

// Check performs the semantic checks of the TyTra compiler front stage:
// SSA single assignment, def-before-use, type agreement, the Manage-IR /
// Compute-IR linkage (every port backed by a stream object backed by a
// memory object), acyclic call hierarchy, and configuration legality
// (Fig 7: the supported parent/child mode combinations).
//
// Unlike a fail-fast validator it collects every finding, each tagged
// with a stable TIR0xx code and the source position of the offending
// declaration, so a single run of tytravet reports the whole state of a
// design.
func (m *Module) Check() diag.List {
	var l diag.List
	modPos := diag.Pos{File: m.Name}
	if len(m.Funcs) == 0 {
		l.Errorf(CodeNoFunctions, modPos, "module %s has no functions", m.Name)
	} else if m.Main() == nil {
		l.Errorf(CodeNoMain, modPos, "module %s has no @main entry function", m.Name)
	}

	// Manage-IR linkage.
	memNames := make(map[string]bool, len(m.MemObjects))
	for _, mo := range m.MemObjects {
		if memNames[mo.Name] {
			l.Errorf(CodeDupMem, mo.At, "duplicate memory object %%%s", mo.Name)
		}
		memNames[mo.Name] = true
		if mo.Size <= 0 {
			l.Errorf(CodeMemSize, mo.At, "memory object %%%s has non-positive size %d", mo.Name, mo.Size)
		}
		if !mo.Elem.Valid() {
			l.Errorf(CodeBadType, mo.At, "memory object %%%s has invalid element type", mo.Name)
		}
		if mo.Pattern == PatternStrided && mo.Stride <= 0 {
			l.Errorf(CodeBadStride, mo.At, "strided memory object %%%s needs a positive stride", mo.Name)
		}
	}
	strNames := make(map[string]*StreamObject, len(m.Streams))
	for _, so := range m.Streams {
		if _, dup := strNames[so.Name]; dup {
			l.Errorf(CodeDupStream, so.At, "duplicate stream object %%%s", so.Name)
			continue
		}
		strNames[so.Name] = so
		if !memNames[so.Mem] {
			l.Errorf(CodeUnknownMem, so.At, "stream object %%%s references unknown memory object %%%s", so.Name, so.Mem)
		}
	}
	portNames := make(map[string]bool, len(m.Ports))
	for _, p := range m.Ports {
		if portNames[p.Name] {
			l.Errorf(CodeDupPort, p.At, "duplicate port @%s", p.Name)
		}
		portNames[p.Name] = true
		if !p.Elem.Valid() {
			l.Errorf(CodeBadType, p.At, "port @%s has invalid element type", p.Name)
		}
		if so, ok := strNames[p.Stream]; !ok {
			l.Errorf(CodeUnknownStr, p.At, "port @%s references unknown stream object %q", p.Name, p.Stream)
		} else if so.Dir != p.Dir {
			l.Errorf(CodeDirMismatch, p.At, "port @%s direction %s disagrees with stream %%%s direction %s",
				p.Name, p.Dir, so.Name, so.Dir)
		}
		if p.Pattern == PatternStrided && p.Stride <= 0 {
			l.Errorf(CodeBadStride, p.At, "strided port @%s needs a positive stride", p.Name)
		}
	}

	// Function-level checks. First definition wins on duplicates so that
	// body checks still run against a consistent table.
	fnNames := make(map[string]*Function, len(m.Funcs))
	linkOK := m.Main() != nil
	for _, f := range m.Funcs {
		if _, dup := fnNames[f.Name]; dup {
			l.Errorf(CodeDupFunc, f.At, "duplicate function @%s", f.Name)
			linkOK = false
			continue
		}
		fnNames[f.Name] = f
	}
	for _, f := range m.Funcs {
		m.checkBody(f, fnNames, &l)
		for _, c := range f.Calls() {
			if _, ok := fnNames[c.Callee]; !ok {
				linkOK = false
			}
		}
	}

	// Acyclic call hierarchy reachable from main. Unknown callees were
	// already reported per call site; visit just skips them.
	recursive := false
	if m.Main() != nil {
		state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
		var visit func(name string, chain []string)
		visit = func(name string, chain []string) {
			switch state[name] {
			case 1:
				recursive = true
				l.Errorf(CodeRecursion, fnNames[name].At,
					"recursive call cycle: %s -> %s", strings.Join(chain, " -> "), name)
				return
			case 2:
				return
			}
			state[name] = 1
			for _, c := range fnNames[name].Calls() {
				if _, ok := fnNames[c.Callee]; ok {
					visit(c.Callee, append(chain, name))
				}
			}
			state[name] = 2
		}
		visit("main", nil)
	}

	// Configuration legality per Fig 7. The tree builder recurses
	// through resolved callees, so it only runs on sound linkage.
	if linkOK && !recursive {
		if _, err := m.ConfigTree(); err != nil {
			l.Add(diag.AsList(err, CodeParStructure)...)
		}
	}
	l.Sort()
	return l
}

// Validate reports the first-error view of Check, preserving the plain
// error API: nil when the module is legal (warnings do not count).
func (m *Module) Validate() error {
	return m.Check().ErrOrNil()
}

// checkBody checks SSA discipline and operand visibility inside one
// function. Visible names are the function parameters and prior
// definitions; global accumulators (@x) are visible everywhere and may
// be read and re-accumulated but not used as plain locals.
func (m *Module) checkBody(f *Function, fns map[string]*Function, l *diag.List) {
	defined := map[string]Type{}
	paramTypes := map[string]Type{}
	outBound := map[string]bool{}
	for _, p := range f.Params {
		paramTypes[p.Name] = p.Ty
		if !p.Ty.Valid() {
			l.Errorf(CodeBadType, p.At, "@%s: parameter %%%s has invalid type", f.Name, p.Name)
		}
		if _, dup := defined[p.Name]; dup {
			l.Errorf(CodeDupParam, p.At, "@%s: duplicate parameter %%%s", f.Name, p.Name)
		}
		defined[p.Name] = p.Ty
	}
	define := func(at diag.Pos, name string, ty Type) {
		if name == "" {
			return
		}
		if _, dup := defined[name]; dup {
			l.Errorf(CodeSSA, at, "@%s: SSA violation: %%%s assigned twice", f.Name, name)
			return
		}
		defined[name] = ty
	}
	checkUse := func(at diag.Pos, o Operand) {
		switch o.Kind {
		case OpReg:
			if _, ok := defined[o.Name]; !ok {
				l.Errorf(CodeUndefined, at, "@%s: use of undefined value %%%s", f.Name, o.Name)
			}
		case OpGlobal, OpImm:
			// Globals are module-level accumulators, always visible.
		}
	}

	hasDatapath := false
	for _, in := range f.Body {
		at := in.Pos()
		if _, isCall := in.(*CallInstr); !isCall {
			for _, u := range in.Uses() {
				checkUse(at, u)
			}
		}
		switch it := in.(type) {
		case *CallInstr:
			callee, ok := fns[it.Callee]
			if !ok {
				l.Errorf(CodeUnknownCallee, at, "@%s calls unknown function @%s", f.Name, it.Callee)
				continue
			}
			if len(it.Args) != len(callee.Params) {
				l.Errorf(CodeArity, at, "@%s: call @%s with %d args, want %d",
					f.Name, it.Callee, len(it.Args), len(callee.Params))
				continue
			}
			if it.Mode != callee.Mode {
				l.Errorf(CodeCallMode, at, "@%s: call @%s with mode %s, function is %s",
					f.Name, it.Callee, it.Mode, callee.Mode)
			}
			// A comb child is a custom combinatorial block inlined in the
			// parent datapath (Fig 7 configuration 1, Fig 8): arguments
			// that the child binds with `out` are wires the call DEFINES
			// in the parent; the rest are read. All other call modes wire
			// top-level ports (globals), which are always visible.
			if it.Mode == ModeComb {
				outs := callee.OutParams()
				for k, a := range it.Args {
					if a.Kind != OpReg {
						if a.Kind == OpImm && outs[callee.Params[k].Name] {
							l.Errorf(CodeCombDrivesImm, at, "@%s: call @%s drives an immediate operand", f.Name, it.Callee)
						}
						continue
					}
					if outs[callee.Params[k].Name] {
						define(at, a.Name, callee.Params[k].Ty)
					} else {
						checkUse(at, a)
					}
				}
			}
		case *OffsetInstr:
			hasDatapath = true
			if it.Src.Kind == OpImm {
				l.Errorf(CodeBadOffset, at, "@%s: offset source must be a stream value", f.Name)
			}
			if it.Offset == 0 {
				l.Errorf(CodeBadOffset, at, "@%s: offset of 0 is meaningless for %%%s", f.Name, it.Dst)
			}
			define(at, it.Dst, it.Ty)
		case *ConstInstr:
			hasDatapath = true
			define(at, it.Dst, it.Ty)
		case *BinInstr:
			hasDatapath = true
			info := it.Op.Info()
			if info.Float != it.Ty.IsFloat() {
				l.Errorf(CodeOpcodeType, at, "@%s: opcode %s applied to type %s", f.Name, it.Op, it.Ty)
			}
			if it.GlobalDst {
				// Reduction idiom: destination accumulator must also be
				// read by the instruction.
				reads := false
				for _, u := range it.Uses() {
					if u.Kind == OpGlobal && u.Name == it.Dst {
						reads = true
					}
				}
				if !reads {
					l.Errorf(CodeAccNoRead, at, "@%s: global @%s written without accumulation", f.Name, it.Dst)
				}
			} else {
				define(at, it.Dst, it.Ty)
			}
		case *UnInstr:
			hasDatapath = true
			info := it.Op.Info()
			if info.Float != it.Ty.IsFloat() {
				l.Errorf(CodeOpcodeType, at, "@%s: opcode %s applied to type %s", f.Name, it.Op, it.Ty)
			}
			define(at, it.Dst, it.Ty)
		case *CmpInstr:
			hasDatapath = true
			define(at, it.Dst, UIntT(1))
		case *SelectInstr:
			hasDatapath = true
			define(at, it.Dst, it.Ty)
		case *OutInstr:
			hasDatapath = true
			pty, ok := paramTypes[it.Port]
			if !ok {
				l.Errorf(CodeBadOut, at, "@%s: out to %%%s which is not a parameter", f.Name, it.Port)
				continue
			}
			if pty != it.Ty {
				l.Errorf(CodeBadOut, at, "@%s: out to %%%s with type %s, parameter is %s",
					f.Name, it.Port, it.Ty, pty)
			}
			if outBound[it.Port] {
				l.Errorf(CodeBadOut, at, "@%s: output port %%%s bound twice", f.Name, it.Port)
			}
			outBound[it.Port] = true
		default:
			l.Errorf(CodeUnknownInstr, at, "@%s: unknown instruction %T", f.Name, in)
		}
	}

	// Mode-specific structural rules (Fig 7 configurations).
	switch f.Mode {
	case ModePar:
		if hasDatapath {
			l.Errorf(CodeParStructure, f.At, "@%s: par functions may only contain calls", f.Name)
		}
		for _, c := range f.Calls() {
			if c.Mode != ModePipe {
				l.Errorf(CodeParStructure, c.Pos(), "@%s: par functions replicate pipe children, found %s", f.Name, c.Mode)
			}
		}
	case ModeComb:
		for _, c := range f.Calls() {
			l.Errorf(CodeCombStructure, c.Pos(), "@%s: comb functions must be pure datapath (no calls)", f.Name)
			break
		}
	}
}

// ConfigNode is one node of the configuration tree the compiler extracts
// from the IR (Fig 8): the architecture implied by the function
// hierarchy and call modes.
type ConfigNode struct {
	Func     *Function
	Mode     ParMode
	Children []*ConfigNode
	// Lanes is the replication factor this node contributes: for a par
	// node, the number of pipe children.
	Lanes int
}

// Config classifies whole-design configurations following Fig 7.
type Config int

const (
	// ConfigPipe is configuration 1: a single pipeline, possibly with
	// comb sub-blocks.
	ConfigPipe Config = iota + 1
	// ConfigParPipes is configuration 2: data-parallel pipeline lanes.
	ConfigParPipes
	// ConfigCoarsePipe is configuration 3: a coarse-grained pipeline of
	// peer pipe kernels.
	ConfigCoarsePipe
	// ConfigParCoarse is configuration 4: data-parallel coarse-grained
	// pipelines.
	ConfigParCoarse
	// ConfigSeq is a host-sequenced composition of the above.
	ConfigSeq
)

// String names the configuration as in Fig 7.
func (c Config) String() string {
	switch c {
	case ConfigPipe:
		return "C1:pipeline"
	case ConfigParPipes:
		return "C2:data-parallel-pipelines"
	case ConfigCoarsePipe:
		return "C3:coarse-grained-pipeline"
	case ConfigParCoarse:
		return "C4:data-parallel-coarse-pipelines"
	case ConfigSeq:
		return "C0:sequenced"
	}
	return "C?:unknown"
}

// ConfigTree builds the configuration tree rooted at @main and verifies
// that the composition is one the compiler supports. Callers must have
// checked linkage (callees resolve, no recursion) first; Check does.
func (m *Module) ConfigTree() (*ConfigNode, error) {
	fns := make(map[string]*Function, len(m.Funcs))
	for _, f := range m.Funcs {
		fns[f.Name] = f
	}
	var build func(f *Function) (*ConfigNode, error)
	build = func(f *Function) (*ConfigNode, error) {
		n := &ConfigNode{Func: f, Mode: f.Mode, Lanes: 1}
		calls := f.Calls()
		if len(calls) > 0 {
			n.Children = make([]*ConfigNode, 0, len(calls))
		}
		for _, c := range calls {
			child, err := build(fns[c.Callee])
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		}
		if f.Mode == ModePar {
			n.Lanes = len(n.Children)
			if n.Lanes == 0 {
				return nil, diag.New(diag.Error, CodeParStructure, f.At,
					"@%s: par function with no lanes", f.Name)
			}
			first := n.Children[0].Func.Name
			for _, c := range n.Children[1:] {
				if c.Func.Name != first {
					return nil, diag.New(diag.Error, CodeParStructure, f.At,
						"@%s: par lanes must replicate one kernel (found @%s and @%s)",
						f.Name, first, c.Func.Name)
				}
			}
		}
		return n, nil
	}
	return build(m.Main())
}

// Classify names the Fig 7 configuration of the design.
func (m *Module) Classify() (Config, error) {
	tree, err := m.ConfigTree()
	if err != nil {
		return 0, err
	}
	// Skip the main(seq) wrapper: classification concerns the device
	// architecture below it.
	node := tree
	if node.Mode == ModeSeq && len(node.Children) == 1 {
		node = node.Children[0]
	} else if node.Mode == ModeSeq && len(node.Children) > 1 {
		return ConfigSeq, nil
	}
	switch node.Mode {
	case ModePipe:
		for _, c := range node.Children {
			if c.Mode == ModePipe {
				return ConfigCoarsePipe, nil
			}
		}
		return ConfigPipe, nil
	case ModePar:
		for _, lane := range node.Children {
			for _, c := range lane.Children {
				if c.Mode == ModePipe {
					return ConfigParCoarse, nil
				}
			}
		}
		return ConfigParPipes, nil
	case ModeComb:
		return ConfigPipe, nil
	}
	return ConfigSeq, nil
}

// Lanes returns KNL, the number of parallel kernel lanes of the design:
// the product of par replication factors along the hierarchy (1 for a
// single pipeline).
func (m *Module) Lanes() int {
	tree, err := m.ConfigTree()
	if err != nil {
		return 1
	}
	var walk func(n *ConfigNode) int
	walk = func(n *ConfigNode) int {
		if n.Mode == ModePar {
			// All lanes are identical; replication factor times the
			// lanes inside one child.
			return n.Lanes * walk(n.Children[0])
		}
		best := 1
		for _, c := range n.Children {
			if l := walk(c); l > best {
				best = l
			}
		}
		return best
	}
	return walk(tree)
}
