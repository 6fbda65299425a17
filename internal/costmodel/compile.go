package costmodel

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// CompiledModel is one (kernel IR × calibrated target) pair compiled
// into a flat estimate program: the IR is walked exactly once — call
// tree, datapath instructions, schedules, offset windows, lane shape —
// and every per-instruction fitted expression is evaluated once per
// distinct operand width into dense per-width cost arrays. What remains
// per variant is closed-form arithmetic over the dv axis scalar:
// EstimateVectorised(dv) runs in O(distinct instruction classes) with a
// single allocation (the returned Estimate), instead of re-walking the
// IR and re-evaluating the fits like the tree-walk oracle.
//
// The compiled program is pinned bit-identical to Model.
// EstimateVectorised for every dv (the differential tests): the same
// saturating Resources arithmetic in the same order, the same integer
// divisions applied last. The tree walk stays as the oracle; the dse
// differential tests reach it through the evaluator's estimate seam.
//
// A CompiledModel is immutable after Compile and safe for concurrent
// use.
type CompiledModel struct {
	mdl *Model
	m   *tir.Module

	// Structural parameters, computed once: they depend on the IR and
	// the lane count baked into it, never on dv.
	kpd   int // includes the +2 ingress/egress registering
	ni    int
	noff  int64
	lanes int
	cfg   tir.Config

	progs []funcProg
}

// funcProg is the flat estimate program of one function: the
// dv-independent terms pre-accumulated, the dv-dependent terms kept as
// coefficients the evaluator combines with the axis scalar. Programs
// are stored in m.Funcs order so the saturating accumulation happens
// in exactly the oracle's order.
type funcProg struct {
	n          int  // hardware instance count from the call tree
	structural bool // par/seq node: cost is dv-independent

	// base is the one-way datapath cost: per-instruction fitted
	// expressions plus schedule-derived balancing registers. The
	// evaluator scales it by dv (structural funcs use it verbatim).
	base device.Resources

	// Stream controllers: base cost per half-controller unit, already
	// multiplied by the port count. The evaluator books
	// ctrl·(2+(dv-1))/2 with the integer division last, exactly as the
	// oracle writes it.
	ctrlALUTs, ctrlRegs int

	// Offset windows: total bits booked in registers (small windows)
	// and block RAM (large windows), plus the per-way tap-mux cost of
	// the BRAM windows, already multiplied by the window count.
	winRegs, winBRAM        int
	winMuxALUTs, winMuxRegs int
}

// instrClass identifies one distinct cost class of datapath
// instructions: instructions of the same class evaluate to the same
// per-instruction cost, so the compiler prices each class once and
// multiplies by its population.
type instrClass struct {
	kind  uint8 // one of kCmp..kConstShift
	op    tir.Opcode
	width int
	// csd is the canonical-signed-digit count of a constant-multiply
	// class: the cost of an immediate multiply depends on the constant
	// only through it.
	csd int
}

const (
	kCmp uint8 = iota
	kSel
	kUn
	kBin
	kConstMul
	kConstShift
)

// opCostTable caches evaluated per-opcode fitted expressions in dense
// per-width arrays, so each (opcode, width) pair is priced through the
// Expr families exactly once per compilation.
type opCostTable struct {
	mdl   *Model
	costs map[tir.Opcode][]device.Resources
	have  map[tir.Opcode][]bool
}

func newOpCostTable(mdl *Model) *opCostTable {
	return &opCostTable{
		mdl:   mdl,
		costs: map[tir.Opcode][]device.Resources{},
		have:  map[tir.Opcode][]bool{},
	}
}

// cost returns the fitted cost of op at width w, evaluating it on
// first use and answering repeats from the dense array.
func (t *opCostTable) cost(op tir.Opcode, w int) device.Resources {
	cs, hs := t.costs[op], t.have[op]
	if w >= len(cs) {
		grown := make([]device.Resources, w+1)
		copy(grown, cs)
		cs = grown
		grownH := make([]bool, w+1)
		copy(grownH, hs)
		hs = grownH
		t.costs[op], t.have[op] = cs, hs
	}
	if !hs[w] {
		if oc, ok := t.mdl.Ops[op]; ok {
			cs[w] = oc.Resources(w)
		}
		hs[w] = true
	}
	return cs[w]
}

// classCost prices one instruction class through the dense tables.
// Classes with closed-form costs (compares, selects, strength-reduced
// constants) are computed directly — they are already O(1).
func (t *opCostTable) classCost(c instrClass) device.Resources {
	switch c.kind {
	case kCmp:
		return device.Resources{ALUTs: (c.width+1)/2 + 1, Regs: 1}
	case kSel:
		return device.Resources{ALUTs: c.width, Regs: c.width}
	case kConstMul:
		aluts := 0
		if c.csd > 1 {
			aluts = (c.csd - 1) * c.width
		}
		return device.Resources{ALUTs: aluts, Regs: 2 * c.width}
	case kConstShift:
		return device.Resources{Regs: c.width}
	case kUn, kBin:
		return t.cost(c.op, c.width)
	}
	return device.Resources{}
}

// classify maps one datapath instruction to its cost class, mirroring
// Model.InstrCost's dispatch exactly. ok=false marks the zero-cost
// instructions (constants, offsets) the compiler skips.
func classify(in tir.Instr) (instrClass, bool) {
	switch it := in.(type) {
	case *tir.ConstInstr, *tir.OffsetInstr:
		return instrClass{}, false
	case *tir.CmpInstr:
		return instrClass{kind: kCmp, width: it.Ty.Bits}, true
	case *tir.SelectInstr:
		return instrClass{kind: kSel, width: it.Ty.Bits}, true
	case *tir.UnInstr:
		return instrClass{kind: kUn, op: it.Op, width: it.Ty.Bits}, true
	case *tir.BinInstr:
		if k, isConst := binConstOperand(it); isConst {
			switch it.Op {
			case tir.OpMul:
				return instrClass{kind: kConstMul, width: it.Ty.Bits, csd: CSDDigits(k)}, true
			case tir.OpShl, tir.OpLshr, tir.OpAshr:
				return instrClass{kind: kConstShift, width: it.Ty.Bits}, true
			}
		}
		return instrClass{kind: kBin, op: it.Op, width: it.Ty.Bits}, true
	}
	return instrClass{}, false
}

// Compile lowers the module against the calibrated model into a flat
// estimate program: validation, classification, the call-tree instance
// counts, every function's datapath walk and schedule, and the lane
// shape all happen here, once. The result answers EstimateVectorised
// for any dv without touching the IR again.
func (mdl *Model) Compile(m *tir.Module) (*CompiledModel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cfg, err := m.Classify()
	if err != nil {
		return nil, err
	}

	// Hardware instance counts implied by the call tree — the oracle's
	// walk, verbatim.
	instances := map[string]int{}
	var count func(fn *tir.Function, n int) error
	count = func(fn *tir.Function, n int) error {
		instances[fn.Name] += n
		for _, c := range fn.Calls() {
			callee := m.Func(c.Callee)
			if callee == nil {
				return fmt.Errorf("costmodel: unknown callee @%s", c.Callee)
			}
			if err := count(callee, n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := count(m.Main(), 1); err != nil {
		return nil, err
	}

	cm := &CompiledModel{
		mdl:   mdl,
		m:     m,
		lanes: m.Lanes(),
		cfg:   cfg,
	}
	table := newOpCostTable(mdl)
	for _, f := range m.Funcs {
		n := instances[f.Name]
		if n == 0 {
			continue
		}
		p := funcProg{n: n}
		switch f.Mode {
		case tir.ModePipe, tir.ModeComb:
			if err := compileDatapath(mdl, m, f, table, &p); err != nil {
				return nil, err
			}
		case tir.ModePar, tir.ModeSeq:
			calls := len(f.Calls())
			p.structural = true
			p.base = device.Resources{
				ALUTs: mdl.ParNodeALUTs + mdl.ParCallALUTs*calls,
				Regs:  mdl.ParNodeRegs + mdl.ParCallRegs*calls,
			}
		}
		cm.progs = append(cm.progs, p)
	}

	tree, err := m.ConfigTree()
	if err != nil {
		return nil, err
	}
	kpd, ni, noff, err := laneShape(m, tree)
	if err != nil {
		return nil, err
	}
	cm.kpd = kpd + 2 // ingress/egress stream-control registering
	cm.ni = ni
	cm.noff = noff
	return cm, nil
}

// compileDatapath lowers one pipe/comb function: instruction classes
// priced through the dense tables and multiplied by their populations,
// balancing delay lines, and the controller/window coefficients the
// evaluator combines with dv.
func compileDatapath(mdl *Model, m *tir.Module, f *tir.Function, table *opCostTable, p *funcProg) error {
	// Per-instruction fitted expressions, priced once per distinct
	// class. The class contributions are non-negative, so the
	// class-grouped saturating sum is bit-identical to the oracle's
	// per-instruction chained Add in any order.
	counts := map[instrClass]int{}
	for _, in := range f.DatapathInstrs() {
		if c, ok := classify(in); ok {
			counts[c]++
		}
	}
	r := device.Resources{}
	for c, n := range counts {
		r = r.Add(table.classCost(c).Scale(n))
	}

	sch, err := schedule.ASAPIn(m, f)
	if err != nil {
		return err
	}
	for _, d := range sch.Delays {
		if d.Cycles >= 4 {
			r.ALUTs += d.Bits * (d.Cycles + 1) / 2 / 8
			r.Regs += d.Bits
		} else {
			r.Regs += d.Bits * d.Cycles
		}
	}
	p.base = r

	// Stream-controller coefficient: the oracle books
	// StreamCtrl·ports·(2+(dv-1))/2 with the division last; folding the
	// port count into the coefficient keeps the expression identical.
	p.ctrlALUTs = mdl.StreamCtrlALUTs * len(f.Params)
	p.ctrlRegs = mdl.StreamCtrlRegs * len(f.Params)

	// Offset windows: bits are dv-independent, the tap multiplexers of
	// BRAM-resident windows scale per way.
	for _, w := range schedule.OffsetWindows(f) {
		windowBits := w.Window() * int64(w.Bits)
		if windowBits <= 0 {
			continue
		}
		if windowBits <= 256 {
			p.winRegs += int(windowBits)
		} else {
			p.winBRAM += int(windowBits)
			p.winMuxALUTs += mdl.BRAMWindowALUTs
			p.winMuxRegs += mdl.BRAMWindowRegs
		}
	}
	return nil
}

// Module returns the module the program was compiled from.
func (cm *CompiledModel) Module() *tir.Module { return cm.m }

// Target returns the device the program prices against.
func (cm *CompiledModel) Target() *device.Target { return cm.mdl.Target }

// Estimate evaluates the program at dv=1, mirroring Model.Estimate.
func (cm *CompiledModel) Estimate() (*Estimate, error) { return cm.EstimateVectorised(1) }

// EstimateVectorised evaluates the flat program at vectorisation
// degree dv: closed-form arithmetic over the pre-compiled
// coefficients, one allocation (the returned Estimate), no IR access.
// The result is bit-identical to the tree-walk
// Model.EstimateVectorised on the same module.
func (cm *CompiledModel) EstimateVectorised(dv int) (*Estimate, error) {
	if dv < 1 {
		return nil, fmt.Errorf("costmodel: vectorisation degree must be >= 1, got %d", dv)
	}
	total := device.Resources{}
	for i := range cm.progs {
		p := &cm.progs[i]
		var r device.Resources
		if p.structural {
			r = p.base
		} else {
			// The oracle's estimateDatapath, with the walk pre-folded:
			// replicate the datapath dv times, widen the controllers
			// (integer division last), book the window bits and dv-way
			// tap muxes.
			r = p.base.Scale(dv)
			ctrlUnits := 2 + (dv - 1)
			r.ALUTs += p.ctrlALUTs * ctrlUnits / 2
			r.Regs += p.ctrlRegs * ctrlUnits / 2
			r.Regs += p.winRegs
			r.BRAM += p.winBRAM
			r.ALUTs += p.winMuxALUTs * dv
			r.Regs += p.winMuxRegs * dv
		}
		total = total.Add(r.Scale(p.n))
	}
	total.ALUTs += cm.mdl.ShimALUTs
	total.Regs += cm.mdl.ShimRegs

	return &Estimate{
		Module: cm.m,
		Target: cm.mdl.Target,
		Used:   total,
		KPD:    cm.kpd,
		Noff:   cm.noff,
		NI:     cm.ni,
		Lanes:  cm.lanes,
		DV:     dv,
		NTO:    1,
		FmaxHz: cm.mdl.Target.FmaxHz,
		Config: cm.cfg,
	}, nil
}
