package tir

// Index is an immutable name index over one module's declarations. The
// Module.MemObject/Stream/Port/Func helpers scan their slice on every
// call, so a pass that resolves each port of an N-lane variant through
// them costs O(N²); a pass that builds one Index up front resolves
// the same names in O(N) total.
//
// Lookups agree with the Module helpers: the first declaration of a
// name wins, and a missing name returns nil. The index is a snapshot:
// declarations added to the module after Index returns are not seen,
// so build it after the module is complete. It is safe for concurrent
// use.
//
// The index is deliberately not cached on *Module: modules are
// compared with reflect.DeepEqual across evaluation paths and are
// mutated while a Builder constructs them, so each consumer builds its
// own index once per pass (or once per compiled artefact) instead.
type Index struct {
	mems    map[string]*MemObject
	streams map[string]*StreamObject
	ports   map[string]*Port
	funcs   map[string]*Function
}

// Index builds the name index of the module's current declarations.
func (m *Module) Index() *Index {
	ix := &Index{
		mems:    make(map[string]*MemObject, len(m.MemObjects)),
		streams: make(map[string]*StreamObject, len(m.Streams)),
		ports:   make(map[string]*Port, len(m.Ports)),
		funcs:   make(map[string]*Function, len(m.Funcs)),
	}
	for _, mo := range m.MemObjects {
		if _, dup := ix.mems[mo.Name]; !dup {
			ix.mems[mo.Name] = mo
		}
	}
	for _, so := range m.Streams {
		if _, dup := ix.streams[so.Name]; !dup {
			ix.streams[so.Name] = so
		}
	}
	for _, p := range m.Ports {
		if _, dup := ix.ports[p.Name]; !dup {
			ix.ports[p.Name] = p
		}
	}
	for _, f := range m.Funcs {
		if _, dup := ix.funcs[f.Name]; !dup {
			ix.funcs[f.Name] = f
		}
	}
	return ix
}

// MemObject returns the first memory object with the given name, or nil.
func (ix *Index) MemObject(name string) *MemObject { return ix.mems[name] }

// Stream returns the first stream object with the given name, or nil.
func (ix *Index) Stream(name string) *StreamObject { return ix.streams[name] }

// Port returns the first port with the given qualified name, or nil.
func (ix *Index) Port(name string) *Port { return ix.ports[name] }

// Func returns the first function with the given name, or nil.
func (ix *Index) Func(name string) *Function { return ix.funcs[name] }
