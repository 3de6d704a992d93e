package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// UnitsAnalyzer is the interprocedural dimension-flow pass: the whole
// repository does dimensional arithmetic — watts of PV feed, watt-hours
// of battery state, epoch hours, DVFS fractions — and the identifier
// suffix convention (…W/…Watts, …Wh, …Hours/…H, …Frac/…Fraction) only
// protects expressions where both operands still carry their suffix.
// Any assignment to a neutral name, any call boundary, and any struct
// field store launders the unit, one step past where a suffix-only
// check can see.
//
// This analyzer closes that gap with a small dimension lattice
// {W, Wh, h, frac} propagated over the whole program (same fixpoint
// shape as dettaint): dimensions are seeded from identifier suffixes and
// from explicit `// ghlint:units` annotations on params, results, and
// struct fields, then flowed through assignments, short variable
// declarations, call arguments, return values, and field stores across
// package boundaries. Multiplication and division convert in the
// lattice — W × h = Wh, Wh / h = W, Wh / W = h, same-dimension
// quotients are fractions, and fractions and constants scale without
// changing a dimension — so the legal conversion path is never a
// finding.
//
// Annotation grammar (placement mirrors ghlint:allocfree):
//
//	// ghlint:units Wh                      on a struct field
//	// ghlint:units offer=W d=h result=Wh   on a function's doc comment
//
// Function entries name parameters or named results; `result` (or
// `resultN` for multi-result functions) addresses unnamed results.
// Malformed annotations — unknown dimension token, name matching no
// parameter or result, annotation contradicting the name's own suffix —
// are findings, so a typo cannot silently weaken the contract.
//
// Findings:
//
//   - mixing: additive arithmetic or comparisons between two expressions
//     whose *flow-resolved* dimensions are distinct hard dimensions
//     (W, Wh, h). Fractions and constants are dimensionless scalars and
//     never mix additively.
//   - dimension mismatch: a value with a known dimension flowing into a
//     parameter, result, field, or suffixed local declared with a
//     different dimension.
//   - laundering: a neutral (unsuffixed, unannotated) parameter, result,
//     or field whose inflows mix distinct hard dimensions — the point
//     where the program erases a unit — and a neutral local that both
//     accumulates mixed dimensions and crosses a call boundary as an
//     argument. The fix is an annotation or splitting the helper.
//
// Conservative blind spots, shared with the call graph: calls through
// function values and foreign interfaces do not propagate, and a
// conflicted (mixed-inflow) slot evaluates as unknown at its uses so one
// laundering point cannot cascade into findings at every downstream
// expression.
var UnitsAnalyzer = &Analyzer{
	Name: "units",
	Doc: "interprocedural dimension-flow analysis: infer W/Wh/h/frac " +
		"dimensions from identifier suffixes and ghlint:units annotations, " +
		"propagate them through assignments, call arguments, returns, and " +
		"field stores, and flag additive/comparison mixing, cross-boundary " +
		"dimension mismatches, and laundering through neutral names",
	Run: runUnits,
}

// unitsMarker introduces a dimension annotation.
const unitsMarker = "ghlint:units"

// udim is one point of the dimension lattice.
type udim uint8

const (
	udimUnknown udim = iota
	udimW            // power, watts
	udimWh           // energy, watt-hours
	udimH            // time, hours
	udimFrac         // dimensionless ratio (DVFS fraction, SoC, efficiency)
)

// String renders the dimension for diagnostics.
func (d udim) String() string {
	switch d {
	case udimW:
		return "power (W)"
	case udimWh:
		return "energy (Wh)"
	case udimH:
		return "time (h)"
	case udimFrac:
		return "fraction"
	default:
		return "unknown"
	}
}

// dimToken is the annotation spelling of each dimension.
func (d udim) dimToken() string {
	switch d {
	case udimW:
		return "W"
	case udimWh:
		return "Wh"
	case udimH:
		return "h"
	case udimFrac:
		return "frac"
	}
	return ""
}

// parseDimToken resolves an annotation token to a dimension.
func parseDimToken(tok string) (udim, bool) {
	switch tok {
	case "W":
		return udimW, true
	case "Wh":
		return udimWh, true
	case "h":
		return udimH, true
	case "frac":
		return udimFrac, true
	}
	return udimUnknown, false
}

// dimBit maps the hard (mixable) dimensions onto mask bits; frac is
// dimensionless and deliberately carries no bit — fractional inflow can
// never make a slot "mixed".
func dimBit(d udim) uint8 {
	switch d {
	case udimW:
		return 1
	case udimWh:
		return 2
	case udimH:
		return 4
	}
	return 0
}

// maskDims renders a mask's dimensions for laundering diagnostics.
func maskDims(mask uint8) string {
	var parts []string
	for _, d := range []udim{udimW, udimWh, udimH} {
		if mask&dimBit(d) != 0 {
			parts = append(parts, d.String())
		}
	}
	return strings.Join(parts, " and ")
}

// dimOfName infers a dimension from an identifier's unit suffix. The
// suffix must sit at a camel-case boundary (suffixAtBoundary), so bare
// loop variables and words that merely end in the letters do not
// classify.
func dimOfName(name string) udim {
	switch {
	case suffixAtBoundary(name, "Wh"):
		return udimWh
	case suffixAtBoundary(name, "W"), suffixAtBoundary(name, "Watts"):
		return udimW
	case suffixAtBoundary(name, "Hours"), suffixAtBoundary(name, "H"):
		return udimH
	case suffixAtBoundary(name, "Frac"), suffixAtBoundary(name, "Fraction"),
		suffixAtBoundary(name, "Fracs"), suffixAtBoundary(name, "Fractions"):
		return udimFrac
	}
	return udimUnknown
}

// suffixAtBoundary reports whether name ends in suffix with a camel-case
// boundary (a lowercase letter or digit) right before it.
func suffixAtBoundary(name, suffix string) bool {
	if !strings.HasSuffix(name, suffix) || len(name) == len(suffix) {
		return false
	}
	prev := name[len(name)-len(suffix)-1]
	return prev >= 'a' && prev <= 'z' || prev >= '0' && prev <= '9'
}

// mixableOps are the operators across which dimensions must agree.
var mixableOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.LEQ: true,
	token.GTR: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
}

// dval is an expression's evaluated dimension. isConst marks untyped and
// typed constants, which act as dimensionless scalars everywhere: they
// scale products, and they are additively compatible with any dimension
// (powerW + 5 is not a unit bug).
type dval struct {
	d       udim
	isConst bool
}

// hard reports whether the value carries a mixable dimension.
func (v dval) hard() bool {
	return !v.isConst && dimBit(v.d) != 0
}

// uslot is one dimension-carrying declaration site: a parameter, a
// result, or a struct field. Declared slots (suffix or annotation) are
// fixed seeds; neutral slots accumulate an inflow mask during the
// fixpoint.
type uslot struct {
	declared bool
	d        udim  // meaningful when declared
	mask     uint8 // hard-dimension inflows for neutral slots
	fracIn   bool  // saw fractional inflow (inference only, never a conflict)

	pos   token.Pos
	pkg   *Package
	name  string // identifier, "" for unnamed results
	owner string // display name of the owning function or type
	kind  string // "parameter", "result", "field"
}

// dim resolves the slot's current dimension: declared wins; a neutral
// slot with exactly one hard inflow infers it; fraction-only inflow
// infers frac; anything mixed is unknown (the conflict is reported as
// laundering, not propagated).
func (s *uslot) dim() udim {
	if s.declared {
		return s.d
	}
	switch s.mask {
	case dimBit(udimW):
		return udimW
	case dimBit(udimWh):
		return udimWh
	case dimBit(udimH):
		return udimH
	case 0:
		if s.fracIn {
			return udimFrac
		}
	}
	return udimUnknown
}

// conflicted reports mixed hard inflows on a neutral slot.
func (s *uslot) conflicted() bool {
	return !s.declared && s.mask&(s.mask-1) != 0
}

// usig is one function's (or in-program interface method's) dimension
// signature: parameter and result slots in flattened declaration order.
type usig struct {
	params   []*uslot
	results  []*uslot
	variadic bool
}

// unitsFinding is one engine finding, attributed to the package whose
// pass must report it.
type unitsFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// unitsEngine is the program-wide dimension-flow state, built once per
// Program and cached on it (the driver and the test harness are
// single-threaded, like the rest of the loader).
type unitsEngine struct {
	prog   *Program
	fields map[string]*uslot // "pkg.(T).Field"
	sigs   map[string]*usig  // funcKey / "pkg.(Iface).Method"

	declFindings []unitsFinding // malformed/contradictory annotations
	findings     []unitsFinding // report-pass findings

	changed bool
	report  bool
}

// unitsFor returns the program's dimension-flow engine, building it on
// first use: declare seeds, run the flow fixpoint to stability, then one
// reporting pass over the stable tables.
func unitsFor(prog *Program) *unitsEngine {
	if prog.units != nil {
		return prog.units
	}
	e := &unitsEngine{
		prog:   prog,
		fields: make(map[string]*uslot),
		sigs:   make(map[string]*usig),
	}
	for _, pkg := range prog.Pkgs {
		e.declarePackage(pkg)
	}
	for e.changed = true; e.changed; {
		e.changed = false
		e.evalAll()
	}
	e.report = true
	e.evalAll()
	e.reportSlots()
	prog.units = e
	return e
}

func runUnits(pass *Pass) {
	e := unitsFor(pass.Prog)
	for _, f := range e.declFindings {
		if f.pkg.Path == pass.Path {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	for _, f := range e.findings {
		if f.pkg.Path == pass.Path {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// UnitsFieldDims exposes the engine's resolved struct-field dimensions:
// field key ("pkg.(T).Field") → annotation token ("W", "Wh", "h",
// "frac") for every field whose dimension resolved by suffix,
// annotation, or inference. The annotation-coverage test ties the
// dimensioned core's exported fields to this map.
func UnitsFieldDims(prog *Program) map[string]string {
	e := unitsFor(prog)
	out := make(map[string]string)
	for key, s := range e.fields {
		if d := s.dim(); d != udimUnknown {
			out[key] = d.dimToken()
		}
	}
	return out
}

// declFinding records a declare-phase finding (malformed annotations).
func (e *unitsEngine) declFinding(pkg *Package, pos token.Pos, format string, args ...any) {
	e.declFindings = append(e.declFindings, unitsFinding{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// finding records a report-pass finding.
func (e *unitsEngine) finding(pkg *Package, pos token.Pos, format string, args ...any) {
	if !e.report {
		return
	}
	e.findings = append(e.findings, unitsFinding{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// unitsAnnotationArg extracts the argument of a ghlint:units annotation
// from a comment group, if present.
func unitsAnnotationArg(groups ...*ast.CommentGroup) (string, token.Pos, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if arg, ok := directiveArg(c, unitsMarker); ok {
				return trimWantMarker(arg), c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// declarePackage seeds slots from pkg's type and function declarations.
func (e *unitsEngine) declarePackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					switch t := ts.Type.(type) {
					case *ast.StructType:
						e.declareStruct(pkg, ts.Name.Name, t)
					case *ast.InterfaceType:
						e.declareInterface(pkg, ts.Name.Name, t)
					}
				}
			case *ast.FuncDecl:
				key, ok := declKey(pkg, d)
				if !ok {
					continue
				}
				e.sigs[key] = e.buildSig(pkg, displayKey(key), d.Type, d.Doc)
			}
		}
	}
}

// declareStruct seeds one struct's field slots from suffixes and from
// their ghlint:units annotations.
func (e *unitsEngine) declareStruct(pkg *Package, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		arg, annPos, hasAnn := unitsAnnotationArg(field.Doc, field.Comment)
		var annDim udim
		if hasAnn {
			var ok bool
			if annDim, ok = parseDimToken(arg); !ok {
				e.declFinding(pkg, annPos,
					"malformed ghlint:units annotation: %q is not a dimension (want W, Wh, h, or frac)", arg)
				hasAnn = false
			}
		}
		for _, name := range field.Names {
			slot := &uslot{
				pos: name.Pos(), pkg: pkg, name: name.Name,
				owner: typeName, kind: "field",
			}
			suffix := dimOfName(name.Name)
			switch {
			case hasAnn && suffix != udimUnknown && suffix != annDim:
				e.declFinding(pkg, annPos,
					"ghlint:units %s contradicts the %s suffix of field %s.%s; fix the annotation or rename the field",
					annDim.dimToken(), suffix, typeName, name.Name)
				slot.d, slot.declared = suffix, true
			case hasAnn:
				slot.d, slot.declared = annDim, true
			case suffix != udimUnknown:
				slot.d, slot.declared = suffix, true
			}
			e.fields[pkg.Path+".("+typeName+")."+name.Name] = slot
		}
	}
}

// declareInterface seeds signature slots for an in-program interface's
// methods, so dimension flow crosses interface call boundaries the same
// way it crosses static ones. The interface's own declaration is the
// contract; implementations are not fanned out.
func (e *unitsEngine) declareInterface(pkg *Package, ifaceName string, it *ast.InterfaceType) {
	for _, m := range it.Methods.List {
		ft, ok := m.Type.(*ast.FuncType)
		if !ok || len(m.Names) == 0 {
			continue // embedded interface
		}
		for _, name := range m.Names {
			key := pkg.Path + ".(" + ifaceName + ")." + name.Name
			e.sigs[key] = e.buildSig(pkg, ifaceName+"."+name.Name, ft, docFor(m))
		}
	}
}

// docFor merges a field's doc and line comments for annotation lookup.
func docFor(f *ast.Field) *ast.CommentGroup {
	if f.Doc != nil {
		return f.Doc
	}
	return f.Comment
}

// buildSig flattens a function type into slots, seeding dimensions from
// name suffixes, from a single-result function's own suffixed name
// (GridEnergyWh() is an accessor returning Wh), and from a
// `// ghlint:units name=dim` doc annotation.
func (e *unitsEngine) buildSig(pkg *Package, display string, ft *ast.FuncType, doc *ast.CommentGroup) *usig {
	sig := &usig{}
	addSlots := func(list *ast.FieldList, kind string) []*uslot {
		var slots []*uslot
		if list == nil {
			return slots
		}
		for _, f := range list.List {
			if _, ok := f.Type.(*ast.Ellipsis); ok && kind == "parameter" {
				sig.variadic = true
			}
			if len(f.Names) == 0 {
				slots = append(slots, &uslot{pos: f.Pos(), pkg: pkg, owner: display, kind: kind})
				continue
			}
			for _, n := range f.Names {
				slot := &uslot{pos: n.Pos(), pkg: pkg, name: n.Name, owner: display, kind: kind}
				if d := dimOfName(n.Name); d != udimUnknown {
					slot.d, slot.declared = d, true
				}
				slots = append(slots, slot)
			}
		}
		return slots
	}
	sig.params = addSlots(ft.Params, "parameter")
	sig.results = addSlots(ft.Results, "result")

	// A unit-suffixed function name declares its single result: the
	// accessor convention (EnergyWh, SupplyW, EpochHours) the old
	// analyzer already classified.
	if len(sig.results) == 1 && !sig.results[0].declared && sig.results[0].name == "" {
		base := display
		if i := strings.LastIndex(base, "."); i >= 0 {
			base = base[i+1:]
		}
		if d := dimOfName(base); d != udimUnknown {
			sig.results[0].d, sig.results[0].declared = d, true
		}
	}

	arg, annPos, hasAnn := unitsAnnotationArg(doc)
	if !hasAnn {
		return sig
	}
	for _, entry := range strings.Fields(arg) {
		name, tok, ok := strings.Cut(entry, "=")
		if !ok {
			e.declFinding(pkg, annPos,
				"malformed ghlint:units annotation: entry %q is not name=dim", entry)
			continue
		}
		d, ok := parseDimToken(tok)
		if !ok {
			e.declFinding(pkg, annPos,
				"malformed ghlint:units annotation: %q is not a dimension (want W, Wh, h, or frac)", tok)
			continue
		}
		slot := sig.slotNamed(name)
		if slot == nil {
			e.declFinding(pkg, annPos,
				"malformed ghlint:units annotation: %s has no parameter or result %q", display, name)
			continue
		}
		if slot.declared && slot.d != d {
			e.declFinding(pkg, annPos,
				"ghlint:units %s contradicts the %s suffix of %q in %s; fix the annotation or rename",
				d.dimToken(), slot.d, name, display)
			continue
		}
		slot.d, slot.declared = d, true
	}
	return sig
}

// slotNamed resolves an annotation entry name: a parameter name, a named
// result, or the positional forms "result" / "resultN".
func (s *usig) slotNamed(name string) *uslot {
	for _, p := range s.params {
		if p.name == name {
			return p
		}
	}
	for _, r := range s.results {
		if r.name != "" && r.name == name {
			return r
		}
	}
	if name == "result" && len(s.results) > 0 {
		return s.results[0]
	}
	if rest, ok := strings.CutPrefix(name, "result"); ok {
		var i int
		if _, err := fmt.Sscanf(rest, "%d", &i); err == nil && i >= 0 && i < len(s.results) {
			return s.results[i]
		}
	}
	return nil
}

// evalAll runs one flow pass (and, in report mode, the mixing checks)
// over every function body in the program.
func (e *unitsEngine) evalAll() {
	for _, pkg := range e.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				e.evalFunc(pkg, fd)
			}
		}
	}
}

// ulocal tracks one function-local variable's dimension evidence.
type ulocal struct {
	name      string
	declared  udim // from the identifier suffix; fixed
	mask      uint8
	fracIn    bool
	bindings  []ubind
	usedAsArg bool
}

type ubind struct {
	pos token.Pos
	d   udim
}

// dim mirrors uslot.dim for locals.
func (l *ulocal) dim() udim {
	if l.declared != udimUnknown {
		return l.declared
	}
	switch l.mask {
	case dimBit(udimW):
		return udimW
	case dimBit(udimWh):
		return udimWh
	case dimBit(udimH):
		return udimH
	case 0:
		if l.fracIn {
			return udimFrac
		}
	}
	return udimUnknown
}

// fctx is the per-function evaluation context.
type fctx struct {
	e        *unitsEngine
	pkg      *Package
	display  string
	sig      *usig                    // nil inside function literals (returns unkeyed)
	paramOf  map[types.Object]*uslot  // parameter objects → slots
	resultOf map[types.Object]*uslot  // named-result objects → slots
	locals   map[types.Object]*ulocal // shared with nested literals (closure capture)
}

// evalFunc runs the flow walk (and report-mode checks) over one
// declaration.
func (e *unitsEngine) evalFunc(pkg *Package, fd *ast.FuncDecl) {
	key, ok := declKey(pkg, fd)
	if !ok {
		return
	}
	sig := e.sigs[key]
	if sig == nil {
		return
	}
	c := &fctx{
		e: e, pkg: pkg, display: displayKey(key), sig: sig,
		paramOf:  make(map[types.Object]*uslot),
		resultOf: make(map[types.Object]*uslot),
		locals:   make(map[types.Object]*ulocal),
	}
	c.bindFieldList(fd.Type.Params, sig.params, c.paramOf)
	c.bindFieldList(fd.Type.Results, sig.results, c.resultOf)
	c.walkBody(fd.Body, sig)
	if e.report {
		c.mixWalk(fd.Body)
		c.reportLaunderedLocals()
	}
}

// bindFieldList maps declared identifier objects onto their slots, in
// the same flattening order buildSig used.
func (c *fctx) bindFieldList(list *ast.FieldList, slots []*uslot, into map[types.Object]*uslot) {
	if list == nil {
		return
	}
	i := 0
	for _, f := range list.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, n := range f.Names {
			if i < len(slots) {
				if obj := c.pkg.Info.Defs[n]; obj != nil {
					into[obj] = slots[i]
				}
			}
			i++
		}
	}
}

// walkBody performs the flow walk: every assignment, declaration,
// return, range, call, and composite literal contributes dimension
// inflows; function literals recurse with their own return scope but
// shared locals (closures capture the enclosing frame).
func (c *fctx) walkBody(body ast.Node, sig *usig) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			child := &fctx{
				e: c.e, pkg: c.pkg, display: c.display, sig: nil,
				paramOf: c.paramOf, resultOf: c.resultOf, locals: c.locals,
			}
			// Literal parameters live as suffix-classified locals.
			if s.Type.Params != nil {
				for _, f := range s.Type.Params.List {
					for _, name := range f.Names {
						if obj := c.pkg.Info.Defs[name]; obj != nil {
							child.locals[obj] = &ulocal{name: name.Name, declared: dimOfName(name.Name)}
						}
					}
				}
			}
			child.walkBody(s.Body, nil)
			return false
		case *ast.AssignStmt:
			c.assign(s)
		case *ast.ValueSpec:
			c.valueSpec(s)
		case *ast.ReturnStmt:
			c.returnStmt(s, sig)
		case *ast.RangeStmt:
			c.rangeStmt(s)
		case *ast.CallExpr:
			c.call(s)
		case *ast.CompositeLit:
			c.compositeLit(s)
		}
		return true
	})
}

// assign flows right-hand dimensions into left-hand targets. Arithmetic
// assignments (+=, -=, …) keep the target's own dimension and are
// checked by the mixing walk instead.
func (c *fctx) assign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			c.flowToExpr(lhs, c.dimOf(s.Rhs[i]), s.Rhs[i].Pos())
		}
		return
	}
	// Multi-value: a, b := f() — flow each callee result slot.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if sig := c.calleeSigOf(call); sig != nil {
				for i, lhs := range s.Lhs {
					if i < len(sig.results) {
						c.flowToExpr(lhs, dval{d: sig.results[i].dim()}, s.Rhs[0].Pos())
					}
				}
			}
		}
	}
}

// valueSpec flows var-declaration initializers.
func (c *fctx) valueSpec(s *ast.ValueSpec) {
	if len(s.Names) == len(s.Values) {
		for i, name := range s.Names {
			c.flowToExpr(name, c.dimOf(s.Values[i]), s.Values[i].Pos())
		}
		return
	}
	if len(s.Values) == 1 {
		if call, ok := ast.Unparen(s.Values[0]).(*ast.CallExpr); ok {
			if sig := c.calleeSigOf(call); sig != nil {
				for i, name := range s.Names {
					if i < len(sig.results) {
						c.flowToExpr(name, dval{d: sig.results[i].dim()}, s.Values[0].Pos())
					}
				}
			}
		}
	}
}

// returnStmt flows returned expressions into the function's result
// slots. Inside a function literal sig is nil and returns are unkeyed.
func (c *fctx) returnStmt(s *ast.ReturnStmt, sig *usig) {
	if sig == nil || len(s.Results) != len(sig.results) {
		return
	}
	for i, r := range s.Results {
		c.flowToSlot(sig.results[i], c.dimOf(r), r.Pos())
	}
}

// rangeStmt flows the ranged expression's element dimension into the
// value variable (the repo's convention names dimensioned slices with
// the element's suffix: GridSeriesW, bidsW).
func (c *fctx) rangeStmt(s *ast.RangeStmt) {
	if s.Value == nil {
		return
	}
	c.flowToExpr(s.Value, c.dimOf(s.X), s.X.Pos())
}

// compositeLit flows keyed and positional struct-literal values into
// field slots.
func (c *fctx) compositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pkg.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := derefType(tv.Type).(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	prefix := named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")."
	for i, el := range lit.Elts {
		var fieldName string
		var value ast.Expr
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			fieldName, value = id.Name, kv.Value
		} else {
			if i >= st.NumFields() {
				continue
			}
			fieldName, value = st.Field(i).Name(), el
		}
		if slot := c.e.fields[prefix+fieldName]; slot != nil {
			c.flowToSlot(slot, c.dimOf(value), value.Pos())
		}
	}
}

// call flows argument dimensions into the callee's parameter slots and
// marks locals that cross the call boundary.
func (c *fctx) call(call *ast.CallExpr) {
	if tv, ok := c.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion: the value stays in this function's hands
	}
	// An identifier handed to any real call crosses a boundary, whether
	// or not the callee resolves to an in-program signature —
	// out-of-program and dynamic callees launder a mixed-dimension
	// local just as thoroughly as resolved ones.
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if l := c.localFor(id, false); l != nil {
				l.usedAsArg = true
			}
		}
	}
	sig, shift := c.calleeSigShift(call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pi := i + shift
		if pi < 0 {
			continue // method-expression receiver: no parameter slot
		}
		if pi >= len(sig.params) {
			if !sig.variadic || len(sig.params) == 0 {
				continue
			}
			pi = len(sig.params) - 1
		}
		c.flowToSlot(sig.params[pi], c.dimOf(arg), arg.Pos())
	}
}

// calleeSigOf resolves a call to its dimension signature, nil when the
// callee is out of program or unresolvable.
func (c *fctx) calleeSigOf(call *ast.CallExpr) *usig {
	sig, _ := c.calleeSigShift(call)
	return sig
}

// calleeSigShift resolves a call's signature plus the argument shift
// (1 for method expressions, whose first argument is the receiver).
func (c *fctx) calleeSigShift(call *ast.CallExpr) (*usig, int) {
	info := c.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil, 0 // conversion
	}
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			if key, ok := unitsFuncKey(fn); ok {
				return c.e.sigs[key], 0
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, 0
			}
			key, ok := unitsFuncKey(fn)
			if !ok {
				return nil, 0
			}
			if sel.Kind() == types.MethodExpr {
				return c.e.sigs[key], -1
			}
			return c.e.sigs[key], 0
		}
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			if key, ok := unitsFuncKey(fn); ok {
				return c.e.sigs[key], 0
			}
		}
	}
	return nil, 0
}

// unitsFuncKey is funcKey extended to interface-method objects, whose
// receiver is the (named) interface itself: dimension contracts live on
// the interface declaration.
func unitsFuncKey(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		named, ok := derefType(recv.Type()).(*types.Named)
		if !ok {
			return "", false
		}
		return pkg.Path() + ".(" + named.Obj().Name() + ")." + fn.Name(), true
	}
	return pkg.Path() + "." + fn.Name(), true
}

// flowToExpr flows a value into an assignable expression: locals, named
// results, parameters, field selectors, and element stores through
// index/star expressions.
func (c *fctx) flowToExpr(lhs ast.Expr, v dval, pos token.Pos) {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		obj := c.pkg.Info.Defs[t]
		if obj == nil {
			obj = c.pkg.Info.Uses[t]
		}
		if obj == nil {
			return
		}
		if slot, ok := c.resultOf[obj]; ok {
			c.flowToSlot(slot, v, pos)
			return
		}
		if slot, ok := c.paramOf[obj]; ok {
			c.flowToSlot(slot, v, pos)
			return
		}
		if l := c.localFor(t, true); l != nil {
			c.flowToLocal(l, v, pos)
		}
	case *ast.SelectorExpr:
		if key, ok := c.fieldKeyOf(t); ok {
			if slot := c.e.fields[key]; slot != nil {
				c.flowToSlot(slot, v, pos)
			}
		}
	case *ast.IndexExpr:
		c.flowToExpr(t.X, v, pos)
	case *ast.StarExpr:
		c.flowToExpr(t.X, v, pos)
	}
}

// localFor resolves an identifier to its local tracking record,
// creating one when create is set. Parameters, named results, fields,
// and package-level variables are not locals.
func (c *fctx) localFor(id *ast.Ident, create bool) *ulocal {
	obj := c.pkg.Info.Defs[id]
	if obj == nil {
		obj = c.pkg.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if _, isParam := c.paramOf[obj]; isParam {
		return nil
	}
	if _, isResult := c.resultOf[obj]; isResult {
		return nil
	}
	if c.pkg.Types != nil && v.Parent() == c.pkg.Types.Scope() {
		return nil // package-level variable
	}
	if l, ok := c.locals[obj]; ok {
		return l
	}
	if !create {
		return nil
	}
	l := &ulocal{name: id.Name, declared: dimOfName(id.Name)}
	c.locals[obj] = l
	return l
}

// flowToSlot joins a value into a parameter/result/field slot: declared
// slots check for mismatches, neutral slots accumulate inflow.
func (c *fctx) flowToSlot(slot *uslot, v dval, pos token.Pos) {
	if slot == nil || v.isConst || v.d == udimUnknown {
		return
	}
	if slot.declared {
		if v.d != slot.d {
			c.e.finding(c.pkg, pos,
				"dimension mismatch: %s value flows into %s %q of %s declared %s; convert explicitly (power × duration.Hours() = energy) or fix the declaration",
				v.d, slot.kind, slot.name, slot.owner, slot.d)
		}
		return
	}
	if bit := dimBit(v.d); bit != 0 {
		if slot.mask&bit == 0 {
			slot.mask |= bit
			c.e.changed = true
		}
	} else if v.d == udimFrac && !slot.fracIn {
		slot.fracIn = true
		c.e.changed = true
	}
}

// flowToLocal joins a value into a local: suffix-declared locals check
// for mismatches, neutral locals accumulate evidence for the
// laundering report.
func (c *fctx) flowToLocal(l *ulocal, v dval, pos token.Pos) {
	if v.isConst || v.d == udimUnknown {
		return
	}
	if l.declared != udimUnknown {
		if v.d != l.declared {
			c.e.finding(c.pkg, pos,
				"dimension mismatch: %s value bound to %s-suffixed local %q; convert explicitly (power × duration.Hours() = energy) or rename the variable",
				v.d, l.declared, l.name)
		}
		return
	}
	if bit := dimBit(v.d); bit != 0 {
		l.mask |= bit
		l.bindings = append(l.bindings, ubind{pos: pos, d: v.d})
	} else if v.d == udimFrac {
		l.fracIn = true
	}
}

// fieldKeyOf resolves a field selector to its slot key through the
// type-checker's selection. Fields promoted from embedded types key
// under the outer type and simply miss the table (the suffix fallback in
// selectorDim still classifies them).
func (c *fctx) fieldKeyOf(sel *ast.SelectorExpr) (string, bool) {
	s, ok := c.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	named, ok := derefType(s.Recv()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + sel.Sel.Name, true
}

// dimOf evaluates an expression's dimension. It is pure: findings come
// from the flow hooks and the mixing walk, never from evaluation.
func (c *fctx) dimOf(e ast.Expr) dval {
	if tv, ok := c.pkg.Info.Types[e]; ok && tv.Value != nil {
		return dval{isConst: true}
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return c.dimOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return c.dimOf(x.X)
		}
	case *ast.StarExpr:
		return c.dimOf(x.X)
	case *ast.IndexExpr:
		return c.dimOf(x.X)
	case *ast.SliceExpr:
		return c.dimOf(x.X)
	case *ast.Ident:
		return c.identDim(x)
	case *ast.SelectorExpr:
		return c.selectorDim(x)
	case *ast.CallExpr:
		return c.callDim(x)
	case *ast.BinaryExpr:
		return c.binaryDim(x)
	}
	return dval{}
}

// identDim resolves an identifier: named results, parameters, tracked
// locals, then the suffix convention (package-level variables and
// anything else the flow has not seen).
func (c *fctx) identDim(id *ast.Ident) dval {
	obj := c.pkg.Info.Uses[id]
	if obj == nil {
		obj = c.pkg.Info.Defs[id]
	}
	if obj != nil {
		if slot, ok := c.resultOf[obj]; ok {
			return dval{d: slot.dim()}
		}
		if slot, ok := c.paramOf[obj]; ok {
			return dval{d: slot.dim()}
		}
		if l, ok := c.locals[obj]; ok {
			return dval{d: l.dim()}
		}
	}
	return dval{d: dimOfName(id.Name)}
}

// selectorDim resolves x.F: field slots first, then the suffix of the
// selected name (out-of-program fields, promoted fields, package vars).
func (c *fctx) selectorDim(sel *ast.SelectorExpr) dval {
	if key, ok := c.fieldKeyOf(sel); ok {
		if slot := c.e.fields[key]; slot != nil {
			return dval{d: slot.dim()}
		}
	}
	if s, ok := c.pkg.Info.Selections[sel]; ok && s.Kind() != types.FieldVal {
		return dval{} // method value, not a dimensioned read
	}
	return dval{d: dimOfName(sel.Sel.Name)}
}

// callDim evaluates a call expression: numeric conversions are
// transparent, builtin and math min/max/abs-style helpers join their
// arguments, in-program callees report their result slot, and
// out-of-program callees fall back to the suffix of their name
// (r.GridEnergyWh()), with time.Duration's Hours() the canonical
// power×time conversion.
func (c *fctx) callDim(call *ast.CallExpr) dval {
	info := c.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isNumericType(tv.Type) {
			return c.dimOf(call.Args[0])
		}
		return dval{}
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "min" || b.Name() == "max" {
				return c.joinArgs(call)
			}
			return dval{}
		}
	}
	if sig := c.calleeSigOf(call); sig != nil {
		if len(sig.results) == 1 {
			return dval{d: sig.results[0].dim()}
		}
		return dval{}
	}
	// Out-of-program callee: magnitude-preserving math helpers join
	// their arguments; otherwise the callee's name suffix decides.
	fn := calleeFuncObj(info, fun)
	if fn == nil {
		return dval{}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" && magnitudePreserving[fn.Name()] {
		return c.joinArgs(call)
	}
	if fn.Name() == "Hours" {
		return dval{d: udimH}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
		return dval{d: dimOfName(fn.Name())}
	}
	return dval{}
}

// magnitudePreserving lists math functions whose result carries their
// argument's dimension.
var magnitudePreserving = map[string]bool{
	"Abs": true, "Min": true, "Max": true,
	"Floor": true, "Ceil": true, "Trunc": true, "Round": true,
}

// calleeFuncObj resolves the called *types.Func, nil for dynamic calls.
func calleeFuncObj(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// joinArgs additively joins a call's argument dimensions (min/max/Abs
// return one of their inputs).
func (c *fctx) joinArgs(call *ast.CallExpr) dval {
	out := dval{isConst: true}
	for _, a := range call.Args {
		out = addDim(out, c.dimOf(a))
	}
	return out
}

// isNumericType reports whether a conversion target is numeric (so the
// conversion preserves the operand's dimension).
func isNumericType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// binaryDim applies the lattice's operator tables.
func (c *fctx) binaryDim(x *ast.BinaryExpr) dval {
	switch x.Op {
	case token.ADD, token.SUB:
		return addDim(c.dimOf(x.X), c.dimOf(x.Y))
	case token.MUL:
		return mulDim(c.dimOf(x.X), c.dimOf(x.Y))
	case token.QUO:
		return divDim(c.dimOf(x.X), c.dimOf(x.Y))
	}
	return dval{}
}

// addDim: addition requires (and yields) a single dimension. Constants
// are transparent; an unknown operand adopts the known hard dimension
// (additive compatibility is the evidence); fractions blended into a
// hard dimension yield unknown — the blend is sanctioned (epsilons,
// ratios) but the sum's dimension is no longer knowable.
func addDim(a, b dval) dval {
	if a.isConst {
		return dval{d: b.d}
	}
	if b.isConst {
		return dval{d: a.d}
	}
	if a.d == b.d {
		return dval{d: a.d}
	}
	if a.d == udimUnknown && b.hard() {
		return dval{d: b.d}
	}
	if b.d == udimUnknown && a.hard() {
		return dval{d: a.d}
	}
	return dval{}
}

// mulDim: scalars (constants, fractions) preserve the other factor;
// W × h converts to Wh; any other product has no tracked dimension.
func mulDim(a, b dval) dval {
	scalarA := a.isConst || a.d == udimFrac
	scalarB := b.isConst || b.d == udimFrac
	switch {
	case scalarA && scalarB:
		if a.d == udimFrac || b.d == udimFrac {
			return dval{d: udimFrac}
		}
		return dval{isConst: true}
	case scalarA:
		return dval{d: b.d}
	case scalarB:
		return dval{d: a.d}
	case a.d == udimW && b.d == udimH, a.d == udimH && b.d == udimW:
		return dval{d: udimWh}
	}
	return dval{}
}

// divDim: scalar divisors preserve the dividend; same-dimension
// quotients are fractions; Wh/h = W and Wh/W = h close the conversion
// triangle.
func divDim(a, b dval) dval {
	if b.isConst || b.d == udimFrac {
		return dval{d: a.d}
	}
	if a.d != udimUnknown && !a.isConst && a.d == b.d {
		return dval{d: udimFrac}
	}
	if a.d == udimWh && b.d == udimH {
		return dval{d: udimW}
	}
	if a.d == udimWh && b.d == udimW {
		return dval{d: udimH}
	}
	return dval{}
}

// mixWalk is the report-pass check for additive and comparison mixing,
// run once per function over the stable tables so each expression is
// checked exactly once.
func (c *fctx) mixWalk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BinaryExpr:
			if mixableOps[s.Op] {
				c.checkMix(s.OpPos, s.Op, s.X, s.Y)
			}
		case *ast.AssignStmt:
			if (s.Tok == token.ADD_ASSIGN || s.Tok == token.SUB_ASSIGN) &&
				len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				c.checkMix(s.TokPos, s.Tok, s.Lhs[0], s.Rhs[0])
			}
		}
		return true
	})
}

// checkMix reports two distinct hard dimensions meeting across an
// additive or comparison operator.
func (c *fctx) checkMix(opPos token.Pos, op token.Token, x, y ast.Expr) {
	xv, yv := c.dimOf(x), c.dimOf(y)
	if !xv.hard() || !yv.hard() || xv.d == yv.d {
		return
	}
	c.e.finding(c.pkg, opPos,
		"%q mixes %s (%s) with %s (%s); convert explicitly (power × duration.Hours() = energy) or go through a named conversion helper",
		op.String(), exprString(x), xv.d, exprString(y), yv.d)
}

// reportLaunderedLocals flags neutral locals that both accumulated
// mixed hard dimensions and crossed a call boundary: past that point no
// reader — human or analyzer — can recover the unit.
func (c *fctx) reportLaunderedLocals() {
	for _, l := range c.locals {
		if l.declared != udimUnknown || l.mask&(l.mask-1) == 0 || !l.usedAsArg {
			continue
		}
		seen := l.bindings[0].d
		for _, b := range l.bindings[1:] {
			if b.d != seen {
				c.e.finding(c.pkg, b.pos,
					"local %q launders mixed dimensions (%s) and crosses a call boundary; keep the unit suffix on the name or split the variable",
					l.name, maskDims(l.mask))
				break
			}
		}
	}
}

// reportSlots emits the laundering findings for neutral parameters,
// results, and fields whose inflows mixed hard dimensions. Keys are
// sorted so the engine's finding order is a pure function of the source.
func (e *unitsEngine) reportSlots() {
	keys := make([]string, 0, len(e.sigs))
	for k := range e.sigs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sig := e.sigs[k]
		for _, p := range sig.params {
			if p.conflicted() {
				e.findings = append(e.findings, unitsFinding{pkg: p.pkg, pos: p.pos, msg: fmt.Sprintf(
					"parameter %q of %s receives mixed dimensions (%s) from its call sites; a dimensioned value is laundered through the neutral name — annotate it (// ghlint:units %s=<dim>) or split the helper",
					p.name, p.owner, maskDims(p.mask), p.name)})
			}
		}
		for i, r := range sig.results {
			if r.conflicted() {
				e.findings = append(e.findings, unitsFinding{pkg: r.pkg, pos: r.pos, msg: fmt.Sprintf(
					"result %d of %s returns mixed dimensions (%s); annotate it (// ghlint:units result=<dim>) or split the function",
					i, r.owner, maskDims(r.mask))})
			}
		}
	}
	fkeys := make([]string, 0, len(e.fields))
	for k := range e.fields {
		fkeys = append(fkeys, k)
	}
	sort.Strings(fkeys)
	for _, k := range fkeys {
		f := e.fields[k]
		if f.conflicted() {
			e.findings = append(e.findings, unitsFinding{pkg: f.pkg, pos: f.pos, msg: fmt.Sprintf(
				"field %s.%s receives mixed dimensions (%s) from its stores; a dimensioned value is laundered through the neutral name — annotate it (// ghlint:units <dim>) or split the field",
				f.owner, f.name, maskDims(f.mask))})
		}
	}
}
