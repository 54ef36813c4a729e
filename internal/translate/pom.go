package translate

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/lqp"
	"repro/internal/rel"
)

// OpName names a polygen operation as spelled in the paper's matrices.
type OpName string

// Operation names appearing in Polygen Operation Matrices and Intermediate
// Operation Matrices.
const (
	OpSelect     OpName = "Select"
	OpRestrict   OpName = "Restrict"
	OpJoin       OpName = "Join"
	OpProject    OpName = "Project"
	OpRetrieve   OpName = "Retrieve"
	OpMerge      OpName = "Merge"
	OpUnion      OpName = "Union"
	OpDifference OpName = "Difference"
	OpIntersect  OpName = "Intersect"
	OpProduct    OpName = "Product"
)

// OperandKind classifies the LHR/RHR columns of a matrix row.
type OperandKind uint8

const (
	// OpdNone is the paper's "nil" operand.
	OpdNone OperandKind = iota
	// OpdScheme references a polygen scheme (POM rows, e.g. PALUMNUS).
	OpdScheme
	// OpdLocal references a local scheme (IOM rows, e.g. ALUMNUS).
	OpdLocal
	// OpdReg references a polygen base relation R(#).
	OpdReg
	// OpdRegs references a list of registers {R(a), ..., R(b)} (Merge rows).
	OpdRegs
)

// Operand is the LHR or RHR of a matrix row.
type Operand struct {
	Kind OperandKind
	Name string // scheme name for OpdScheme / OpdLocal
	Reg  int    // register number for OpdReg
	Regs []int  // register numbers for OpdRegs
}

// NoOperand is the "nil" operand.
func NoOperand() Operand { return Operand{Kind: OpdNone} }

// SchemeOperand references a polygen scheme.
func SchemeOperand(name string) Operand { return Operand{Kind: OpdScheme, Name: name} }

// LocalOperand references a local scheme.
func LocalOperand(name string) Operand { return Operand{Kind: OpdLocal, Name: name} }

// RegOperand references register n.
func RegOperand(n int) Operand { return Operand{Kind: OpdReg, Reg: n} }

// RegsOperand references registers ns.
func RegsOperand(ns ...int) Operand { return Operand{Kind: OpdRegs, Regs: ns} }

// String renders the operand in the paper's notation.
func (o Operand) String() string {
	switch o.Kind {
	case OpdNone:
		return "nil"
	case OpdScheme, OpdLocal:
		return o.Name
	case OpdReg:
		return fmt.Sprintf("R(%d)", o.Reg)
	case OpdRegs:
		parts := make([]string, len(o.Regs))
		for i, r := range o.Regs {
			parts[i] = fmt.Sprintf("R(%d)", r)
		}
		return strings.Join(parts, ", ")
	default:
		return fmt.Sprintf("operand(%d)", uint8(o.Kind))
	}
}

// Comparand is the RHA column: an attribute name, a constant, or nil.
type Comparand struct {
	Kind  ComparandKind
	Attr  string
	Const rel.Value
}

// ComparandKind classifies a Comparand.
type ComparandKind uint8

const (
	// CmpNone is the paper's "nil" RHA.
	CmpNone ComparandKind = iota
	// CmpAttr is an attribute name.
	CmpAttr
	// CmpConst is a literal constant.
	CmpConst
)

// NoComparand is the "nil" RHA.
func NoComparand() Comparand { return Comparand{Kind: CmpNone} }

// AttrComparand references an attribute.
func AttrComparand(name string) Comparand { return Comparand{Kind: CmpAttr, Attr: name} }

// ConstComparand references a constant.
func ConstComparand(v rel.Value) Comparand { return Comparand{Kind: CmpConst, Const: v} }

// String renders the comparand; constants quote strings as the paper does.
func (c Comparand) String() string {
	switch c.Kind {
	case CmpNone:
		return "nil"
	case CmpAttr:
		return c.Attr
	case CmpConst:
		return formatConst(c.Const)
	default:
		return fmt.Sprintf("comparand(%d)", uint8(c.Kind))
	}
}

// Row is one row of a Polygen Operation Matrix or an Intermediate Operation
// Matrix: (PR, OP, LHR, LHA, θ, RHA, RHR[, EL]).
type Row struct {
	// PR is the result register number: the row computes R(PR).
	PR int
	// Op is the operation.
	Op OpName
	// LHR is the left-hand relation.
	LHR Operand
	// LHA is the left-hand attribute (Project rows carry the whole
	// projection list; other rows use at most one element).
	LHA []string
	// Theta is the comparison for Select/Restrict/Join rows.
	Theta rel.Theta
	// HasTheta reports whether Theta is meaningful (the paper renders "nil"
	// in the θ column otherwise).
	HasTheta bool
	// RHA is the right-hand attribute or constant.
	RHA Comparand
	// RHR is the right-hand relation.
	RHR Operand
	// EL is the execution location: a local database name or "PQP". Empty
	// in POM rows (the POM precedes location assignment).
	EL string
	// Scheme records, on Merge rows, the polygen scheme whose local
	// relations are being merged; the executor needs it for the key and the
	// coalesce groups. It is carried alongside the paper's columns.
	Scheme string
	// Pushed carries, on LQP-resident rows, the local operations the Query
	// Optimizer fused into this row from later PQP-resident rows (predicate
	// and projection pushdown). The operations execute at the row's LQP, in
	// order, after the row's own operation; attribute references are already
	// localized. Like Scheme, it rides alongside the paper's columns — the
	// paper's optimizer box is "beyond the scope", so its output has no
	// matrix notation to follow.
	Pushed []lqp.Op
}

// lhaString renders the LHA column.
func (r Row) lhaString() string {
	if len(r.LHA) == 0 {
		return "nil"
	}
	return strings.Join(r.LHA, ", ")
}

func (r Row) thetaString() string {
	if !r.HasTheta {
		return "nil"
	}
	return r.Theta.String()
}

// String renders the row as a pipe-separated line matching the paper's
// matrix layout: PR | OP | LHR | LHA | θ | RHA | RHR [| EL]. Rows carrying
// optimizer-fused local steps append one extra column, "push: [...]...",
// rendering each pushed operation's bracket part in pipeline order.
func (r Row) String() string {
	cols := []string{
		fmt.Sprintf("R(%d)", r.PR),
		string(r.Op),
		r.LHR.String(),
		r.lhaString(),
		r.thetaString(),
		r.RHA.String(),
		r.RHR.String(),
	}
	if r.EL != "" {
		cols = append(cols, r.EL)
	}
	if len(r.Pushed) > 0 {
		cols = append(cols, "push: "+lqp.StepsString(r.Pushed))
	}
	return strings.Join(cols, " | ")
}

// Matrix is an ordered list of rows — a POM, a half-processed IOM, or an
// IOM, depending on provenance.
type Matrix struct {
	Rows []Row
}

// Cardinality returns the number of rows.
func (m *Matrix) Cardinality() int { return len(m.Rows) }

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for _, r := range m.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Analyze is the Syntax Analyzer (Figure 2): it flattens a polygen algebraic
// expression into a Polygen Operation Matrix, numbering intermediate results
// R(1), R(2), ... in evaluation order (compare Table 1).
func Analyze(e Expr) (*Matrix, error) {
	m := &Matrix{}
	res, err := analyze(e, m)
	if err != nil {
		return nil, err
	}
	// A bare scheme reference ("SELECT * FROM PALUMNUS") emits no operation
	// rows of its own; materialize it with an explicit Retrieve so the plan
	// is non-empty.
	if res.Kind == OpdScheme {
		m.Rows = append(m.Rows, Row{
			PR: len(m.Rows) + 1, Op: OpRetrieve, LHR: res,
			RHA: NoComparand(), RHR: NoOperand(),
		})
	}
	return m, nil
}

// analyze emits rows for e and returns the operand referring to its result.
func analyze(e Expr, m *Matrix) (Operand, error) {
	switch n := e.(type) {
	case *SchemeRef:
		return SchemeOperand(n.Name), nil
	case *SelectExpr:
		in, err := analyze(n.In, m)
		if err != nil {
			return Operand{}, err
		}
		pr := len(m.Rows) + 1
		m.Rows = append(m.Rows, Row{
			PR: pr, Op: OpSelect, LHR: in, LHA: []string{n.Attr},
			Theta: n.Theta, HasTheta: true, RHA: ConstComparand(n.Const), RHR: NoOperand(),
		})
		return RegOperand(pr), nil
	case *RestrictExpr:
		in, err := analyze(n.In, m)
		if err != nil {
			return Operand{}, err
		}
		pr := len(m.Rows) + 1
		m.Rows = append(m.Rows, Row{
			PR: pr, Op: OpRestrict, LHR: in, LHA: []string{n.X},
			Theta: n.Theta, HasTheta: true, RHA: AttrComparand(n.Y), RHR: NoOperand(),
		})
		return RegOperand(pr), nil
	case *JoinExpr:
		l, err := analyze(n.L, m)
		if err != nil {
			return Operand{}, err
		}
		r, err := analyze(n.R, m)
		if err != nil {
			return Operand{}, err
		}
		pr := len(m.Rows) + 1
		m.Rows = append(m.Rows, Row{
			PR: pr, Op: OpJoin, LHR: l, LHA: []string{n.X},
			Theta: n.Theta, HasTheta: true, RHA: AttrComparand(n.Y), RHR: r,
		})
		return RegOperand(pr), nil
	case *ProjectExpr:
		for i, a := range n.Attrs {
			if slices.Contains(n.Attrs[:i], a) {
				return Operand{}, fmt.Errorf("translate: projection names attribute %q twice", a)
			}
		}
		in, err := analyze(n.In, m)
		if err != nil {
			return Operand{}, err
		}
		pr := len(m.Rows) + 1
		m.Rows = append(m.Rows, Row{
			PR: pr, Op: OpProject, LHR: in, LHA: append([]string(nil), n.Attrs...),
			RHA: NoComparand(), RHR: NoOperand(),
		})
		return RegOperand(pr), nil
	case *BinaryExpr:
		l, err := analyze(n.L, m)
		if err != nil {
			return Operand{}, err
		}
		r, err := analyze(n.R, m)
		if err != nil {
			return Operand{}, err
		}
		pr := len(m.Rows) + 1
		m.Rows = append(m.Rows, Row{
			PR: pr, Op: n.Op, LHR: l, RHA: NoComparand(), RHR: r,
		})
		return RegOperand(pr), nil
	default:
		return Operand{}, fmt.Errorf("translate: unknown expression node %T", e)
	}
}
