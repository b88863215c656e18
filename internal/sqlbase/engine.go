package sqlbase

import (
	"fmt"
	"strings"

	"vqpy/internal/models"
	"vqpy/internal/track"
	"vqpy/internal/video"
)

// Cost constants reproducing EVA's structural overheads (virtual ms).
// The paper attributes EVA's slowdowns to per-row Python UDF invocation
// through pandas DataFrames, table materialization, and joins; these
// constants put numbers on those mechanisms.
const (
	costUDFWrapMS     = 1.5  // pandas wrapping per UDF invocation
	costCropMS        = 2.0  // Crop() image slicing per call
	costMaterializeMS = 0.2  // per row written by CREATE TABLE AS
	costScanRowMS     = 0.01 // per row scanned
	costJoinProbeMS   = 0.005
	costJoinRowMS     = 0.05
	costDecodeFrameMS = 0.5 // LOAD VIDEO per frame
)

// Row is one relational tuple; keys are lowercase column names,
// unqualified.
type Row map[string]any

// Table is a materialized relation.
type Table struct {
	Name string
	Cols []string
	Rows []Row
}

// UDF is a scalar user-defined function. Implementations should not
// charge the wrapping overhead — the engine does.
type UDF func(env *models.Env, args []any) (any, error)

// TableUDF produces rows per invocation (used by LATERAL UNNEST). The
// lateralCtx carries state that persists across the rows of one lateral
// clause (e.g. the tracker behind EXTRACT_OBJECT).
type TableUDF func(env *models.Env, lctx *lateralCtx, args []any) ([]Row, error)

// Engine is a single-session mini VDBMS: the EVA baseline of §5.2 and
// nothing else. Every SELECT — over a video table or a materialized one
// — is evaluated one row at a time with EVA's structural overheads
// (pandas UDF wrapping, materialization, join probes) charged to the
// ledger. It is the reference Fig. 14–16 and the root crosscheck compare
// the object-oriented frontend against, so it deliberately shares no
// execution code with internal/plan.
type Engine struct {
	env      *models.Env
	registry *models.Registry

	videos    map[string]*video.Video
	tables    map[string]*Table
	udfs      map[string]UDF
	tableUDFs map[string]TableUDF
	created   map[string]bool // functions introduced via CREATE FUNCTION

	// trackers are per (lateral invocation site) trackers emulating
	// EVA's NorFairTracker binding.
	trackerSeq int
}

// NewEVABaseline returns an engine bound to a model environment.
// Built-in special forms (EXTRACT_OBJECT, Crop) are pre-registered;
// scalar UDFs must be registered then declared via CREATE FUNCTION.
func NewEVABaseline(env *models.Env, registry *models.Registry) *Engine {
	e := &Engine{
		env: env, registry: registry,
		videos:    make(map[string]*video.Video),
		tables:    make(map[string]*Table),
		udfs:      make(map[string]UDF),
		tableUDFs: make(map[string]TableUDF),
		created:   make(map[string]bool),
	}
	e.tableUDFs["extract_object"] = extractObject
	e.udfs["crop"] = cropUDF
	return e
}

// RegisterVideo makes a video loadable under the given path string.
func (e *Engine) RegisterVideo(path string, v *video.Video) { e.videos[path] = v }

// RegisterUDF registers a Go scalar UDF under a name (CREATE FUNCTION
// must still declare it, as in the paper's scripts).
func (e *Engine) RegisterUDF(name string, fn UDF) { e.udfs[strings.ToLower(name)] = fn }

// Table returns a materialized table.
func (e *Engine) Table(name string) (*Table, bool) {
	t, ok := e.tables[strings.ToLower(name)]
	return t, ok
}

// Exec parses and executes one statement, returning a result table for
// SELECT (nil otherwise).
func (e *Engine) Exec(src string) (*Table, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(st)
}

// ExecScript executes multiple semicolon-separated statements, returning
// the result of the last SELECT.
func (e *Engine) ExecScript(stmts []string) (*Table, error) {
	var last *Table
	for _, s := range stmts {
		if strings.TrimSpace(s) == "" {
			continue
		}
		t, err := e.Exec(s)
		if err != nil {
			return nil, fmt.Errorf("%w\nin statement: %s", err, s)
		}
		if t != nil {
			last = t
		}
	}
	return last, nil
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(st Statement) (*Table, error) {
	switch st := st.(type) {
	case *LoadVideo:
		v, ok := e.videos[st.Path]
		if !ok {
			return nil, fmt.Errorf("sqlbase: no video registered for path %q", st.Path)
		}
		tbl := &Table{Name: st.Table, Cols: []string{"id", "data"}}
		for i := range v.Frames {
			e.env.Clock.Charge("eva:decode", costDecodeFrameMS)
			tbl.Rows = append(tbl.Rows, Row{"id": float64(v.Frames[i].Index), "data": &v.Frames[i]})
		}
		e.tables[st.Table] = tbl
		return nil, nil

	case *CreateFunction:
		if _, ok := e.udfs[st.Name]; !ok {
			return nil, fmt.Errorf("sqlbase: CREATE FUNCTION %s: no Go implementation registered", st.Name)
		}
		e.created[st.Name] = true
		return nil, nil

	case *CreateTableAs:
		res, err := e.execSelect(st.Select)
		if err != nil {
			return nil, err
		}
		e.env.Clock.Charge("eva:materialize", costMaterializeMS*float64(len(res.Rows)))
		res.Name = st.Table
		e.tables[st.Table] = res
		return nil, nil

	case *Drop:
		if st.Function {
			if !e.created[st.Name] && !st.IfExists {
				return nil, fmt.Errorf("sqlbase: DROP FUNCTION %s: not found", st.Name)
			}
			delete(e.created, st.Name)
			return nil, nil
		}
		if _, ok := e.tables[st.Name]; !ok && !st.IfExists {
			return nil, fmt.Errorf("sqlbase: DROP TABLE %s: not found", st.Name)
		}
		delete(e.tables, st.Name)
		return nil, nil

	case *Select:
		return e.execSelect(st)
	}
	return nil, fmt.Errorf("sqlbase: unknown statement %T", st)
}

// scope resolves column references against one or two bound rows.
type scope struct {
	// frames maps binding name (table name or alias) → row.
	frames map[string]Row
}

func (s *scope) lookup(ref *ColRef) (any, bool) {
	if ref.Table != "" {
		if r, ok := s.frames[ref.Table]; ok {
			v, ok := r[ref.Column]
			return v, ok
		}
		return nil, false
	}
	// Unqualified: search all frames; ambiguity resolves to the first
	// found in insertion order — matches EVA's permissive resolution.
	for _, r := range s.frames {
		if v, ok := r[ref.Column]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *Engine) execSelect(sel *Select) (*Table, error) {
	base, ok := e.tables[sel.From.Name]
	if !ok {
		return nil, fmt.Errorf("sqlbase: unknown table %q", sel.From.Name)
	}
	baseName := sel.From.Name
	if sel.From.Alias != "" {
		baseName = sel.From.Alias
	}
	e.env.Clock.Charge("eva:scan", costScanRowMS*float64(len(base.Rows)))

	// 1. FROM (+ LATERAL): produce the working row-set as scopes.
	var scopes []*scope
	if sel.Lateral != nil {
		tfn, ok := e.tableUDFs[sel.Lateral.Call.Name]
		if !ok {
			return nil, fmt.Errorf("sqlbase: unknown table function %q", sel.Lateral.Call.Name)
		}
		e.trackerSeq++
		lateralState := &lateralCtx{engine: e}
		for _, row := range base.Rows {
			sc := &scope{frames: map[string]Row{baseName: row}}
			args := make([]any, len(sel.Lateral.Call.Args))
			for i, a := range sel.Lateral.Call.Args {
				// Bare identifiers that are not columns name models
				// (EXTRACT_OBJECT(data, Yolo, NorFairTracker)).
				if ref, isRef := a.(*ColRef); isRef && ref.Table == "" {
					if _, ok := sc.lookup(ref); !ok {
						args[i] = ref.Column
						continue
					}
				}
				v, err := e.eval(a, sc, lateralState)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			rows, err := tfn(e.env, lateralState, args)
			if err != nil {
				return nil, err
			}
			for _, un := range rows {
				mapped := Row{}
				for i, col := range sel.Lateral.Cols {
					if i < len(lateralOutputCols) {
						mapped[col] = un[lateralOutputCols[i]]
					}
				}
				scopes = append(scopes, &scope{frames: map[string]Row{
					baseName:          row,
					sel.Lateral.Alias: mapped,
				}})
			}
		}
	} else {
		for _, row := range base.Rows {
			scopes = append(scopes, &scope{frames: map[string]Row{baseName: row}})
		}
	}

	// 2. JOIN: hash join on equality conjuncts, residual evaluated per
	// candidate pair.
	if sel.Join != nil {
		right, ok := e.tables[sel.Join.Table.Name]
		if !ok {
			return nil, fmt.Errorf("sqlbase: unknown table %q", sel.Join.Table.Name)
		}
		rightName := sel.Join.Table.Name
		if sel.Join.Table.Alias != "" {
			rightName = sel.Join.Table.Alias
		}
		e.env.Clock.Charge("eva:scan", costScanRowMS*float64(len(right.Rows)))
		joined, err := e.hashJoin(scopes, right, rightName, sel.Join.On)
		if err != nil {
			return nil, err
		}
		scopes = joined
	}

	// 3. WHERE: conjuncts evaluate left-to-right as written (EVA does
	// no reordering; expensive UDFs placed first in the SQL run first).
	var kept []*scope
	for _, sc := range scopes {
		if sel.Where != nil {
			v, err := e.eval(sel.Where, sc, nil)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		kept = append(kept, sc)
	}

	// 4. Projection.
	out := &Table{}
	for _, sc := range kept {
		row := Row{}
		for _, item := range sel.Items {
			if item.Star {
				for _, fr := range sc.frames {
					for k, v := range fr {
						row[k] = v
					}
				}
				continue
			}
			v, err := e.eval(item.Expr, sc, nil)
			if err != nil {
				return nil, err
			}
			// A UDF returning a Row contributes multiple columns
			// (EVA UDFs may return multi-column DataFrames, e.g. the
			// paper's Add1).
			if multi, ok := v.(Row); ok && item.Alias == "" {
				for k, val := range multi {
					row[k] = val
				}
				continue
			}
			name := item.Alias
			if name == "" {
				name = defaultColName(item.Expr)
			}
			row[name] = v
		}
		out.Rows = append(out.Rows, row)
	}
	if len(out.Rows) > 0 {
		for k := range out.Rows[0] {
			out.Cols = append(out.Cols, k)
		}
	}
	return out, nil
}

// hashJoin joins scopes with a table using extracted equi-conjuncts.
func (e *Engine) hashJoin(left []*scope, right *Table, rightName string, on Expr) ([]*scope, error) {
	eqs, residual := equiConjuncts(on)
	var out []*scope
	if len(eqs) == 0 {
		// Nested loop fallback.
		for _, sc := range left {
			for _, rrow := range right.Rows {
				e.env.Clock.Charge("eva:join", costJoinProbeMS)
				merged := mergeScope(sc, rightName, rrow)
				v, err := e.eval(on, merged, nil)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					e.env.Clock.Charge("eva:join", costJoinRowMS)
					out = append(out, merged)
				}
			}
		}
		return out, nil
	}
	// Build side: hash right rows by the equality key tuple.
	build := make(map[string][]Row)
	for _, rrow := range right.Rows {
		sc := &scope{frames: map[string]Row{rightName: rrow}}
		key, ok := joinKey(eqs, sc, e, true)
		if !ok {
			continue
		}
		build[key] = append(build[key], rrow)
	}
	for _, sc := range left {
		key, ok := joinKey(eqs, sc, e, false)
		if !ok {
			continue
		}
		for _, rrow := range build[key] {
			e.env.Clock.Charge("eva:join", costJoinProbeMS)
			merged := mergeScope(sc, rightName, rrow)
			if residual != nil {
				v, err := e.eval(residual, merged, nil)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			e.env.Clock.Charge("eva:join", costJoinRowMS)
			out = append(out, merged)
		}
	}
	return out, nil
}

// equiConjunct is one `a.x = b.y` pair usable for hashing.
type equiConjunct struct{ left, right *ColRef }

// equiConjuncts splits an ON expression into hashable equality pairs and
// a residual expression.
func equiConjuncts(on Expr) ([]equiConjunct, Expr) {
	var eqs []equiConjunct
	var residual Expr
	var walk func(Expr)
	walk = func(ex Expr) {
		if b, ok := ex.(*BinExpr); ok {
			if b.Op == "and" {
				walk(b.Left)
				walk(b.Right)
				return
			}
			if b.Op == "=" {
				lc, lok := b.Left.(*ColRef)
				rc, rok := b.Right.(*ColRef)
				if lok && rok {
					eqs = append(eqs, equiConjunct{lc, rc})
					return
				}
			}
		}
		if residual == nil {
			residual = ex
		} else {
			residual = &BinExpr{Op: "and", Left: residual, Right: ex}
		}
	}
	walk(on)
	return eqs, residual
}

// joinKey computes the concatenated key for the build (right) or probe
// (left) side. For each equality, the side whose reference resolves in
// the scope contributes the value.
func joinKey(eqs []equiConjunct, sc *scope, e *Engine, buildSide bool) (string, bool) {
	var b strings.Builder
	for _, eq := range eqs {
		v, ok := sc.lookup(eq.left)
		if !ok {
			v, ok = sc.lookup(eq.right)
		}
		if !ok {
			return "", false
		}
		fmt.Fprintf(&b, "%v|", v)
	}
	return b.String(), true
}

func mergeScope(sc *scope, name string, row Row) *scope {
	frames := make(map[string]Row, len(sc.frames)+1)
	for k, v := range sc.frames {
		frames[k] = v
	}
	frames[name] = row
	return &scope{frames: frames}
}

// lateralCtx carries state across a lateral invocation (the tracker).
type lateralCtx struct {
	engine  *Engine
	tracker *track.Tracker
}

// eval evaluates an expression. lctx is non-nil only while evaluating
// lateral call arguments.
func (e *Engine) eval(ex Expr, sc *scope, lctx *lateralCtx) (any, error) {
	switch ex := ex.(type) {
	case *Lit:
		return ex.Value, nil
	case *ColRef:
		v, ok := sc.lookup(ex)
		if !ok {
			return nil, fmt.Errorf("sqlbase: unknown column %s", exprString(ex))
		}
		return v, nil
	case *CallExpr:
		fn, ok := e.udfs[ex.Name]
		if !ok {
			return nil, fmt.Errorf("sqlbase: unknown function %q", ex.Name)
		}
		args := make([]any, len(ex.Args))
		for i, a := range ex.Args {
			v, err := e.eval(a, sc, lctx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		// Built-in special forms charge their own costs; user UDFs pay
		// the pandas wrapping toll.
		if ex.Name != "crop" {
			e.env.Clock.Charge("eva:udf_wrap", costUDFWrapMS)
		}
		return fn(e.env, args)
	case *BinExpr:
		switch ex.Op {
		case "and":
			l, err := e.eval(ex.Left, sc, lctx)
			if err != nil {
				return nil, err
			}
			if !truthy(l) {
				return false, nil
			}
			r, err := e.eval(ex.Right, sc, lctx)
			if err != nil {
				return nil, err
			}
			return truthy(r), nil
		case "or":
			l, err := e.eval(ex.Left, sc, lctx)
			if err != nil {
				return nil, err
			}
			if truthy(l) {
				return true, nil
			}
			r, err := e.eval(ex.Right, sc, lctx)
			if err != nil {
				return nil, err
			}
			return truthy(r), nil
		}
		l, err := e.eval(ex.Left, sc, lctx)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(ex.Right, sc, lctx)
		if err != nil {
			return nil, err
		}
		return applyBinOp(ex.Op, l, r)
	}
	return nil, fmt.Errorf("sqlbase: cannot evaluate %T", ex)
}

func truthy(v any) bool {
	switch v := v.(type) {
	case bool:
		return v
	case float64:
		return v != 0
	case string:
		return v != ""
	case nil:
		return false
	}
	return true
}

func applyBinOp(op string, l, r any) (any, error) {
	lf, lIsNum := toFloat(l)
	rf, rIsNum := toFloat(r)
	if lIsNum && rIsNum {
		switch op {
		case "+":
			return lf + rf, nil
		case "-":
			return lf - rf, nil
		case "=":
			return lf == rf, nil
		case "!=":
			return lf != rf, nil
		case ">":
			return lf > rf, nil
		case ">=":
			return lf >= rf, nil
		case "<":
			return lf < rf, nil
		case "<=":
			return lf <= rf, nil
		}
	}
	ls, lok := l.(string)
	rs, rok := r.(string)
	if lok && rok {
		switch op {
		case "=":
			return ls == rs, nil
		case "!=":
			return ls != rs, nil
		case ">":
			return ls > rs, nil
		case "<":
			return ls < rs, nil
		}
	}
	switch op {
	case "=":
		return fmt.Sprint(l) == fmt.Sprint(r), nil
	case "!=":
		return fmt.Sprint(l) != fmt.Sprint(r), nil
	}
	return nil, fmt.Errorf("sqlbase: cannot apply %q to %T and %T", op, l, r)
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	}
	return 0, false
}

func defaultColName(e Expr) string {
	switch e := e.(type) {
	case *ColRef:
		return e.Column
	case *CallExpr:
		return e.Name
	}
	return "col"
}
