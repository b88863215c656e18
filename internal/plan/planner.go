// Package plan implements the paper's query planner (§4.1, §4.3): it
// compiles a logical query into alternative physical operator DAGs
// (general detector + property filter vs. registered specialized NNs;
// with or without binary-classifier frame filters; alternative instance
// orderings), performs predicate pull-up (cheap, selective filters run
// before expensive models) and operator fusion, profiles every candidate
// on a short canary prefix of the input (cost from the virtual clock, F1
// against the most-general plan's labels), selects the cheapest plan
// meeting the accuracy target, and caches the decision for future runs.
//
// The package also provides the top-level Run entry point that executes
// arbitrary query nodes, combining basic-plan results with the event
// combinators behind DurationQuery, SpatialQuery and TemporalQuery.
package plan

import (
	"fmt"
	"math"
	"sort"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/index"
	"vqpy/internal/models"
	"vqpy/internal/sim"
	"vqpy/internal/store"
	"vqpy/internal/video"
)

// Options configures planning and execution.
type Options struct {
	// Env and Registry are required.
	Env      *models.Env
	Registry *models.Registry

	// AccuracyTarget is the minimum canary F1 (vs. the most general
	// plan) an optimized candidate must reach to be selected
	// (default 0.9).
	AccuracyTarget float64

	// CanaryFrames is the profiling prefix length (default 60).
	CanaryFrames int

	// DisableMemo turns off intrinsic memoization — the "vanilla VQPy"
	// configuration of §5.1.
	DisableMemo bool

	// DisableFrameFilters suppresses registered binary-classifier and
	// differencing frame filters — the EVA-fair configuration of §5.2.
	DisableFrameFilters bool

	// DisableSpecialized suppresses registered specialized NNs.
	DisableSpecialized bool

	// DisableFusion suppresses operator fusion.
	DisableFusion bool

	// DisableLazy computes every needed property before any filter —
	// an ablation approximating run-everything pipelines.
	DisableLazy bool

	// Cache enables query-level computation reuse across executions.
	Cache *exec.SharedCache

	// PlanCache reuses previously selected plans ("saved for future
	// queries on similar datasets", §4.3).
	PlanCache *PlanCache

	// EdgeUplinkMS enables §4.1 device placement: operators before the
	// first detector (frame filters, the scene path) are placed on the
	// edge device, the rest on the server, and every frame surviving
	// the edge prefix is charged this transfer cost. 0 disables
	// placement.
	EdgeUplinkMS float64

	// ResultCache materializes whole query results for reuse across
	// repeated executions on the same video (§4.2's query-level reuse,
	// final-result flavour).
	ResultCache *ResultCache

	// Store enables the tiered persistent result store (internal/store):
	// detector outputs, shared-scan track ids and evaluated property
	// values are consulted before invoking a model and persisted on
	// miss, carrying reuse across processes. Execution executors are
	// bound to it with the video's source name; profiling executors
	// never see it, so plan selection is independent of what happens to
	// be persisted.
	Store *store.Store

	// Index enables the archive-scale appearance index (internal/index):
	// Search probes it for candidate tracks and verifies only the frames
	// they span, falling back to a full rescan of any range the index
	// does not cover. Requires Store — the index is an acceleration
	// structure over archived records, never a source of truth.
	Index *index.Index

	// MinAccuracy is the accuracy floor a fidelity-served query declares
	// (DESIGN.md §12): RunFidelity answers from the cheapest archived
	// fidelity whose calibrated accuracy meets it, live-scanning only the
	// residual. 0 means no budget was declared and is treated as 1.0 —
	// strict answers, so fidelity serving is opt-in per query.
	MinAccuracy float64
}

func (o Options) withDefaults() Options {
	if o.AccuracyTarget == 0 {
		o.AccuracyTarget = 0.9
	}
	if o.CanaryFrames == 0 {
		o.CanaryFrames = 60
	}
	return o
}

// Planner compiles queries into physical plans.
type Planner struct {
	opts Options
}

// NewPlanner returns a planner. Env and Registry are required.
func NewPlanner(opts Options) (*Planner, error) {
	if opts.Env == nil || opts.Registry == nil {
		return nil, fmt.Errorf("plan: Env and Registry are required")
	}
	return &Planner{opts: opts.withDefaults()}, nil
}

// instancePlan captures the per-instance choices of one candidate.
type instancePlan struct {
	instance string
	vtype    *core.VObjType
	detector string
	// specializedColor is the color baked into a chosen specialized
	// detector (satisfying the matching conjunct for free).
	specializedColor video.Color
	frameFilters     []string
}

// candidate is one fully specified plan alternative.
type candidate struct {
	label     string
	order     []instancePlan
	diffFilts []core.FrameFilterReg
}

// PlanBasic compiles a basic (or merged spatial) query. When canary is
// non-nil and more than one candidate exists, candidates are profiled on
// the canary prefix and the cheapest one meeting the accuracy target is
// returned; otherwise the single default plan is returned unprofiled.
// The returned slice holds every candidate (with profiling annotations)
// for explanation tools.
func (pl *Planner) PlanBasic(q *core.Query, canary *video.Video) (*exec.Plan, []*exec.Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	if pl.opts.PlanCache != nil && canary != nil {
		if p, ok := pl.opts.PlanCache.Get(q.Name(), canary.Name); ok {
			return p, []*exec.Plan{p}, nil
		}
	}
	cands, err := pl.candidates(q)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]*exec.Plan, 0, len(cands))
	for _, c := range cands {
		p, err := pl.build(q, c)
		if err != nil {
			return nil, nil, err
		}
		plans = append(plans, p)
	}
	best := plans[0]
	if canary != nil && len(plans) > 1 {
		best, err = pl.selectByProfile(plans, canary)
		if err != nil {
			return nil, nil, err
		}
	}
	if pl.opts.PlanCache != nil && canary != nil {
		pl.opts.PlanCache.Put(q.Name(), canary.Name, best)
	}
	return best, plans, nil
}

// candidates enumerates plan alternatives (§4.3's "generating and
// comparing alternative optimization paths based on the inheritance
// relationships between video objects"). The first candidate is always
// the most general plan, which doubles as the accuracy reference.
func (pl *Planner) candidates(q *core.Query) ([]candidate, error) {
	insts := q.InstanceNames()
	types := q.Instances()

	// Per-instance alternatives: the general detector, plus each
	// registered specialized NN whose color gate matches a conjunct.
	perInst := make([][]instancePlan, len(insts))
	for i, name := range insts {
		t := types[name]
		if t.Name() == "Scene" {
			perInst[i] = []instancePlan{{instance: name, vtype: t, detector: ""}}
			continue
		}
		general := instancePlan{instance: name, vtype: t, detector: t.DetectorName()}
		alts := []instancePlan{general}
		if !pl.opts.DisableSpecialized {
			for _, nn := range t.SpecializedNNs() {
				prof, ok := models.ProfileOf(nn)
				if !ok {
					if m, found := pl.opts.Registry.Get(nn); found {
						if sd, isSim := m.(*models.SimDetector); isSim {
							prof, ok = sd.P, true
						}
					}
				}
				if !ok {
					continue
				}
				alts = append(alts, instancePlan{
					instance: name, vtype: t, detector: nn,
					specializedColor: prof.ColorFilter,
				})
			}
		}
		if !pl.opts.DisableFrameFilters {
			// Each alternative also appears with the registered binary
			// filters prepended.
			if filts := t.Filters(); len(filts) > 0 {
				n := len(alts)
				for j := 0; j < n; j++ {
					withF := alts[j]
					withF.frameFilters = filts
					alts = append(alts, withF)
				}
			}
		}
		perInst[i] = alts
	}

	// Differencing frame filters registered on any instance (usually
	// the Scene VObj).
	var diffs []core.FrameFilterReg
	if !pl.opts.DisableFrameFilters {
		for _, name := range insts {
			diffs = append(diffs, types[name].FrameFilters()...)
		}
	}

	// Cartesian product of per-instance alternatives.
	var combos [][]instancePlan
	var build func(i int, cur []instancePlan)
	build = func(i int, cur []instancePlan) {
		if i == len(perInst) {
			combo := make([]instancePlan, len(cur))
			copy(combo, cur)
			combos = append(combos, combo)
			return
		}
		for _, alt := range perInst[i] {
			build(i+1, append(cur, alt))
		}
	}
	build(0, nil)

	// Instance orderings: both orders for two-instance queries (which
	// path filters frames first), natural order otherwise.
	var cands []candidate
	for ci, combo := range combos {
		orders := [][]instancePlan{combo}
		if len(combo) == 2 {
			orders = append(orders, []instancePlan{combo[1], combo[0]})
		}
		for oi, ord := range orders {
			label := fmt.Sprintf("c%d", ci)
			if oi > 0 {
				label += "r"
			}
			for _, ip := range ord {
				if ip.specializedColor != video.ColorNone {
					label += "+spec:" + ip.instance
				}
				if len(ip.frameFilters) > 0 {
					label += "+filt:" + ip.instance
				}
			}
			withDiff := candidate{label: label, order: ord}
			if len(diffs) > 0 {
				withDiff.diffFilts = diffs
				withDiff.label += "+diff"
			}
			cands = append(cands, withDiff)
			if len(diffs) > 0 {
				// Also keep the variant without the diff filter.
				cands = append(cands, candidate{label: label, order: ord})
			}
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("plan: no candidates for query %s", q.Name())
	}
	return cands, nil
}

// conjunctInfo classifies one conjunct of the frame constraint.
type conjunctInfo struct {
	pred      core.Pred
	instances map[string]bool
	relations map[string]bool
	props     []core.PropRef
	costMS    float64 // cost of the non-builtin props it needs
}

func (pl *Planner) classifyConjuncts(q *core.Query, pred core.Pred) []conjunctInfo {
	var out []conjunctInfo
	types := q.Instances()
	for _, c := range core.ConjunctsOf(pred) {
		props, rels := core.RefsOf(c)
		info := conjunctInfo{
			pred:      c,
			instances: map[string]bool{},
			relations: map[string]bool{},
			props:     props,
		}
		for _, p := range props {
			info.instances[p.Instance] = true
			if t, ok := types[p.Instance]; ok {
				info.costMS += pl.propCost(t, p.Prop, map[string]bool{})
			}
		}
		for _, r := range rels {
			info.relations[r.Relation] = true
		}
		out = append(out, info)
	}
	return out
}

// propCost estimates the virtual cost of computing a property including
// its dependency closure.
func (pl *Planner) propCost(t *core.VObjType, name string, seen map[string]bool) float64 {
	if core.IsBuiltinProp(name) || seen[name] {
		return 0
	}
	seen[name] = true
	p, ok := t.Prop(name)
	if !ok || p == nil {
		return 0
	}
	cost := p.CostHintMS
	if p.Model != "" {
		if prof, found := models.ProfileOf(p.Model); found {
			cost = prof.CostMS
		} else {
			cost = 5 // unknown custom model: assume classifier-scale
		}
	}
	for _, dep := range p.DependsOn {
		cost += pl.propCost(t, dep, seen)
	}
	return cost
}

// build assembles the physical plan for one candidate, applying
// predicate pull-up (filters as early as their inputs allow, cheapest
// property groups first — the lazy evaluation of §5.1) and operator
// fusion.
func (pl *Planner) build(q *core.Query, c candidate) (*exec.Plan, error) {
	types := q.Instances()
	conjuncts := pl.classifyConjuncts(q, q.FrameConstraint())
	videoConjuncts := pl.classifyConjuncts(q, q.VideoConstraint())
	outputSels := q.FrameOutputSelectors()
	relBindings := q.Relations()

	conjunctive := true // top-level And of single-instance/relation conjuncts
	for _, info := range conjuncts {
		if len(info.instances) > 1 && len(info.relations) == 0 {
			conjunctive = conjunctive && false
		}
	}

	var steps []exec.Step

	// Differencing frame filters first (cheapest, frame-level).
	for _, d := range c.diffFilts {
		steps = append(steps, exec.Step{Kind: exec.StepFrameFilter, FilterModel: d.Model})
	}

	// Consumed conjuncts (satisfied by a specialized detector).
	consumed := map[int]bool{}

	// Scene instances run first: their constraints are background
	// properties (day/night) that act as frame filters for every
	// later, more expensive path.
	order := make([]instancePlan, 0, len(c.order))
	for _, ip := range c.order {
		if types[ip.instance].Name() == "Scene" {
			order = append(order, ip)
		}
	}
	for _, ip := range c.order {
		if types[ip.instance].Name() != "Scene" {
			order = append(order, ip)
		}
	}

	for _, ip := range order {
		inst := ip.instance
		t := types[inst]
		isScene := t.Name() == "Scene"

		// Binary-classifier frame filters for this instance.
		for _, f := range ip.frameFilters {
			steps = append(steps, exec.Step{Kind: exec.StepFrameFilter, FilterModel: f})
		}

		if isScene {
			steps = append(steps, exec.Step{Kind: exec.StepScene, Instance: inst})
		} else {
			// Detect + track.
			steps = append(steps, exec.Step{
				Kind: exec.StepDetect, DetectModel: ip.detector,
				Binds: []exec.InstanceBind{{Instance: inst, Class: t.Class()}},
			})
			steps = append(steps, exec.Step{Kind: exec.StepTrack, Instance: inst})
		}

		// Gather this instance's conjuncts, cheapest property groups
		// first; a specialized detector's color gate satisfies the
		// matching color conjunct for free.
		var mine []int
		for i, info := range conjuncts {
			if len(info.instances) == 1 && info.instances[inst] && len(info.relations) == 0 {
				if ip.specializedColor != video.ColorNone && conjunctSatisfiedByColorGate(info.pred, inst, ip.specializedColor) {
					consumed[i] = true
					continue
				}
				mine = append(mine, i)
			}
		}
		sort.SliceStable(mine, func(a, b int) bool {
			return conjuncts[mine[a]].costMS < conjuncts[mine[b]].costMS
		})

		projected := map[string]bool{}
		project := func(prop string) {
			pl.appendProjections(&steps, t, inst, prop, projected)
		}

		if pl.opts.DisableLazy {
			// Ablation: project everything needed first, filter last.
			for _, ci := range mine {
				for _, ref := range conjuncts[ci].props {
					project(ref.Prop)
				}
			}
			for _, ci := range mine {
				steps = append(steps, exec.Step{Kind: exec.StepVObjFilter, FilterPred: conjuncts[ci].pred})
			}
		} else {
			for _, ci := range mine {
				for _, ref := range conjuncts[ci].props {
					project(ref.Prop)
				}
				steps = append(steps, exec.Step{Kind: exec.StepVObjFilter, FilterPred: conjuncts[ci].pred})
			}
		}

		// Remaining properties needed by outputs, relations and the
		// video constraint — computed only on surviving nodes.
		for _, sel := range outputSels {
			if sel.Instance == inst {
				project(sel.Prop)
			}
		}
		for _, info := range videoConjuncts {
			for _, ref := range info.props {
				if ref.Instance == inst {
					project(ref.Prop)
				}
			}
		}

		// Drop frames with no surviving nodes when the constraint is
		// conjunctive and this instance is required (the join-as-
		// frame-filter behaviour of Figure 9).
		if conjunctive && len(mine) > 0 && q.VideoConstraint() == nil {
			steps = append(steps, exec.Step{Kind: exec.StepRequire, RequireInstance: inst})
		}
	}

	// Relation projections and filters.
	relNames := make([]string, 0, len(relBindings))
	for name := range relBindings {
		relNames = append(relNames, name)
	}
	sort.Strings(relNames)
	for _, name := range relNames {
		rb := relBindings[name]
		needed := map[string]bool{}
		for _, info := range conjuncts {
			if info.relations[name] {
				_, rels := core.RefsOf(info.pred)
				for _, r := range rels {
					if r.Relation == name {
						needed[r.Prop] = true
					}
				}
			}
		}
		for _, info := range videoConjuncts {
			if info.relations[name] {
				_, rels := core.RefsOf(info.pred)
				for _, r := range rels {
					if r.Relation == name {
						needed[r.Prop] = true
					}
				}
			}
		}
		props := make([]string, 0, len(needed))
		for p := range needed {
			props = append(props, p)
		}
		sort.Strings(props)
		for _, pname := range props {
			rp, ok := rb.Rel.Prop(pname)
			if !ok {
				return nil, fmt.Errorf("plan: relation %s has no property %s", name, pname)
			}
			steps = append(steps, exec.Step{
				Kind: exec.StepRelProject, Relation: name, RelBind: rb, RelProp: rp,
			})
		}
		// Relation filters: conjuncts over this relation only.
		for i, info := range conjuncts {
			if consumed[i] || !info.relations[name] || len(info.relations) != 1 {
				continue
			}
			ok := true
			for instName := range info.instances {
				if instName != rb.LeftInst && instName != rb.RightInst {
					ok = false
				}
			}
			if ok {
				steps = append(steps, exec.Step{Kind: exec.StepRelFilter, Relation: name, RelPred: info.pred})
			}
		}
	}

	// The final constraint evaluation uses the original query; conjuncts
	// consumed by specialized detectors are rewritten out.
	effQuery := q
	if len(consumed) > 0 {
		var remaining []core.Pred
		for i, info := range conjuncts {
			if !consumed[i] {
				remaining = append(remaining, info.pred)
			}
		}
		effQuery = rewriteConstraint(q, core.And(remaining...))
	}

	p := &exec.Plan{
		Query:       effQuery,
		Steps:       steps,
		DisableMemo: pl.opts.DisableMemo,
		UplinkMS:    pl.opts.EdgeUplinkMS,
		Label:       c.label,
	}
	if pl.opts.EdgeUplinkMS > 0 {
		placeDevices(p.Steps)
	}
	if !pl.opts.DisableFusion {
		p.Steps = Fuse(p.Steps)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: built invalid plan for %s: %w", q.Name(), err)
	}
	return p, nil
}

// appendProjections emits StepProject entries for prop and its
// dependency closure, in dependency order, once per property.
func (pl *Planner) appendProjections(steps *[]exec.Step, t *core.VObjType, inst, prop string, projected map[string]bool) {
	if core.IsBuiltinProp(prop) || projected[prop] {
		return
	}
	p, ok := t.Prop(prop)
	if !ok || p == nil {
		return
	}
	for _, dep := range p.DependsOn {
		pl.appendProjections(steps, t, inst, dep, projected)
	}
	projected[prop] = true
	*steps = append(*steps, exec.Step{Kind: exec.StepProject, Instance: inst, Prop: p})
}

// conjunctSatisfiedByColorGate reports whether a conjunct is exactly a
// color equality that a specialized detector's color gate guarantees.
func conjunctSatisfiedByColorGate(p core.Pred, inst string, gate video.Color) bool {
	cmp, ok := p.(*core.Cmp)
	if !ok || cmp.Op != core.OpEq || cmp.Ref.Instance != inst {
		return false
	}
	s, ok := cmp.Value.(string)
	if !ok {
		return false
	}
	return video.ParseColor(s) == gate && cmp.Ref.Prop == "color"
}

// rewriteConstraint clones q's effective structure with a replaced frame
// constraint (used when a specialized detector consumes a conjunct).
func rewriteConstraint(q *core.Query, newCons core.Pred) *core.Query {
	nq := core.NewQuery(q.Name())
	for name, t := range q.Instances() {
		nq.Use(name, t)
	}
	for name, rb := range q.Relations() {
		nq.UseRelation(name, rb.Rel, rb.LeftInst, rb.RightInst)
	}
	nq.Where(newCons)
	if sels := q.FrameOutputSelectors(); len(sels) > 0 {
		nq.FrameOutput(sels...)
	}
	if vc := q.VideoConstraint(); vc != nil {
		nq.VideoWhere(vc)
	}
	if agg := q.VideoOutput(); agg != nil {
		if agg.Kind == core.AggCountDistinct {
			nq.CountDistinct(agg.Instance)
		} else {
			nq.ListTracks(agg.Instance)
		}
	}
	return nq
}

// placeDevices assigns operators to devices (§4.1): everything before
// the first detector — frame filters and the scene path — runs on the
// edge device (camera); the compute-intensive remainder on the server.
func placeDevices(steps []exec.Step) {
	onEdge := true
	for i := range steps {
		if steps[i].Kind == exec.StepDetect {
			onEdge = false
		}
		if onEdge {
			steps[i].Device = exec.DeviceEdge
		} else {
			steps[i].Device = exec.DeviceServer
		}
	}
}

// Fuse merges adjacent project/filter step runs into fused operators,
// the paper's operator-fusion optimization (reducing per-operator
// iteration overhead and intermediate data).
func Fuse(steps []exec.Step) []exec.Step {
	var out []exec.Step
	i := 0
	for i < len(steps) {
		k := steps[i].Kind
		if k != exec.StepProject && k != exec.StepVObjFilter {
			out = append(out, steps[i])
			i++
			continue
		}
		j := i
		for j < len(steps) && (steps[j].Kind == exec.StepProject || steps[j].Kind == exec.StepVObjFilter) {
			j++
		}
		if j-i == 1 {
			out = append(out, steps[i])
		} else {
			fused := make([]exec.Step, j-i)
			copy(fused, steps[i:j])
			out = append(out, exec.Step{Kind: exec.StepFused, Fused: fused})
		}
		i = j
	}
	return out
}

// selectByProfile runs every candidate on the canary prefix, computes
// cost and F1 against the first (most general) candidate, and returns
// the cheapest candidate meeting the accuracy target (§4.3).
func (pl *Planner) selectByProfile(plans []*exec.Plan, canary *video.Video) (*exec.Plan, error) {
	frames := pl.opts.CanaryFrames
	if frames > len(canary.Frames) {
		frames = len(canary.Frames)
	}
	var refMatched []bool
	best := plans[0]
	bestCost := math.Inf(1)
	for i, p := range plans {
		res, err := pl.profileOne(p, canary, frames)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			refMatched = res.Matched
			p.EstF1 = 1
		} else {
			p.EstF1 = matchedF1(refMatched, res.Matched)
		}
		if p.EstF1 >= pl.opts.AccuracyTarget && p.EstCostMS < bestCost {
			best, bestCost = p, p.EstCostMS
		}
	}
	return best, nil
}

// profileOne runs a candidate plan over the canary prefix on an
// isolated clock (so canary work does not pollute the experiment
// ledger, with the session seed so model noise is identical) and fills
// its cost estimates. Shared by candidate selection and ProfileCost.
func (pl *Planner) profileOne(p *exec.Plan, canary *video.Video, frames int) (*exec.Result, error) {
	profEnv := &models.Env{Clock: sim.NewClock(), Seed: pl.opts.Env.Seed, NoBurn: true}
	ex, err := exec.NewExecutor(exec.Options{
		Env: profEnv, Registry: pl.opts.Registry,
		MaxFrames: frames, SkipHits: true,
	})
	if err != nil {
		return nil, err
	}
	res, err := ex.Run(p, canary)
	if err != nil {
		return nil, err
	}
	p.EstCostMS = res.VirtualMS
	if frames > 0 {
		p.EstPerFrameMS = res.VirtualMS / float64(frames)
	}
	return res, nil
}

// ProfileCost fills a plan's cost estimates (EstCostMS, EstPerFrameMS)
// by running it over the canary prefix on an isolated clock, without
// touching the session ledger. PlanBasic profiles only when several
// candidates compete; the serving layer calls this for single-candidate
// plans so admission control always has a per-frame cost signal.
func (pl *Planner) ProfileCost(p *exec.Plan, canary *video.Video) error {
	frames := pl.opts.CanaryFrames
	if frames > len(canary.Frames) {
		frames = len(canary.Frames)
	}
	if frames == 0 {
		return nil
	}
	_, err := pl.profileOne(p, canary, frames)
	return err
}

// matchedF1 computes frame-level F1 of a candidate's matched vector
// against the reference labels (§4.3's accuracy estimation). When the
// canary prefix contains no reference positives, F1 is undefined; the
// estimator falls back to specificity (1 - FP/frames) so that a single
// spurious frame on an otherwise-empty canary does not zero out an
// entire candidate.
func matchedF1(ref, got []bool) float64 {
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	tp, fp, fn := 0, 0, 0
	for i := 0; i < n; i++ {
		switch {
		case ref[i] && got[i]:
			tp++
		case !ref[i] && got[i]:
			fp++
		case ref[i] && !got[i]:
			fn++
		}
	}
	if tp+fn == 0 {
		if n == 0 {
			return 1
		}
		return 1 - float64(fp)/float64(n)
	}
	if tp == 0 {
		return 0
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * prec * rec / (prec + rec)
}
