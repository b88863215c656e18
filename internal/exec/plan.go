// Package exec implements the paper's backend execution engine (§4): the
// VObj-centric graph data model, the six operator kinds applied frame by
// frame, sliding-window state for stateful properties, the object-level
// computation reuse of §4.2 (intrinsic property memoization keyed by
// Kalman-tracker identities, plus a detection/classification cache for
// query-level reuse), and the event combinators behind the higher-order
// queries.
//
// The package defines the physical Plan representation; the planner
// (internal/plan) builds and optimizes Plans, then hands them to an
// Executor.
package exec

import (
	"fmt"
	"strings"

	"vqpy/internal/core"
	"vqpy/internal/video"
)

// StepKind enumerates the operator kinds of §4.1 (video reader and
// output projection are implicit in the executor loop).
type StepKind int

// Step kinds. Fused steps come from the operator-fusion optimization.
const (
	StepFrameFilter StepKind = iota
	StepDetect
	StepTrack
	StepProject
	StepVObjFilter
	StepRequire
	StepRelProject
	StepRelFilter
	StepFused
	// StepScene binds the special scene VObj (§3): one node per frame
	// covering the whole frame, carrying background properties.
	StepScene
)

var stepKindNames = [...]string{
	"frame_filter", "detect", "track", "project", "vobj_filter",
	"require", "rel_project", "rel_filter", "fused", "scene",
}

// String implements fmt.Stringer.
func (k StepKind) String() string {
	if k < 0 || int(k) >= len(stepKindNames) {
		return "invalid"
	}
	return stepKindNames[k]
}

// InstanceBind maps a query instance onto a detector output class.
type InstanceBind struct {
	Instance string
	Class    video.Class
}

// Device names for operator placement (§4.1: compute-intensive
// operators on a GPU server, cheap filters on the camera/edge).
const (
	DeviceServer = "server"
	DeviceEdge   = "edge"
)

// Step is one operator in a physical plan. Exactly the fields relevant
// to its Kind are set.
type Step struct {
	Kind StepKind

	// Device places the operator ("edge" or "server"; empty means
	// server). The executor attributes each step's cost to a
	// device:<name> ledger account, and charges the uplink transfer
	// when a frame crosses from edge to server operators.
	Device string

	// FrameFilter: the binary-filter model name.
	FilterModel string

	// Detect: model name and the instances it populates.
	DetectModel string
	Binds       []InstanceBind

	// Project: the property to compute for an instance. Prop is nil
	// for built-ins (which need no projection). Intrinsic properties
	// are memoized unless the plan disables it.
	Instance string
	Prop     *core.Property

	// VObjFilter: a single-instance conjunct evaluated lazily.
	FilterPred core.Pred

	// Require: frame is dropped when the instance has no alive nodes.
	RequireInstance string

	// RelProject / RelFilter.
	Relation string
	RelBind  *core.RelBinding
	RelProp  *core.RelProperty
	RelPred  core.Pred

	// Fused: the sub-steps executed as one operator.
	Fused []Step
}

// String renders a step compactly for plan explanations.
func (s Step) String() string {
	switch s.Kind {
	case StepFrameFilter:
		return fmt.Sprintf("frame_filter(%s)", s.FilterModel)
	case StepDetect:
		insts := make([]string, len(s.Binds))
		for i, b := range s.Binds {
			insts[i] = b.Instance
		}
		return fmt.Sprintf("detect(%s → %s)", s.DetectModel, strings.Join(insts, ","))
	case StepTrack:
		return fmt.Sprintf("track(%s)", s.Instance)
	case StepProject:
		name := "?"
		if s.Prop != nil {
			name = s.Prop.Name
		}
		return fmt.Sprintf("project(%s.%s)", s.Instance, name)
	case StepVObjFilter:
		return fmt.Sprintf("vobj_filter(%s)", s.FilterPred)
	case StepRequire:
		return fmt.Sprintf("require(%s)", s.RequireInstance)
	case StepRelProject:
		return fmt.Sprintf("rel_project(%s.%s)", s.Relation, s.RelProp.Name)
	case StepRelFilter:
		return fmt.Sprintf("rel_filter(%s)", s.RelPred)
	case StepFused:
		parts := make([]string, len(s.Fused))
		for i, f := range s.Fused {
			parts[i] = f.String()
		}
		return "fused[" + strings.Join(parts, "; ") + "]"
	case StepScene:
		return fmt.Sprintf("scene(%s)", s.Instance)
	}
	return "invalid"
}

// Plan is a physical execution plan for one basic (or merged spatial)
// query.
type Plan struct {
	// Query is the logical query the plan implements.
	Query *core.Query

	// Steps execute in order for every frame.
	Steps []Step

	// DisableMemo turns off intrinsic memoization (the "vanilla VQPy"
	// configuration of §5.1).
	DisableMemo bool

	// UplinkMS is the per-frame transfer cost charged when a frame
	// survives the edge-placed prefix and must be shipped to the
	// server (0 disables device accounting entirely).
	UplinkMS float64

	// Label identifies the plan variant in profiling output.
	Label string

	// ScanSuffix decorates the plan's scan signature (ScanSig.Suffix)
	// for non-default scan fidelities: archive passes at a reduced
	// fidelity set it to the fidelity key so their records never collide
	// with the full-fidelity archive of the same prefix.
	ScanSuffix string

	// EstCostMS and EstF1 are filled by the planner's canary
	// profiling.
	EstCostMS float64
	EstF1     float64
	// EstPerFrameMS is EstCostMS divided by the profiled frame count:
	// the per-frame virtual cost estimate the serving layer admits
	// queries against.
	EstPerFrameMS float64
}

// String renders the whole plan, one step per line.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s (query %s", p.Label, p.Query.Name())
	if p.DisableMemo {
		b.WriteString(", memo off")
	}
	b.WriteString(")\n")
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  %2d. %s\n", i, s.String())
	}
	return b.String()
}

// Validate performs structural checks: detectors before projections,
// tracking before stateful projections, projections before the filters
// that read them.
func (p *Plan) Validate() error {
	if p.Query == nil {
		return fmt.Errorf("exec: plan without query")
	}
	detected := map[string]bool{}
	tracked := map[string]bool{}
	projected := map[string]bool{} // "inst.prop"
	var walk func(steps []Step) error
	walk = func(steps []Step) error {
		for _, s := range steps {
			switch s.Kind {
			case StepDetect:
				for _, b := range s.Binds {
					detected[b.Instance] = true
				}
			case StepScene:
				detected[s.Instance] = true
				tracked[s.Instance] = true // the scene is its own track
			case StepTrack:
				if !detected[s.Instance] {
					return fmt.Errorf("exec: track %s before its detector", s.Instance)
				}
				if tracked[s.Instance] {
					return fmt.Errorf("exec: instance %s tracked twice", s.Instance)
				}
				tracked[s.Instance] = true
			case StepProject:
				if !detected[s.Instance] {
					return fmt.Errorf("exec: project %s before its detector", s.Instance)
				}
				if s.Prop != nil {
					if s.Prop.Stateful && !tracked[s.Instance] {
						return fmt.Errorf("exec: stateful projection %s.%s without tracking", s.Instance, s.Prop.Name)
					}
					projected[s.Instance+"."+s.Prop.Name] = true
				}
			case StepVObjFilter:
				props, _ := core.RefsOf(s.FilterPred)
				for _, ref := range props {
					if !detected[ref.Instance] {
						return fmt.Errorf("exec: filter on undetected instance %s", ref.Instance)
					}
					if !core.IsBuiltinProp(ref.Prop) && !projected[ref.Instance+"."+ref.Prop] {
						return fmt.Errorf("exec: filter reads unprojected %s.%s", ref.Instance, ref.Prop)
					}
				}
			case StepRequire:
				if !detected[s.RequireInstance] {
					return fmt.Errorf("exec: require on undetected instance %s", s.RequireInstance)
				}
			case StepRelProject:
				if s.RelBind == nil || s.RelProp == nil {
					return fmt.Errorf("exec: rel_project missing binding")
				}
				if !detected[s.RelBind.LeftInst] || !detected[s.RelBind.RightInst] {
					return fmt.Errorf("exec: rel_project before participant detectors")
				}
			case StepFused:
				if err := walk(s.Fused); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(p.Steps)
}
