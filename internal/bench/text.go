package bench

// Text-query experiment (E23): the language frontend and the lazy
// open-vocabulary verifier (DESIGN.md §13). Two claims gate: the vql
// compiler is exact — every golden sentence compiles onto an IR
// bit-identical to its hand-built query (same chosen plan, same
// open-vocabulary remainder) — and the lazy cascade is cheap without
// being wrong: on a selective workload the verifier is consulted on
// under 10% of the processed frames while the verdicts stay
// bit-identical to the ask-on-every-frame baseline (which holds by
// construction: the verifier is deterministic per frame and question,
// and cascade-rejected frames are false under the conjunction whatever
// it would answer).

import (
	"fmt"
	"slices"

	"vqpy"

	"vqpy/internal/metrics"
)

// textGolden is one golden text query: the sentence, its canonical
// form, and the hand-built cascade the compiler must reproduce.
type textGolden struct {
	text      string
	canonical string
	// hand builds the closed-vocabulary cascade query by hand, under
	// the compiled name ("Text(<canonical>)").
	hand func(name string) *vqpy.Query
	// concepts / minSeconds are the expected open-vocabulary remainder
	// and duration clause.
	concepts   []string
	minSeconds float64
}

// scoreOf is the implicit confidence floor every text query carries.
func scoreOf(inst string) vqpy.Pred {
	return vqpy.P(inst, vqpy.PropScore).Gt(0.5)
}

// textGoldens is the golden suite: each sentence paired with the exact
// query a user would have written by hand against the library.
func textGoldens() []textGolden {
	return []textGolden{
		{
			text: "red car", canonical: "red car",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("car", vqpy.Car()).
					Where(vqpy.And(scoreOf("car"), vqpy.P("car", "color").Eq("red")))
			},
		},
		{
			text: "a red car that is parked near the crosswalk", canonical: "red car stopped on crosswalk",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("car", vqpy.Car()).
					Where(vqpy.And(scoreOf("car"), vqpy.P("car", "color").Eq("red")))
			},
			concepts: []string{"stopped", "on crosswalk"},
		},
		{
			text: "white suv car", canonical: "white suv car",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("car", vqpy.Car()).
					Where(vqpy.And(scoreOf("car"),
						vqpy.P("car", "color").Eq("white"), vqpy.P("car", "kind").Eq("suv")))
			},
		},
		{
			text: "cars faster than 12", canonical: "car faster than 12",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("car", vqpy.Car()).
					Where(vqpy.And(scoreOf("car"), vqpy.P("car", "velocity").Gt(12)))
			},
		},
		{
			text: "truck stopped near crosswalk", canonical: "truck stopped on crosswalk",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("truck", vqpy.Truck()).
					Where(vqpy.And(scoreOf("truck")))
			},
			concepts: []string{"stopped", "on crosswalk"},
		},
		{
			text: "people walking at night", canonical: "person walking at night",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("person", vqpy.Person()).
					Where(vqpy.And(scoreOf("person")))
			},
			concepts: []string{"walking", "at night"},
		},
		{
			text: "person carrying ball", canonical: "person with ball",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("person", vqpy.Person()).
					Where(vqpy.And(scoreOf("person")))
			},
			concepts: []string{"with ball"},
		},
		{
			text: "blue car slower than 2 for 3 seconds", canonical: "blue car slower than 2 for 3 seconds",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("car", vqpy.Car()).
					Where(vqpy.And(scoreOf("car"),
						vqpy.P("car", "color").Eq("blue"), vqpy.P("car", "velocity").Lt(2)))
			},
			minSeconds: 3,
		},
		{
			text: "the suspicious person", canonical: "person suspicious",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("person", vqpy.Person()).
					Where(vqpy.And(scoreOf("person")))
			},
			concepts: []string{"suspicious"},
		},
		{
			text: "bus stopped", canonical: "bus stopped",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("bus", vqpy.Bus()).
					Where(vqpy.And(scoreOf("bus")))
			},
			concepts: []string{"stopped"},
		},
		{
			text: "person hitting ball for 2 seconds", canonical: "person hitting ball for 2 seconds",
			hand: func(name string) *vqpy.Query {
				return vqpy.NewQuery(name).Use("person", vqpy.Person()).
					Where(vqpy.And(scoreOf("person")))
			},
			concepts:   []string{"hitting ball"},
			minSeconds: 2,
		},
	}
}

// textParityWorkload is the selective lazy-vs-eager workload: queries
// whose cheap cascade (color, kind, velocity — all closed-vocabulary)
// rules out most frames, so the lazy verifier budget stays under the
// 10% gate across seeds. Class-only cascades (e.g. bare person
// queries) are deliberately absent: their undecided share is whatever
// fraction of frames the scenario populates, not a planner property.
var textParityWorkload = []string{
	"red car faster than 12 stopped",
	"red suv car faster than 12 stopped",
	"red car faster than 15 stopped",
	"white van car stopped on crosswalk",
	"blue hatchback car stopped",
}

// RunText is the E23 experiment entry point used by vqbench.
func RunText(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(cfg.Seed, 60*cfg.Scale))

	rep := &metrics.Report{
		Title:  "E23: text queries — language frontend with a lazy open-vocabulary verifier",
		Header: []string{"query", "frames", "undecided", "vlm calls", "ratio", "matched", "lazy ms", "eager ms"},
	}

	// Golden identity: each sentence must choose the exact plan of its
	// hand-built query and carry the expected verifier remainder.
	goldens := textGoldens()
	identical := 0
	for _, g := range goldens {
		tq, err := vqpy.CompileText(g.text)
		if err != nil {
			return rep, fmt.Errorf("bench: golden %q failed to compile: %w", g.text, err)
		}
		wantName := "Text(" + g.canonical + ")"
		if tq.Query.Name() != wantName {
			rep.AddNote("golden %q: compiled name %q, want %q", g.text, tq.Query.Name(), wantName)
			continue
		}
		compiled, _, err := cfg.armSession().Explain(tq.Query, v)
		if err != nil {
			return rep, fmt.Errorf("bench: golden %q failed to plan: %w", g.text, err)
		}
		hand, _, err := cfg.armSession().Explain(g.hand(wantName), v)
		if err != nil {
			return rep, fmt.Errorf("bench: golden %q hand query failed to plan: %w", g.text, err)
		}
		if compiled.String() != hand.String() {
			rep.AddNote("golden %q: plan diverged from hand-built\n  compiled: %s\n  hand:     %s",
				g.text, compiled.String(), hand.String())
			continue
		}
		if !slices.Equal(tq.Concepts, g.concepts) || tq.MinSeconds != g.minSeconds {
			rep.AddNote("golden %q: remainder %v/%gs, want %v/%gs",
				g.text, tq.Concepts, tq.MinSeconds, g.concepts, g.minSeconds)
			continue
		}
		identical++
	}

	// Lazy vs eager: identical verdicts, a fraction of the verifier
	// calls. Fresh sessions per run keep the cost accounting isolated;
	// the verifier's answers depend only on (seed, frame, question), so
	// they agree across sessions by construction.
	totalFrames, totalCalls := 0, 0
	lazyMS, eagerMS := 0.0, 0.0
	parity := true
	for _, text := range textParityWorkload {
		lazy, err := cfg.armSession().Text(text, v)
		if err != nil {
			return rep, fmt.Errorf("bench: lazy %q: %w", text, err)
		}
		eager, err := cfg.armSession().Text(text, v, vqpy.WithEagerVerify())
		if err != nil {
			return rep, fmt.Errorf("bench: eager %q: %w", text, err)
		}
		if !slices.Equal(lazy.Matched, eager.Matched) {
			parity = false
			rep.AddNote("parity broken on %q: lazy and eager verdicts diverge", text)
		}
		totalFrames += lazy.Frames
		totalCalls += lazy.VLMCalls
		lazyMS += lazy.VirtualMS
		eagerMS += eager.VirtualMS
		ratio := 0.0
		if lazy.Frames > 0 {
			ratio = float64(lazy.VLMCalls) / float64(lazy.Frames)
		}
		rep.AddRow(text, fmt.Sprint(lazy.Frames), fmt.Sprint(lazy.CascadeMatched),
			fmt.Sprint(lazy.VLMCalls), fmt.Sprintf("%.3f", ratio),
			fmt.Sprint(lazy.MatchedCount()),
			fmt.Sprintf("%.1f", lazy.VirtualMS), fmt.Sprintf("%.1f", eager.VirtualMS))
	}
	ratio := 1.0
	if totalFrames > 0 {
		ratio = float64(totalCalls) / float64(totalFrames)
	}

	rep.SetMetric("text_golden_queries", float64(len(goldens)))
	rep.SetMetric("text_golden_identical", boolMetric(identical == len(goldens)))
	rep.SetMetric("text_parity", boolMetric(parity))
	rep.SetMetric("text_vlm_frame_ratio", ratio)
	rep.SetMetric("text_lazy_cost_ratio", lazyMS/max(eagerMS, 1e-9))

	rep.AddNote("%d/%d golden sentences compiled bit-identical to their hand-built plans",
		identical, len(goldens))
	rep.AddNote("lazy verifier budget: %d calls over %d frames (%.1f%%), %.2fx cheaper than eager",
		totalCalls, totalFrames, 100*ratio, eagerMS/max(lazyMS, 1e-9))
	rep.AddNote("expected shape: the cheap cascade decides >90%% of frames, so the " +
		"high-cost verifier prices like a rare final check, not a per-frame model")

	if len(goldens) < 10 {
		return rep, fmt.Errorf("bench: only %d golden queries, want >= 10", len(goldens))
	}
	if identical != len(goldens) {
		return rep, fmt.Errorf("bench: %d/%d golden sentences diverged from their hand-built plans",
			len(goldens)-identical, len(goldens))
	}
	if !parity {
		return rep, fmt.Errorf("bench: lazy and eager verdicts diverged")
	}
	if ratio > 0.1 {
		return rep, fmt.Errorf("bench: lazy verifier ran on %.1f%% of frames, above the 10%% gate", 100*ratio)
	}
	return rep, nil
}
