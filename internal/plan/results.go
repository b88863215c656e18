package plan

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vqpy/internal/core"
	"vqpy/internal/video"
)

// ResultCache materializes completed query results for reuse when "the
// same video is queried multiple times" (§4.2's query-level computation
// reuse, final-result flavour). Results are keyed by a structural
// fingerprint of the query node plus the video identity, so a repeated
// Execute returns instantly.
type ResultCache struct {
	mu      sync.Mutex
	results map[string]*RunResult
	hits    int
	miss    int
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{results: make(map[string]*RunResult)}
}

// Get returns a cached result.
func (c *ResultCache) Get(key string) (*RunResult, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.results[key]
	if ok {
		c.hits++
	} else {
		c.miss++
	}
	return r, ok
}

// Put stores a result.
func (c *ResultCache) Put(key string, r *RunResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[key] = r
}

// Stats returns (hits, misses).
func (c *ResultCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}

// Fingerprint derives a structural identity for a query node over a
// video: constraints, instances (with their detector models), relations,
// outputs, combinator parameters, and the video name/length. Two nodes
// with equal fingerprints compute identical results under the same
// session seed.
func Fingerprint(node core.QueryNode, v *video.Video) string {
	var b strings.Builder
	fmt.Fprintf(&b, "video=%s#%d@%d|", v.Name, len(v.Frames), v.FPS)
	writeNode(&b, node)
	return b.String()
}

func writeNode(b *strings.Builder, node core.QueryNode) {
	switch n := node.(type) {
	case *core.Query:
		fmt.Fprintf(b, "basic{%s", n.Name())
		for _, inst := range n.InstanceNames() {
			t := n.Instances()[inst]
			fmt.Fprintf(b, ";inst:%s=%s/%s/%s", inst, t.Name(), t.Class(), t.DetectorName())
		}
		rels := n.Relations()
		relNames := make([]string, 0, len(rels))
		for name := range rels {
			relNames = append(relNames, name)
		}
		sort.Strings(relNames) // map order is not deterministic
		for _, name := range relNames {
			rb := rels[name]
			fmt.Fprintf(b, ";rel:%s=%s(%s,%s)", name, rb.Rel.Name(), rb.LeftInst, rb.RightInst)
		}
		if fc := n.FrameConstraint(); fc != nil {
			fmt.Fprintf(b, ";where:%s", fc)
		}
		if vc := n.VideoConstraint(); vc != nil {
			fmt.Fprintf(b, ";vwhere:%s", vc)
		}
		for _, sel := range n.FrameOutputSelectors() {
			fmt.Fprintf(b, ";out:%s", sel)
		}
		if agg := n.VideoOutput(); agg != nil {
			fmt.Fprintf(b, ";agg:%d/%s", agg.Kind, agg.Instance)
		}
		b.WriteString("}")
	case *core.SpatialQuery:
		fmt.Fprintf(b, "spatial{%s;rel=%s;pred=%v;", n.NodeName(), n.Relation.Name(), n.RelPred)
		writeNode(b, n.Left)
		b.WriteString(";")
		writeNode(b, n.Right)
		b.WriteString("}")
	case *core.DurationQuery:
		fmt.Fprintf(b, "duration{%s;min=%g;", n.NodeName(), n.MinSeconds)
		writeNode(b, n.Base)
		b.WriteString("}")
	case *core.TemporalQuery:
		fmt.Fprintf(b, "temporal{%s;win=%g;", n.NodeName(), n.WindowSeconds)
		writeNode(b, n.First)
		b.WriteString(";")
		writeNode(b, n.Second)
		b.WriteString("}")
	default:
		fmt.Fprintf(b, "unknown{%T}", node)
	}
}
