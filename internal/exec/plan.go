package exec

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graphstore"
	"repro/internal/relstore"
	"repro/internal/tbql"
)

// propShape encodes which sides of a pattern receive a propagated
// entity-ID constraint in a given hunt wave. It is part of the plan
// template's identity: the same pattern compiles to different templates
// depending on whether its subject, object, both, or neither carry a
// bound set parameter.
type propShape uint8

const (
	propSubj propShape = 1 << iota
	propObj
)

// propagatedShape reports which sides of pat receive a propagated
// entity-ID set when bound reports which entity variables earlier
// scheduled patterns observed. A self-loop pattern (subject and object
// one variable) binds the set on both its srcid and dstid side. The
// hunt's fetch and Explain both derive the shape here, so the template
// Explain shows is the one the hunt binds, unless a set overflows
// MaxPropagatedIDs at run time and its side is left unbound.
func propagatedShape(pat *tbql.EventPattern, bound func(id string) bool) propShape {
	var shape propShape
	if bound(pat.Subj.ID) {
		shape |= propSubj
	}
	if bound(pat.Obj.ID) {
		shape |= propObj
	}
	return shape
}

// patternPlan is one compiled, parameterized data-query template: a
// prepared statement for a (pattern, propagation-shape) pair, plus the
// parameter-slot layout needed to bind a wave's propagated ID sets (and,
// for Cypher, the pattern's window bounds) at execution time. Per-shard
// jobs share one patternPlan and one bound parameter set, so a fan-out
// hunt compiles and parses each pattern at most once — and with a warm
// PlanCache, zero times.
type patternPlan struct {
	backend byte   // 's' SQL, 'c' Cypher
	text    string // executed template text, with $k placeholders
	sql     *relstore.Stmt
	cy      *graphstore.CStmt

	// Parameter slot layout; -1 when the slot is absent from the shape.
	subjSlot, objSlot int
	fromSlot, toSlot  int
	window            *tbql.TimeWindow
}

// compilePlan builds the plan template for a pattern and propagation
// shape: it renders the template text with `$k` placeholders where the
// rendered data query (renderDataQueries) spells out literals, then
// prepares it once. SQL statements are prepared against shard 0 (every
// shard is bootstrapped with identical schemas, so the same Stmt
// executes against any shard's epoch view).
func (en *Engine) compilePlan(pat *tbql.EventPattern, shape propShape, maxHops int) (*patternPlan, error) {
	p := &patternPlan{subjSlot: -1, objSlot: -1, fromSlot: -1, toSlot: -1, window: pat.Window}
	slot := 0
	var extraSQL, extraCy []string
	if shape&propSubj != 0 {
		p.subjSlot = slot
		extraSQL = append(extraSQL, fmt.Sprintf("e.srcid IN $%d", slot))
		extraCy = append(extraCy, fmt.Sprintf("s.id IN $%d", slot))
		slot++
	}
	if shape&propObj != 0 {
		p.objSlot = slot
		extraSQL = append(extraSQL, fmt.Sprintf("e.dstid IN $%d", slot))
		extraCy = append(extraCy, fmt.Sprintf("o.id IN $%d", slot))
		slot++
	}
	if pat.IsPath {
		if en.Graph == nil {
			return nil, fmt.Errorf("exec: pattern %q needs the graph backend", pat.Name)
		}
		winFrom, winTo := "", ""
		if pat.Window != nil {
			p.fromSlot, p.toSlot = slot, slot+1
			winFrom = fmt.Sprintf("$%d", p.fromSlot)
			winTo = fmt.Sprintf("$%d", p.toSlot)
		}
		src := compileCypherWin(pat, extraCy, maxHops, winFrom, winTo)
		st, err := graphstore.PrepareCypher(src)
		if err != nil {
			return nil, fmt.Errorf("exec: preparing cypher for pattern %q: %w", pat.Name, err)
		}
		p.backend, p.cy, p.text = 'c', st, src
		return p, nil
	}
	src := compileSQL(pat, extraSQL)
	st, err := en.Rel.Shard(0).Prepare(src)
	if err != nil {
		return nil, fmt.Errorf("exec: preparing sql for pattern %q: %w", pat.Name, err)
	}
	p.backend, p.sql, p.text = 's', st, src
	return p, nil
}

// bindSQL binds a wave's propagated ID sets to the template's slots.
// Returns nil when the shape has no parameters (the common first-wave
// case), which executes with no binding at all.
func (p *patternPlan) bindSQL(subjIDs, objIDs []int64) *relstore.Params {
	if p.subjSlot < 0 && p.objSlot < 0 {
		return nil
	}
	params := relstore.NewParams()
	if p.subjSlot >= 0 {
		params.BindIDSet(p.subjSlot, subjIDs)
	}
	if p.objSlot >= 0 {
		params.BindIDSet(p.objSlot, objIDs)
	}
	return params
}

// bindCypher binds propagated ID sets and the pattern's window bounds.
func (p *patternPlan) bindCypher(subjIDs, objIDs []int64) *graphstore.CParams {
	if p.subjSlot < 0 && p.objSlot < 0 && p.fromSlot < 0 {
		return nil
	}
	params := graphstore.NewCParams()
	if p.subjSlot >= 0 {
		params.BindIDSet(p.subjSlot, subjIDs)
	}
	if p.objSlot >= 0 {
		params.BindIDSet(p.objSlot, objIDs)
	}
	if p.fromSlot >= 0 {
		params.BindInt(p.fromSlot, p.window.From)
		params.BindInt(p.toSlot, p.window.To)
	}
	return params
}

// planKey is the cache identity of a plan template: the schema
// fingerprint of the stores the plan compiled against, the
// backend-relevant compilation inputs, and the pattern's TBQL normal
// form with the binding name cleared (two hunts naming the same
// pattern differently share one plan). The fingerprint component is
// what makes a cached plan schema-safe: a plan prepared before an
// index or column change can never be looked up after it.
func planKey(pat *tbql.EventPattern, shape propShape, maxHops int, fp uint64) string {
	norm := *pat
	norm.Name = ""
	backend := byte('s')
	if pat.IsPath {
		backend = 'c'
	}
	return fmt.Sprintf("%c|%x|%d|%d|%s", backend, fp, shape, maxHops, tbql.FormatPattern(norm))
}

// lookupPlan resolves a pattern's plan template: from the cross-hunt
// cache when the engine has one (counting per-hunt and cumulative
// hits/misses), compiling on a miss. Without a cache every hunt
// compiles each of its patterns once — still at most one parse per
// pattern per hunt, shared by all its shard jobs. fp is the engine's
// schema fingerprint (schemaFingerprint), part of the cache key.
func (en *Engine) lookupPlan(pat *tbql.EventPattern, shape propShape, maxHops int, fp uint64, stats *Stats) (*patternPlan, error) {
	if en.Plans == nil {
		return en.compilePlan(pat, shape, maxHops)
	}
	key := planKey(pat, shape, maxHops, fp)
	if p := en.Plans.get(key); p != nil {
		stats.PlanCacheHits++
		return p, nil
	}
	p, err := en.compilePlan(pat, shape, maxHops)
	if err != nil {
		return nil, err
	}
	stats.PlanCacheMisses++
	en.Plans.put(key, p)
	return p, nil
}

// DefaultPlanCacheSize is the default PlanCache capacity (plan
// templates, not bytes). A template is a few KB of AST and closures;
// 256 of them cover a large hunt library while staying far below one
// fetched row set's footprint.
const DefaultPlanCacheSize = 256

// PlanCache is a bounded, thread-safe LRU of compiled plan templates
// shared across hunts. The dominant service workload is the same hunts
// re-executed as new data streams in; a warm cache makes their fetch
// phase bind-and-execute with zero lexing, parsing, or plan derivation.
// Keys are pattern normal forms (planKey), so the cache is insensitive
// to pattern naming and formatting.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *planCacheEntry
	items map[string]*list.Element

	// schema is the store fingerprint the cached plans were compiled
	// against (ensureSchema); a change flushes the cache outright so
	// stale templates cannot linger until LRU eviction.
	schema    uint64
	schemaSet bool

	hits, misses atomic.Int64
}

type planCacheEntry struct {
	key  string
	plan *patternPlan
}

// NewPlanCache creates a cache bounded to the given number of plan
// templates. A capacity < 1 returns nil — the "caching disabled"
// engine configuration, which Engine.lookupPlan treats as compile-
// always.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		return nil
	}
	return &PlanCache{cap: capacity, lru: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached plan for a key (promoting it to most recently
// used) or nil, updating the cumulative counters.
func (c *PlanCache) get(key string) *patternPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*planCacheEntry).plan
	}
	c.misses.Add(1)
	return nil
}

// put inserts a plan, evicting the least-recently-used beyond capacity.
func (c *PlanCache) put(key string, p *patternPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planCacheEntry).plan = p
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&planCacheEntry{key: key, plan: p})
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.items, last.Value.(*planCacheEntry).key)
	}
}

// ensureSchema records the store schema fingerprint and flushes every
// cached plan when it has changed since the last call. The fingerprint
// is also part of each plan's key, so a flush is belt-and-braces — it
// reclaims the memory of unreachable stale plans immediately instead
// of waiting for LRU churn.
func (c *PlanCache) ensureSchema(fp uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.schemaSet && c.schema == fp {
		return
	}
	if c.schemaSet {
		c.lru.Init()
		c.items = make(map[string]*list.Element)
	}
	c.schema, c.schemaSet = fp, true
}

// Len reports how many plan templates are cached.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Counters reports the cache's cumulative hit and miss counts — the
// numbers GET /stats surfaces so operators can watch the repeat-hunt
// workload skip compilation.
func (c *PlanCache) Counters() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
