package exec

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/graphstore"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/snapshot"
	"repro/internal/tbql"
)

// Engine executes TBQL queries against the two storage backends. Both
// backends are host-sharded (a 1-shard store is the unsharded case):
// per-pattern data queries fan out across the shards the pattern's host
// constraints allow and the shard results are merged, in shard order,
// before the join.
type Engine struct {
	Rel   *relstore.Sharded
	Graph *graphstore.Sharded

	// MaxPathHops caps unbounded path patterns (default DefaultMaxHops).
	MaxPathHops int
	// DisableScheduling executes patterns in textual order instead of
	// pruning-score order (ablation baseline).
	DisableScheduling bool
	// DisablePropagation turns off constraint propagation between
	// patterns connected by shared entities (ablation baseline).
	DisablePropagation bool
	// DisableCostOptimizer turns off selectivity-driven join reordering
	// and fetch-side row caps, keeping the static pruning-score order
	// (escape hatch and ablation baseline). The engine also falls back
	// to the static order automatically whenever the stores lack the
	// stats to estimate every pattern.
	DisableCostOptimizer bool
	// MaxPropagatedIDs bounds the size of a propagated constraint set;
	// larger candidate sets are not propagated (default
	// DefaultMaxPropagatedIDs) and are counted in
	// Stats.PropagationsSkipped. On the prepared-plan pipeline a
	// propagated set is a bound []int64 parameter probed per row — not
	// a rendered IN-list that must be re-lexed — so the default is 50×
	// the old text-pipeline cap and overflow is rare.
	MaxPropagatedIDs int
	// Plans is the cross-hunt prepared-plan cache (NewPlanCache); nil
	// compiles each hunt's plans without caching them.
	Plans *PlanCache
	// Clock, when set, names each cursor's pinned snapshot with the
	// store's current ingest epoch (Cursor.Epoch). A nil clock leaves
	// every cursor at epoch 0; snapshots still work — the epoch number
	// is bookkeeping for the server-side cursor registry, the watermark
	// vectors in the captured views are what bound visibility.
	Clock *snapshot.Clock
	// DisableTracing stops the engine from recording a pipeline trace
	// for cursors whose caller did not supply one. Tracing is on by
	// default — the span slice is preallocated and every record is two
	// clock reads under a short mutex — so this exists as the A/B knob
	// for the tracing-overhead benchmark and as an escape hatch.
	DisableTracing bool
	// MaxJoinRows bounds how many candidate rows one hunt's join may
	// examine (Stats.JoinCandidates); 0 means unbounded. A hunt that
	// exceeds it aborts with ErrJoinBudget — a terminal error that
	// releases the snapshot — so a cross-product-shaped query cannot
	// pin a core indefinitely.
	MaxJoinRows int

	// attrsMu guards the projection attribute cache below, so concurrent
	// hunts share one cache instead of racing on it.
	attrsMu sync.Mutex
	// attrRows caches entity attributes for projection, indexed by
	// entity ID - 1 (IDs are dense, assigned from 1 in insertion order).
	// The slice is append-only, so snapshots handed to cursors stay
	// valid as it grows; attrsRows is the entity-table row count already
	// cached.
	attrRows  []map[string]string
	attrsRows int

	// rowBufs recycles the per-shard fetch buffers of multi-shard
	// patterns across waves and hunts. Only intermediates are pooled:
	// a single-shard pattern's buffer becomes the merged row list and
	// lives as long as its cursor.
	rowBufs sync.Pool
}

// DefaultMaxPropagatedIDs is the default cap on a propagated entity-ID
// constraint set: 50× the old text-pipeline default of 512. Rendered
// IN-lists made large sets expensive to emit and re-parse; a bound set
// parameter costs O(1) per probed row, so the cap now exists only to
// bound the memory of a pathological propagation, not its CPU.
const DefaultMaxPropagatedIDs = 25600

// EventRow is one event fetched for a pattern.
type EventRow struct {
	EventID int64
	SrcID   int64
	DstID   int64
	Start   int64
	End     int64
	Amount  int64
}

// Match is one complete binding of all patterns: event rows by pattern
// name and entity IDs by entity variable.
type Match struct {
	Events   map[string]EventRow
	Entities map[string]int64
}

// Stats describes how a query executed.
type Stats struct {
	// DataQueries lists the executed data queries as human-readable
	// SQL/Cypher text, in scheduled order. It is rendered lazily —
	// populated on Execute results and by Cursor.DataQueries(), never
	// on the hot hunt path: the engine records compact per-pattern refs
	// (pattern index + bound propagation sets) and only materializes
	// text when someone actually asks.
	DataQueries  []string
	RowsFetched  int
	Propagations int // number of propagated constraint sets injected
	// PropagationsSkipped counts shared-entity constraints that were NOT
	// injected because the candidate set exceeded MaxPropagatedIDs — the
	// signal that a hunt fell back to fetching an unconstrained table.
	PropagationsSkipped int
	ShortCircuit        bool
	// PlanCacheHits/Misses count this hunt's plan-template resolutions
	// against the engine's cross-hunt PlanCache: a warm repeat hunt is
	// all hits and compiles nothing. Both stay 0 when the engine has no
	// cache.
	PlanCacheHits   int
	PlanCacheMisses int
	// JoinCandidates counts candidate rows examined during the join.
	// With the streaming executor this grows as the cursor is drained;
	// a partially read cursor reports the work done so far.
	JoinCandidates int
	// ShardFetches counts per-shard data-query executions: an unpruned
	// pattern costs one fetch per shard, while a pattern carrying a
	// `host = '...'` constraint is pruned to that host's shard and costs
	// one. Compare against len(DataQueries) × shard count to see how
	// much fetch work shard pruning saved.
	ShardFetches int
	// CostBased reports that the cost-based optimizer ordered this
	// hunt's patterns from cardinality estimates; false means the
	// static pruning-score order ran (optimizer disabled, or stats
	// unavailable for some pattern).
	CostBased bool
	// Reordered reports that the cost-based order actually differed
	// from the static order — the hunts where the optimizer changed
	// the anchor the streaming join builds on.
	Reordered bool
	// FetchCapped reports that a row cap was pushed into the per-shard
	// data queries (single-pattern hunt with a page-bounded cursor):
	// the fetch stopped at the cap instead of materializing the full
	// table. A capped cursor covers exactly its requested page window
	// and cannot page past it.
	FetchCapped bool

	// dq holds the executed data queries in compact, unrendered form —
	// the raw material Cursor.DataQueries() and Execute turn into the
	// DataQueries text on demand.
	dq []dataQueryRef
}

// dataQueryRef is one executed data query in unrendered form: the
// pattern it compiled from plus the propagated ID sets that were bound
// for its wave. Rendering it spells the bound sets out as IN-lists.
type dataQueryRef struct {
	pi              int
	subjIDs, objIDs []int64
}

// Result is a TBQL query result.
type Result struct {
	Cols    []string
	Rows    [][]string
	Matches []Match
	Stats   Stats
}

// fetchWorkers bounds how many independent per-pattern data queries one
// hunt runs concurrently within a propagation wave.
const fetchWorkers = 4

// Execute runs an analyzed TBQL query and materializes every projected
// row in Result.Rows by draining a cursor, so projection and DISTINCT
// semantics live in one place. For large match sets, ExecuteCursor
// streams the projection instead and does only as much join work as the
// caller consumes.
func (en *Engine) Execute(q *tbql.Query) (*Result, error) {
	c, err := en.ExecuteCursor(nil, q, 0, nil)
	if err != nil {
		return nil, err
	}
	c.collectMatches = true
	res := &Result{Cols: c.cols}
	for c.Next() {
		res.Rows = append(res.Rows, c.Row())
	}
	res.Matches = c.matches
	// Execute is the materializing API, so it also materializes the
	// data-query text; cursor hunts leave it unrendered unless
	// Cursor.DataQueries is called.
	c.DataQueries()
	res.Stats = c.Stats()
	err = c.Err()
	c.Close()
	return res, err
}

// schedule orders pattern indexes by pruning score (descending), stable
// to keep textual order among ties.
func (en *Engine) schedule(q *tbql.Query, maxHops int) []int {
	order := make([]int, len(q.Patterns))
	for i := range order {
		order[i] = i
	}
	if !en.DisableScheduling {
		sort.SliceStable(order, func(a, b int) bool {
			return PruningScore(&q.Patterns[order[a]], maxHops) > PruningScore(&q.Patterns[order[b]], maxHops)
		})
	}
	return order
}

// shardPlan maps each pattern's host constraints (tbql analysis) to the
// store shards its data query must visit: SQL patterns visit relational
// shards, path patterns visit graph shards. An unconstrained pattern
// visits every shard; a `host = '...'` constraint prunes to that host's
// shard; contradictory constraints yield an empty list (the pattern
// cannot match anywhere). The returned relShards/graphShards are the
// sorted unions the cursor's snapshot must pin.
func (en *Engine) shardPlan(q *tbql.Query) (patShards [][]int, relShards, graphShards []int) {
	info := q.Info()
	patShards = make([][]int, len(q.Patterns))
	relSet, graphSet := map[int]bool{}, map[int]bool{}
	for i := range q.Patterns {
		isPath := q.Patterns[i].IsPath
		n := en.Rel.NumShards()
		if isPath && en.Graph != nil {
			n = en.Graph.NumShards()
		}
		var shards []int
		if hosts := info.PatternHosts[i]; hosts == nil {
			shards = make([]int, n)
			for s := range shards {
				shards[s] = s
			}
		} else {
			seen := map[int]bool{}
			for _, h := range hosts {
				s := audit.ShardIndex(h, n)
				if !seen[s] {
					seen[s] = true
					shards = append(shards, s)
				}
			}
			sort.Ints(shards)
		}
		patShards[i] = shards
		for _, s := range shards {
			if isPath {
				graphSet[s] = true
			} else {
				relSet[s] = true
			}
		}
	}
	for s := range relSet {
		relShards = append(relShards, s)
	}
	for s := range graphSet {
		graphShards = append(graphShards, s)
	}
	sort.Ints(relShards)
	sort.Ints(graphShards)
	return patShards, relShards, graphShards
}

// storeView is the epoch snapshot one cursor pins: per-touched-shard
// relational views (append watermarks over the append-only tables),
// per-touched-shard graph epoch marks, and shard 0's entity-table view
// — the broadcast entity set the projection attribute cache reads. A
// storeView holds no locks: writers keep committing while it is held,
// and everything committed after capture is beyond its watermarks and
// therefore invisible through it.
type storeView struct {
	epoch snapshot.Epoch
	rel   map[int]*relstore.View
	graph map[int]uint64
	ent   *relstore.TableView
}

// snapshotStores captures the epoch snapshot across the store shards
// one hunt touches. Capture order is what makes the cut referentially
// closed: every non-zero relational shard's view first (each view
// internally captures events before entities), then the touched graph
// marks, then shard 0 last. Entities commit to every shard — shard 0
// included — before any of a batch's events or edges commit anywhere,
// so capturing shard 0's entity table after every other event watermark
// guarantees each visible event's endpoint entities are visible in the
// attribute cache's source table. Nothing is locked beyond the
// per-table header reads, so concurrent hunts and ingests never queue
// behind a snapshot.
func (en *Engine) snapshotStores(relShards, graphShards []int) (*storeView, error) {
	sv := &storeView{
		rel:   make(map[int]*relstore.View, len(relShards)),
		graph: make(map[int]uint64, len(graphShards)),
	}
	if en.Clock != nil {
		sv.epoch = en.Clock.Current()
	}
	shard0Touched := false
	for _, s := range relShards {
		if s == 0 {
			shard0Touched = true
			continue
		}
		sv.rel[s] = en.Rel.Shard(s).View()
	}
	if en.Graph != nil {
		for _, s := range graphShards {
			sv.graph[s] = en.Graph.Shard(s).Mark()
		}
	}
	if shard0Touched {
		sv.rel[0] = en.Rel.Shard(0).View()
		sv.ent = sv.rel[0].Table(relstore.EntityTable)
	} else {
		sv.ent = en.Rel.Shard(0).TableView(relstore.EntityTable)
	}
	if sv.ent == nil {
		return nil, fmt.Errorf("exec: no table %q", relstore.EntityTable)
	}
	return sv, nil
}

// sharesEntity reports whether two patterns reference a common entity
// variable (the condition under which propagation chains their fetches).
func sharesEntity(q *tbql.Query, a, b int) bool {
	pa, pb := &q.Patterns[a], &q.Patterns[b]
	return pa.Subj.ID == pb.Subj.ID || pa.Subj.ID == pb.Obj.ID ||
		pa.Obj.ID == pb.Subj.ID || pa.Obj.ID == pb.Obj.ID
}

// fetchSpec bundles the resolved execution parameters one fetch phase
// runs under: the scheduled pattern order, the host-constraint shard
// plan, the hop/propagation limits, the schema fingerprint plan
// lookups key on, and an optional per-shard row cap (0 = uncapped)
// pushed into the data queries when the caller proved it safe
// (fetchCapSafe plus a page-bounded cursor).
type fetchSpec struct {
	order     []int
	patShards [][]int
	maxHops   int
	maxProp   int
	fp        uint64
	rowCap    int
	// tr/span, when set, record per-wave and per-shard-job spans under
	// the caller's "fetch" span (span is its index in tr).
	tr   *obs.Trace
	span int
	// ctx, when set, is the hunt's lifecycle context: it is polled at
	// every wave boundary and before each shard job starts, so a
	// cancelled or timed-out hunt stops fanning out data queries.
	ctx context.Context
}

// fetchPatterns runs the per-pattern data queries in scheduled order
// with constraint propagation, filling stats. Patterns whose fetch does
// not depend on an earlier pattern's observed IDs (no shared entity
// variable, or propagation disabled) are grouped into waves; within a
// wave, each pattern expands into one fetch job per shard it must visit
// (spec.patShards, from the host-constraint shard plan) and the jobs
// run concurrently on a small worker pool. A pattern's shard results
// merge in shard order, so the merged row list is deterministic, and
// propagation state updates deterministically between waves, in
// scheduled order. Every data query runs against the cursor's epoch
// snapshot (sv): rows committed after the snapshot was captured are
// beyond its watermarks and invisible, so the fetch needs no held
// locks. On a short-circuit (some pattern fetched zero rows across all
// its shards, or its host constraints are contradictory) it returns nil
// rows with stats.ShortCircuit set.
func (en *Engine) fetchPatterns(q *tbql.Query, sv *storeView, spec fetchSpec, stats *Stats) ([][]EventRow, error) {
	order, patShards := spec.order, spec.patShards
	maxHops, maxProp := spec.maxHops, spec.maxProp
	// Partition scheduled positions into dependency waves.
	waveOf := make([]int, len(order))
	nWaves := 0
	for k := range order {
		w := 0
		if !en.DisablePropagation {
			for j := 0; j < k; j++ {
				if sharesEntity(q, order[j], order[k]) && waveOf[j]+1 > w {
					w = waveOf[j] + 1
				}
			}
		}
		waveOf[k] = w
		if w+1 > nWaves {
			nWaves = w + 1
		}
	}
	waves := make([][]int, nWaves)
	for k := range order {
		waves[waveOf[k]] = append(waves[waveOf[k]], k)
	}

	rows := make([][]EventRow, len(q.Patterns))
	known := map[string]map[int64]bool{} // entity var -> observed IDs
	dqRefs := make([]*dataQueryRef, len(order))
	setQueries := func() {
		for _, ref := range dqRefs {
			if ref != nil {
				stats.dq = append(stats.dq, *ref)
			}
		}
	}

	// sawEmpty is set as soon as some pattern is known to fetch zero
	// rows — every shard of it came back empty, or its host constraints
	// are contradictory: the hunt is short-circuiting, so queued fetches
	// are skipped instead of started (in-flight ones run to completion).
	// The single-shard sequential case keeps the legacy behavior
	// exactly: nothing after the empty pattern executes.
	var sawEmpty atomic.Bool
	for _, wave := range waves {
		if ctxDone(spec.ctx) {
			return nil, huntErr(spec.ctx)
		}
		// One span per dependency wave; its children are the shard jobs
		// that actually executed, named by pattern. The trace mutex makes
		// the concurrent job appends safe.
		waveSp := spec.tr.Begin("wave", spec.span)
		// Resolve this wave's plans and propagation sets sequentially so
		// propagation stats and bound sets are deterministic, then expand
		// each pattern into one job per shard its host constraints allow.
		// All of a pattern's shard jobs share one plan and one parameter
		// binding: nothing is compiled, parsed, or rendered per shard.
		works := make([]*patWork, 0, len(wave))
		var jobs []*shardJob
		for _, pos := range wave {
			pi := order[pos]
			pat := &q.Patterns[pi]
			// Propagated constraints go on the event table's own
			// srcid/dstid columns (equivalent to s.id/o.id through the
			// join equalities), where the hash indexes can drive the
			// set lookup directly.
			var subjIDs, objIDs []int64
			if !en.DisablePropagation {
				propSet := func(id string) []int64 {
					set := known[id]
					if len(set) > maxProp {
						stats.PropagationsSkipped++
						return nil
					}
					stats.Propagations++
					return sortedIDs(set)
				}
				sides := propagatedShape(pat, func(id string) bool { return len(known[id]) > 0 })
				if sides&propSubj != 0 {
					subjIDs = propSet(pat.Subj.ID)
				}
				if sides&propObj != 0 {
					objIDs = propSet(pat.Obj.ID)
				}
			}
			if pat.IsPath && en.Graph == nil {
				return nil, fmt.Errorf("exec: pattern %q needs the graph backend", pat.Name)
			}
			w := &patWork{pos: pos, pi: pi}
			if len(patShards[pi]) == 0 {
				// Contradictory host constraints: the pattern cannot match
				// on any shard, so its query never executes.
				sawEmpty.Store(true)
				works = append(works, w)
				continue
			}
			dqRefs[pos] = &dataQueryRef{pi: pi, subjIDs: subjIDs, objIDs: objIDs}
			// A set dropped for exceeding maxProp leaves its side unbound.
			var shape propShape
			if subjIDs != nil {
				shape |= propSubj
			}
			if objIDs != nil {
				shape |= propObj
			}
			plan, err := en.lookupPlan(pat, shape, maxHops, spec.fp, stats)
			if err != nil {
				return nil, err
			}
			var sqlParams *relstore.Params
			var cyParams *graphstore.CParams
			if pat.IsPath {
				cyParams = plan.bindCypher(subjIDs, objIDs)
			} else {
				sqlParams = plan.bindSQL(subjIDs, objIDs)
			}
			for _, sh := range patShards[pi] {
				j := &shardJob{pi: pi, shard: sh, isPath: pat.IsPath, plan: plan,
					sqlParams: sqlParams, cyParams: cyParams, rowCap: spec.rowCap, work: w}
				w.jobs = append(w.jobs, j)
				jobs = append(jobs, j)
			}
			w.pending.Store(int32(len(w.jobs)))
			works = append(works, w)
		}

		// Run the wave: inline when it is a single query (the common case
		// once propagation chains patterns on a 1-shard store), else
		// through the pool.
		run := func(j *shardJob) {
			if sawEmpty.Load() || ctxDone(spec.ctx) {
				j.skipped = true
			} else {
				jobSp := spec.tr.Begin(q.Patterns[j.pi].Name, waveSp)
				defer spec.tr.EndNote(jobSp, shardNote(j.shard))
				if len(j.work.jobs) > 1 {
					// Multi-shard intermediates are merged then retired, so
					// their buffers recycle across waves and hunts. A
					// single-shard fetch IS the merged list and lives as
					// long as the cursor — it gets a fresh, exactly sized
					// buffer instead.
					j.fetched = en.getRowBuf()
				}
				if j.isPath {
					j.fetchGraph(en.Graph.Shard(j.shard), sv.graph[j.shard])
				} else {
					j.fetchRel(sv.rel[j.shard])
				}
			}
			w := j.work
			if j.err == nil && !j.skipped {
				w.total.Add(int32(len(j.fetched)))
			}
			if w.pending.Add(-1) == 0 && j.err == nil && !j.skipped && w.total.Load() == 0 {
				// Every shard of this pattern fetched nothing: the hunt is
				// short-circuiting.
				sawEmpty.Store(true)
			}
		}
		if len(jobs) == 1 {
			run(jobs[0])
		} else {
			sem := make(chan struct{}, fetchWorkers)
			var wg sync.WaitGroup
			for _, j := range jobs {
				wg.Add(1)
				sem <- struct{}{}
				go func(j *shardJob) {
					defer wg.Done()
					defer func() { <-sem }()
					run(j)
				}(j)
			}
			wg.Wait()
		}

		// A context that fired mid-wave left some jobs skipped, so the
		// wave's row state is incomplete and must not fold into the
		// propagation state: retire the pooled shard buffers and abort.
		if ctxDone(spec.ctx) {
			retireWave(en, works)
			spec.tr.EndNote(waveSp, "cancelled")
			return nil, huntErr(spec.ctx)
		}

		// Fold results back in scheduled order: errors first, then
		// per-pattern shard merges (shard order, so the merged list is
		// deterministic), row accounting, short-circuit, and
		// propagation-state updates. Patterns none of whose jobs
		// executed leave Stats.DataQueries (which lists executed
		// queries only).
		shortCircuit := false
		for _, w := range works {
			if len(w.jobs) == 0 { // contradictory host constraints
				shortCircuit = true
				continue
			}
			executed := false
			for _, j := range w.jobs {
				if j.err != nil {
					retireWave(en, works)
					return nil, fmt.Errorf("exec: pattern %q: %w", q.Patterns[w.pi].Name, j.err)
				}
				if j.skipped {
					continue
				}
				executed = true
				stats.ShardFetches++
			}
			if !executed {
				dqRefs[w.pos] = nil
				continue
			}
			var merged []EventRow
			if len(w.jobs) == 1 {
				merged = w.jobs[0].fetched
			} else {
				// Merge into an exactly sized list (the per-job row counts
				// are already totalled) and retire the shard buffers.
				merged = make([]EventRow, 0, int(w.total.Load()))
				for _, j := range w.jobs {
					if j.skipped {
						continue
					}
					merged = append(merged, j.fetched...)
					en.putRowBuf(j.fetched)
					j.fetched = nil
				}
			}
			rows[w.pi] = merged
			stats.RowsFetched += len(merged)
			if len(merged) == 0 {
				shortCircuit = true
			}
		}
		if shortCircuit || sawEmpty.Load() {
			// A pattern with no matches empties the whole result.
			stats.ShortCircuit = true
			setQueries()
			spec.tr.EndNote(waveSp, "short_circuit")
			return nil, nil
		}
		for _, w := range works {
			pat := &q.Patterns[w.pi]
			n := len(rows[w.pi])
			newSubj, newObj := make(map[int64]bool, n), make(map[int64]bool, n)
			for _, r := range rows[w.pi] {
				newSubj[r.SrcID] = true
				newObj[r.DstID] = true
			}
			known[pat.Subj.ID] = intersectOrNew(known[pat.Subj.ID], newSubj)
			known[pat.Obj.ID] = intersectOrNew(known[pat.Obj.ID], newObj)
		}
		spec.tr.End(waveSp)
	}
	setQueries()
	return rows, nil
}

// shardNotes holds the span annotations for the common shard indexes so
// traced fetches on small stores allocate nothing per job.
var shardNotes = [...]string{
	"shard 0", "shard 1", "shard 2", "shard 3",
	"shard 4", "shard 5", "shard 6", "shard 7",
}

func shardNote(sh int) string {
	if sh >= 0 && sh < len(shardNotes) {
		return shardNotes[sh]
	}
	return "shard " + strconv.Itoa(sh)
}

// getRowBuf pulls a recycled fetch buffer (nil when the pool is empty —
// the fetch then allocates one exactly sized to its result).
func (en *Engine) getRowBuf() []EventRow {
	if v, ok := en.rowBufs.Get().(*[]EventRow); ok {
		return (*v)[:0]
	}
	return nil
}

// putRowBuf retires a merged-away shard buffer for reuse.
func (en *Engine) putRowBuf(b []EventRow) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	en.rowBufs.Put(&b)
}

// retireWave returns a wave's pooled multi-shard fetch buffers after an
// abort (cancellation or a shard-job error), so the interrupted fetch
// does not strand them outside the pool. Only multi-shard patterns pull
// from the pool (single-shard fetches allocate exactly sized buffers),
// and all jobs are quiescent by the time this runs — the wave's
// WaitGroup has been awaited.
func retireWave(en *Engine, works []*patWork) {
	for _, w := range works {
		if len(w.jobs) <= 1 {
			continue
		}
		for _, j := range w.jobs {
			if j.fetched != nil {
				en.putRowBuf(j.fetched)
				j.fetched = nil
			}
		}
	}
}

// renderDataQueries materializes the human-readable DataQueries text
// from the compact executed-query refs: each pattern's data query with
// its bound propagation sets spelled out as IN-lists, so the text runs
// as-is on any shard and returns the rows the bound plan fetched there.
// Called only from Cursor.DataQueries / Execute, never on the hot hunt
// path.
func (en *Engine) renderDataQueries(q *tbql.Query, refs []dataQueryRef) []string {
	maxHops := en.MaxPathHops
	if maxHops == 0 {
		maxHops = DefaultMaxHops
	}
	out := make([]string, 0, len(refs))
	for _, ref := range refs {
		pat := &q.Patterns[ref.pi]
		var extraSQL, extraCypher []string
		if ref.subjIDs != nil {
			extraSQL = append(extraSQL, "e.srcid IN ("+inListSQL(ref.subjIDs)+")")
			extraCypher = append(extraCypher, inListCypher("s.id", ref.subjIDs))
		}
		if ref.objIDs != nil {
			extraSQL = append(extraSQL, "e.dstid IN ("+inListSQL(ref.objIDs)+")")
			extraCypher = append(extraCypher, inListCypher("o.id", ref.objIDs))
		}
		if pat.IsPath {
			out = append(out, compileCypher(pat, extraCypher, maxHops))
		} else {
			out = append(out, compileSQL(pat, extraSQL))
		}
	}
	return out
}

// patWork tracks one pattern's shard jobs within a fetch wave: pending
// counts outstanding jobs, total the rows fetched so far, so the last
// job to finish can detect an all-shards-empty pattern.
type patWork struct {
	pos, pi int
	jobs    []*shardJob // in shard order
	pending atomic.Int32
	total   atomic.Int32
}

// shardJob is one (pattern, shard) fetch: the pattern's prepared plan
// executed against a single store shard with the parameter binding all
// of the pattern's shard jobs share, so nothing is parsed per shard.
type shardJob struct {
	pi        int
	shard     int
	isPath    bool
	plan      *patternPlan
	sqlParams *relstore.Params
	cyParams  *graphstore.CParams
	// rowCap, when positive, stops the shard's fetch after this many
	// rows (see fetchCapSafe for when capping preserves the hunt's first
	// rows exactly).
	rowCap  int
	fetched []EventRow
	err     error
	skipped bool
	work    *patWork
}

// fetchRel runs the pattern's data query against one relational shard's
// epoch view: the statement sees the snapshot's rows only and takes no
// statement-long locks.
func (j *shardJob) fetchRel(v *relstore.View) {
	var rr *relstore.Rows
	var err error
	if j.rowCap > 0 {
		rr, err = j.plan.sql.QueryViewLimit(v, j.sqlParams, j.rowCap)
	} else {
		rr, err = j.plan.sql.QueryView(v, j.sqlParams)
	}
	if err != nil {
		j.err = err
		return
	}
	if cap(j.fetched) < len(rr.Data) {
		j.fetched = make([]EventRow, 0, len(rr.Data))
	}
	for _, r := range rr.Data {
		j.fetched = append(j.fetched, EventRow{
			EventID: r[0].Int, SrcID: r[1].Int, DstID: r[2].Int,
			Start: r[3].Int, End: r[4].Int, Amount: r[5].Int,
		})
	}
}

// fetchGraph runs the pattern's data query against one graph shard
// bounded at the cursor's epoch mark: edges and nodes committed after
// the mark are invisible, and the graph's read lock is held only for
// this one statement.
func (j *shardJob) fetchGraph(g *graphstore.Graph, mark uint64) {
	var gr *graphstore.Rows
	var err error
	if j.rowCap > 0 {
		gr, err = g.QueryPreparedAtLimit(j.plan.cy, mark, j.cyParams, j.rowCap)
	} else {
		gr, err = g.QueryPreparedAt(j.plan.cy, mark, j.cyParams)
	}
	if err != nil {
		j.err = err
		return
	}
	if cap(j.fetched) < len(gr.Data) {
		j.fetched = make([]EventRow, 0, len(gr.Data))
	}
	for _, r := range gr.Data {
		j.fetched = append(j.fetched, EventRow{
			SrcID: r[0].Int, DstID: r[1].Int, EventID: r[2].Int,
			Start: r[3].Int, End: r[4].Int, Amount: r[5].Int,
		})
	}
}

// ExplainedPattern describes how one pattern would execute.
type ExplainedPattern struct {
	Name    string
	Backend string // "sql" or "cypher"
	Score   int    // static pruning score
	// EstRows is the cost-based optimizer's estimated fetched-row count
	// for this pattern at the current snapshot, or -1 when no estimate
	// drove the order (optimizer disabled or stats unavailable).
	EstRows int64
	// CostBased reports that the order Explain returned came from
	// cardinality estimates rather than static pruning scores.
	CostBased bool
	// DataQuery is the data query as it would actually execute: the
	// prepared template text, with $k parameter slots for propagated
	// sets and window bounds.
	DataQuery string
	// Propagated lists, once each, the entity variables this pattern
	// shares with earlier scheduled patterns — the ones that receive
	// propagated constraint sets at run time (empty when propagation is
	// disabled). A self-loop pattern's one variable constrains both its
	// subject and object side. Whether a hunt actually injects a set
	// depends on MaxPropagatedIDs; Stats.PropagationsSkipped counts the
	// ones dropped for exceeding it.
	Propagated []string
	// Hosts lists the host constants the pattern's filters pin it to
	// (nil when unconstrained): on a sharded store the pattern's data
	// query is pruned to only those hosts' shards.
	Hosts []string
}

// Explain scores, estimates, and compiles every pattern without
// executing anything, returning the patterns in the order a hunt
// launched now would execute them: the cost-based order when the
// optimizer is on and the stores carry stats (estimated against a
// freshly captured epoch snapshot, exactly as ExecuteCursor would),
// the static pruning-score order otherwise. DataQuery reports the
// plan that would actually run — the prepared parameterized template,
// for the propagation shape the hunt derives (propagatedShape) — so
// /explain output and executed queries cannot drift apart. The stages
// (analyze, estimate, compile) are recorded as spans on tr; a nil tr
// records nothing. Explain executes no data queries, so ctx (nil =
// never cancelled) is checked once at entry: there is no long-running
// phase to interrupt after that.
func (en *Engine) Explain(ctx context.Context, q *tbql.Query, tr *obs.Trace) ([]ExplainedPattern, error) {
	if ctxDone(ctx) {
		return nil, huntErr(ctx)
	}
	if q.Info() == nil {
		sp := tr.Begin("analyze", -1)
		err := tbql.Analyze(q)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
	}
	if en.Rel == nil {
		return nil, fmt.Errorf("exec: engine has no relational backend")
	}
	maxHops := en.MaxPathHops
	if maxHops == 0 {
		maxHops = DefaultMaxHops
	}
	order := en.schedule(q, maxHops)
	var ests []float64
	costBased := false
	if !en.DisableCostOptimizer && !en.DisableScheduling {
		estSp := tr.Begin("estimate", -1)
		patShards, relShards, graphShards := en.shardPlan(q)
		if sv, err := en.snapshotStores(relShards, graphShards); err == nil {
			if co, ce, ok := en.costSchedule(q, patShards, sv, maxHops); ok {
				order, ests, costBased = co, ce, true
			}
		}
		if costBased {
			tr.EndNote(estSp, "cost")
		} else {
			tr.EndNote(estSp, "static")
		}
	}
	compileSp := tr.Begin("compile", -1)
	defer tr.End(compileSp)
	fp := en.schemaFingerprint()
	en.Plans.ensureSchema(fp)
	seen := map[string]bool{}
	out := make([]ExplainedPattern, 0, len(order))
	var stats Stats // plan-cache accounting only; discarded
	for _, pi := range order {
		pat := &q.Patterns[pi]
		ep := ExplainedPattern{Name: pat.Name, Score: PruningScore(pat, maxHops),
			EstRows: -1, CostBased: costBased, Hosts: q.Info().PatternHosts[pi]}
		if costBased {
			ep.EstRows = int64(ests[pi])
		}
		if pat.IsPath {
			ep.Backend = "cypher"
		} else {
			ep.Backend = "sql"
		}
		var shape propShape
		if !en.DisablePropagation {
			shape = propagatedShape(pat, func(id string) bool { return seen[id] })
			if shape&propSubj != 0 {
				ep.Propagated = append(ep.Propagated, pat.Subj.ID)
			}
			if shape&propObj != 0 && pat.Obj.ID != pat.Subj.ID {
				ep.Propagated = append(ep.Propagated, pat.Obj.ID)
			}
		}
		plan, err := en.lookupPlan(pat, shape, maxHops, fp, &stats)
		if err != nil {
			return nil, err
		}
		ep.DataQuery = plan.text
		seen[pat.Subj.ID] = true
		seen[pat.Obj.ID] = true
		out = append(out, ep)
	}
	return out, nil
}

func returnCols(q *tbql.Query) []string {
	cols := make([]string, len(q.Return))
	for i, item := range q.Return {
		cols[i] = item.ID + "." + item.Attr
	}
	return cols
}

// joinBudgetErr names the exhausted budget so the 422 the service maps
// it to tells the analyst which knob fired.
func (en *Engine) joinBudgetErr(explored int) error {
	return fmt.Errorf("%w: join examined %d candidate rows (max-join-rows %d)",
		ErrJoinBudget, explored, en.MaxJoinRows)
}

func eventAttr(r EventRow, attr string) int64 {
	switch attr {
	case "srcid":
		return r.SrcID
	case "dstid":
		return r.DstID
	case "starttime":
		return r.Start
	case "endtime":
		return r.End
	case "amount":
		return r.Amount
	case "id":
		return r.EventID
	default:
		return 0
	}
}

func cmpInt(a int64, op string, b int64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// sortedIDs returns the set's IDs in ascending order, for deterministic
// IN-lists.
func sortedIDs(set map[int64]bool) []int64 {
	ids := make([]int64, 0, len(set))
	for v := range set {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// inListSQL renders a sorted entity-ID list as a SQL IN-list body (the
// lazy DataQueries rendering).
func inListSQL(ids []int64) string {
	var b strings.Builder
	for i, v := range ids {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// inListCypher renders a sorted entity-ID list as a Cypher disjunction.
func inListCypher(col string, ids []int64) string {
	terms := make([]string, len(ids))
	for i, v := range ids {
		terms[i] = fmt.Sprintf("%s = %d", col, v)
	}
	return "(" + strings.Join(terms, " OR ") + ")"
}

// intersectOrNew returns prev ∩ cur, or cur when prev is empty (first
// observation of the variable).
func intersectOrNew(prev, cur map[int64]bool) map[int64]bool {
	if len(prev) == 0 {
		return cur
	}
	out := map[int64]bool{}
	for v := range cur {
		if prev[v] {
			out[v] = true
		}
	}
	return out
}

// attrCache is an immutable snapshot of entity attribute values for
// projection, indexed by entity ID - 1.
type attrCache struct {
	rows []map[string]string
}

func (c *attrCache) get(id int64, attr string) string {
	i := id - 1
	if c == nil || i < 0 || i >= int64(len(c.rows)) || c.rows[i] == nil {
		return ""
	}
	return c.rows[i][attr]
}

// entityAttrsAt returns the entity attribute cache bounded at an epoch
// view of shard 0's entity table (the authoritative broadcast set),
// extending the shared cache first if the view reaches past it. The
// cache slice is append-only, so snapshots handed to cursors stay valid
// as later epochs extend it, and a cursor pinned at an older epoch gets
// the cache capped at its own watermark: entities interned after its
// snapshot do not exist for it. Only the view rows past the cached
// position are scanned (positions are stable across epochs), so a
// refresh during steady ingest costs the new rows, not the whole table.
func (en *Engine) entityAttrsAt(tv *relstore.TableView) (*attrCache, error) {
	en.attrsMu.Lock()
	defer en.attrsMu.Unlock()
	n := tv.NumRows()
	if n > en.attrsRows {
		cols := tv.Schema().Columns
		idIdx := tv.ColIndex("id")
		if idIdx < 0 {
			return nil, fmt.Errorf("exec: entity table has no id column")
		}
		en.attrsRows = tv.ScanFrom(en.attrsRows, func(row []relstore.Value) {
			m := make(map[string]string, len(cols))
			for i, col := range cols {
				m[strings.ToLower(col.Name)] = row[i].String()
			}
			id := row[idIdx].Int
			if id < 1 {
				return
			}
			// Grow to the row's ID slot; never overwrite an existing
			// slot, so published snapshots stay immutable.
			for int64(len(en.attrRows)) < id-1 {
				en.attrRows = append(en.attrRows, nil)
			}
			if int64(len(en.attrRows)) == id-1 {
				en.attrRows = append(en.attrRows, m)
			}
		})
	}
	// Cap the snapshot at the view's watermark: entity IDs are dense
	// (assigned from 1 in insertion order), so the first n entity rows
	// carry the IDs 1..n and cache positions >= n belong to entities
	// interned after this cursor's epoch.
	limit := n
	if len(en.attrRows) < limit {
		limit = len(en.attrRows)
	}
	return &attrCache{rows: en.attrRows[:limit:limit]}, nil
}
