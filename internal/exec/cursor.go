package exec

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/tbql"
)

// Cursor iterates over the projected rows of a hunt, in the style of
// database/sql: Next advances, Row or Scan reads the current row, Err
// reports iteration errors, and Close releases the cursor's resources.
// The join runs lazily inside the cursor (see stream.go), so Next
// computes row N+1 without computing row N+2 and a page-sized read of a
// huge hunt does page-sized join work.
//
// A cursor pins an epoch snapshot of every store shard its query
// touches, captured when it was created: append watermarks over the
// relational shards' tables (pruned by host constraints, plus shard 0's
// entity table for the projection attribute cache) and epoch marks over
// the touched graph shards. Both backends are append-only, so the
// snapshot is bookkeeping, not held locks — rows, edges, and entities
// committed after the capture are beyond the watermarks and invisible
// to the cursor, while writers proceed at full speed no matter how long
// the cursor stays open. Every page therefore observes the same ingest
// frontier: the one the epoch named. Close releases the snapshot
// references (and with them, eventually, the epoch registry entry a
// server-side cursor pinned); it is idempotent, and exhausting the rows
// or hitting an iteration error releases them too.
//
// A Cursor is not safe for concurrent use; each goroutine should run its
// own hunt.
type Cursor struct {
	query *tbql.Query
	en    *Engine
	cols  []string
	stats Stats
	epoch snapshot.Epoch

	// view is the pinned epoch snapshot; nil once released. Only the
	// entity-table view is read after creation (the lazy attribute-cache
	// snapshot on first Next); the fetched rows are already materialized.
	view *storeView

	// stream is the lazy hash-join iterator.
	stream *matchStream

	// projSlots maps each return item to its entity slot.
	projSlots []int
	attrs     *attrCache
	distinct  bool
	seen      map[string]bool

	// collectMatches makes Next record every match (pre-DISTINCT) in
	// matches, for Execute's Result.Matches.
	collectMatches bool
	matches        []Match

	// trace is the pipeline trace this hunt records into (nil when
	// tracing is disabled); firstRowTimed flips after the first Next so
	// only time-to-first-row is measured — per-row spans would dominate
	// the work they time.
	trace         *obs.Trace
	firstRowTimed bool

	// ctx is the hunt's lifecycle context (nil = never cancelled),
	// polled by the join at bounded intervals. interrupted marks a
	// context interrupt of the streaming join: the walk state and the
	// snapshot are intact, and SetContext clears it so the cursor
	// resumes exactly where it suspended — this is what keeps a
	// server-side cursor resumable after a page deadline fires.
	ctx         context.Context
	interrupted bool

	row    []string
	err    error
	closed bool
}

// ExecuteCursor runs an analyzed TBQL query and returns a cursor over
// the projected rows: snapshot, cost-based (or static) scheduling,
// fetch, and lazy-join cursor construction. The data-query (fetch)
// phase runs eagerly against a freshly captured epoch snapshot — so
// compile and backend errors surface here — but the join is lazy:
// match generation happens inside Next. The cursor keeps the snapshot
// pinned until it is closed or exhausted; because the snapshot is an
// append watermark, not a lock, holding it open costs writers nothing.
//
// ctx is the hunt's lifecycle context (nil = never cancelled): the
// fetch waves poll it at every wave boundary and shard-job start, and
// the lazy join polls it at Next entry plus every joinCheckEvery
// candidates, so cancelling ctx aborts the hunt within a bounded amount
// of join work. A cancelled fetch surfaces ErrHuntCancelled (or
// ErrHuntDeadline) from this call; a cancellation mid-iteration makes
// Next return false with the same error in Err, leaving the cursor
// resumable via SetContext.
//
// limit is a row-need bound: the caller promises to read at most limit
// rows from the cursor (0 = no bound). When the query shape makes it
// safe (fetchCapSafe), the bound is pushed into the per-shard data
// queries as a fetch-side row cap, so a first-page hunt over a huge
// table fetches page-scaled rows instead of materializing the whole
// table. A capped cursor's Stats report FetchCapped; reading it past
// limit rows yields a truncated result, so callers must not page beyond
// their promise.
//
// tr receives the pipeline stages, so a caller that already traced
// earlier stages (parse, cache lookups) gets one contiguous span tree
// back from Cursor.Trace. A nil tr falls back to the engine's default
// (trace unless DisableTracing).
func (en *Engine) ExecuteCursor(ctx context.Context, q *tbql.Query, limit int, tr *obs.Trace) (*Cursor, error) {
	if ctxDone(ctx) {
		return nil, huntErr(ctx)
	}
	if tr == nil && !en.DisableTracing {
		tr = obs.NewTrace()
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
	maxProp := en.MaxPropagatedIDs
	if maxProp == 0 {
		maxProp = DefaultMaxPropagatedIDs
	}
	order := en.schedule(q, maxHops)

	// The shard plan prunes each pattern's fan-out to the shards its
	// host constraints allow, and its unions are the shards this
	// cursor's snapshot covers: all touched shards' watermarks are
	// captured together, so one hunt reads one consistent cut even when
	// it spans shards.
	snapSp := tr.Begin("snapshot", -1)
	patShards, relShards, graphShards := en.shardPlan(q)
	sv, err := en.snapshotStores(relShards, graphShards)
	tr.End(snapSp)
	if err != nil {
		return nil, err
	}

	c := &Cursor{
		query:    q,
		en:       en,
		cols:     returnCols(q),
		distinct: q.Distinct,
		epoch:    sv.epoch,
		view:     sv,
		trace:    tr,
		ctx:      ctx,
	}
	if c.distinct {
		c.seen = make(map[string]bool)
	}

	// Cost-based scheduling: estimate each pattern's cardinality at the
	// snapshot just pinned and re-derive the order so the most
	// selective pattern anchors the streaming join. The static
	// pruning-score order (already computed above) remains the fallback
	// whenever estimates are unavailable.
	if !en.DisableCostOptimizer && !en.DisableScheduling {
		costSp := tr.Begin("cost_optimize", -1)
		if co, _, ok := en.costSchedule(q, patShards, sv, maxHops); ok {
			c.stats.CostBased = true
			for i := range co {
				if co[i] != order[i] {
					c.stats.Reordered = true
					break
				}
			}
			order = co
		}
		switch {
		case c.stats.Reordered:
			tr.EndNote(costSp, "reordered")
		case c.stats.CostBased:
			tr.EndNote(costSp, "cost")
		default:
			tr.EndNote(costSp, "static")
		}
	}

	// The schema fingerprint keys every plan lookup and flushes the
	// cross-hunt cache if the bootstrap schema changed under it.
	fp := en.schemaFingerprint()
	en.Plans.ensureSchema(fp)

	spec := fetchSpec{order: order, patShards: patShards,
		maxHops: maxHops, maxProp: maxProp, fp: fp, ctx: ctx}
	if limit > 0 && !en.DisableCostOptimizer && fetchCapSafe(q) {
		spec.rowCap = limit
		c.stats.FetchCapped = true
	}

	spec.tr = tr
	spec.span = tr.Begin("fetch", -1)
	rows, err := en.fetchPatterns(q, sv, spec, &c.stats)
	tr.EndNote(spec.span, planCacheNote(tr, &c.stats))
	if err != nil {
		c.view = nil
		return nil, err
	}
	if c.stats.ShortCircuit {
		// Some pattern matched nothing: the cursor is empty and needs no
		// snapshot.
		c.view = nil
		return c, nil
	}

	info := q.Info()
	c.projSlots = make([]int, len(q.Return))
	for i, item := range q.Return {
		c.projSlots[i] = info.EntitySlot[item.ID]
	}

	c.stream = newMatchStream(planJoin(q, order), rows)
	c.stream.stop = c.joinStop
	return c, nil
}

// joinStop is the streaming join's lifecycle hook: suspend the walk
// when the hunt's context is done or the join budget is exhausted.
func (c *Cursor) joinStop() bool {
	if ctxDone(c.ctx) {
		return true
	}
	return c.en.MaxJoinRows > 0 && c.stream.explored >= c.en.MaxJoinRows
}

// SetContext installs ctx as the lifecycle context for subsequent Next
// calls and clears a pending context interrupt, resuming the suspended
// join walk exactly where the old context stopped it. This is how a
// server-side cursor survives a page deadline or disconnect: each page
// request installs its own context before paging. Terminal errors
// (budget overruns, backend failures) are not cleared — only context
// interrupts are resumable.
func (c *Cursor) SetContext(ctx context.Context) {
	c.ctx = ctx
	if c.interrupted {
		c.interrupted = false
		c.err = nil
	}
}

// planCacheNote renders the fetch span's plan-cache annotation without
// fmt; "" on a nil trace so untraced hunts build nothing.
func planCacheNote(tr *obs.Trace, st *Stats) string {
	if tr == nil {
		return ""
	}
	b := make([]byte, 0, 40)
	b = append(b, "plan_cache_hits="...)
	b = strconv.AppendInt(b, int64(st.PlanCacheHits), 10)
	b = append(b, " misses="...)
	b = strconv.AppendInt(b, int64(st.PlanCacheMisses), 10)
	return string(b)
}

// Columns returns the projected column names (entity.attr), valid before
// the first Next. The caller must not modify the returned slice.
func (c *Cursor) Columns() []string { return c.cols }

// Epoch returns the ingest epoch that was current when the cursor's
// snapshot was captured (0 when the engine has no Clock). It is a
// lower bound naming the snapshot for registry bookkeeping: the
// snapshot is guaranteed to include everything epochs <= Epoch()
// committed, and may additionally include rows of a commit that was
// completing concurrently with the capture. The snapshot boundary
// itself is the captured watermark vector — every page the cursor
// produces reflects exactly that one immutable cut.
func (c *Cursor) Epoch() snapshot.Epoch { return c.epoch }

// Stats reports how the underlying query executed. JoinCandidates
// reflects the join work done so far: it grows as a lazy cursor is
// drained. Stats.DataQueries is nil unless DataQueries has been called
// (or the cursor was drained through Engine.Execute): rendering the
// data-query text costs string building per pattern, so the hot hunt
// path never pays it.
func (c *Cursor) Stats() Stats {
	c.syncStats()
	return c.stats
}

// DataQueries renders the executed data queries as human-readable
// SQL/Cypher text, in scheduled order — lazily, memoized on first
// call — with the propagated sets each query was bound to spelled out
// as IN-lists. Run on a shard of the cursor's snapshot, each text
// returns the rows its bound plan fetched there.
func (c *Cursor) DataQueries() []string {
	if c.stats.DataQueries == nil && len(c.stats.dq) > 0 {
		c.stats.DataQueries = c.en.renderDataQueries(c.query, c.stats.dq)
	}
	return c.stats.DataQueries
}

// syncStats folds the streaming join's progress into the stats snapshot.
func (c *Cursor) syncStats() {
	if c.stream != nil {
		c.stats.JoinCandidates = c.stream.Explored()
	}
}

// ensureAttrs lazily snapshots the entity attribute cache on the first
// projected row, bounded at the cursor's pinned entity watermark so the
// attributes and the fetched rows describe one consistent cut — even
// when ingest has interned new entities since the cursor was created.
func (c *Cursor) ensureAttrs() bool {
	if c.attrs != nil {
		return true
	}
	if c.view == nil {
		c.err = fmt.Errorf("exec: cursor snapshot already released")
		return false
	}
	attrs, err := c.en.entityAttrsAt(c.view.ent)
	if err != nil {
		c.err = err
		return false
	}
	c.attrs = attrs
	return true
}

// Next advances to the next projected row, applying DISTINCT
// deduplication incrementally. It resumes the depth-first join walk,
// doing only the work needed to surface one more row. It returns false when the rows are exhausted, an error occurred
// (see Err), or the cursor is closed; exhaustion and errors release the
// snapshot references.
//
// The first Next of a traced cursor is recorded as the "first_row"
// span — the lazy join's time-to-first-result. Later rows are not timed
// individually: a per-row span would cost more than the row.
func (c *Cursor) Next() bool {
	if c.trace == nil || c.firstRowTimed {
		return c.advance()
	}
	c.firstRowTimed = true
	sp := c.trace.Begin("first_row", -1)
	ok := c.advance()
	c.trace.End(sp)
	return ok
}

// Trace returns the pipeline trace this cursor's hunt recorded into,
// or nil when tracing was disabled.
func (c *Cursor) Trace() *obs.Trace { return c.trace }

func (c *Cursor) advance() bool {
	if c.closed || c.err != nil {
		return false
	}
	for {
		if c.stream == nil {
			c.finish()
			return false
		}
		if !c.stream.Next() {
			if c.stream.interrupted {
				c.stream.interrupted = false
				c.abortJoin()
				return false
			}
			c.finish()
			return false
		}
		if !c.ensureAttrs() {
			c.finish()
			return false
		}
		row := make([]string, len(c.query.Return))
		for i, item := range c.query.Return {
			row[i] = c.attrs.get(c.stream.entities[c.projSlots[i]], item.Attr)
		}
		if c.collectMatches {
			c.matches = append(c.matches, c.stream.match())
		}
		if c.distinct {
			key := strings.Join(row, "\x00")
			if c.seen[key] {
				continue
			}
			c.seen[key] = true
		}
		c.row = row
		return true
	}
}

// finish ends iteration: clears the current row, fixes the stats
// snapshot, and drops the snapshot references.
func (c *Cursor) finish() {
	c.row = nil
	c.syncStats()
	c.view = nil
}

// abortJoin records why the streaming join suspended. A context
// interrupt is resumable — the walk state and snapshot stay intact for
// SetContext — while a budget overrun is terminal and releases the
// snapshot like finish.
func (c *Cursor) abortJoin() {
	c.row = nil
	c.syncStats()
	if ctxDone(c.ctx) {
		c.interrupted = true
		c.err = huntErr(c.ctx)
		return
	}
	c.err = c.en.joinBudgetErr(c.stats.JoinCandidates)
	c.view = nil
}

// Row returns the current projected row, or nil before the first Next,
// after exhaustion, or after Close. Each Next projects into a freshly
// allocated slice, so a returned row remains valid (and unaliased)
// across later Next and Close calls — this is a contract callers such
// as Engine.Execute rely on.
func (c *Cursor) Row() []string { return c.row }

// Scan copies the current row into dest in column order. Supported
// destination types: *string, *int64, *int, and *float64; numeric
// destinations parse the projected attribute text and fail on
// non-numeric values.
func (c *Cursor) Scan(dest ...any) error {
	if c.closed {
		return fmt.Errorf("exec: Scan on closed cursor")
	}
	if c.row == nil {
		return fmt.Errorf("exec: Scan called without a successful Next")
	}
	if len(dest) != len(c.row) {
		return fmt.Errorf("exec: Scan wants %d destinations, got %d", len(c.row), len(dest))
	}
	for i, d := range dest {
		v := c.row[i]
		switch p := d.(type) {
		case *string:
			*p = v
		case *int64:
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("exec: Scan column %s: %q is not an integer", c.cols[i], v)
			}
			*p = n
		case *int:
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("exec: Scan column %s: %q is not an integer", c.cols[i], v)
			}
			*p = int(n)
		case *float64:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("exec: Scan column %s: %q is not a number", c.cols[i], v)
			}
			*p = f
		default:
			return fmt.Errorf("exec: Scan column %s: unsupported destination type %T", c.cols[i], d)
		}
	}
	return nil
}

// Err reports any error encountered during iteration. It is distinct
// from Scan errors, which are returned directly. Err survives Close, so
// a caller that pages then closes can still distinguish a truncated
// stream from a completed one.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's resources: the remaining match state and
// the snapshot references (the epoch views). Writers were never blocked
// by the open cursor — snapshots are watermarks, not locks — so a
// forgotten Close leaks memory (the pinned views keep their row
// prefixes reachable), not throughput. Close is idempotent; Next
// returns false and Scan fails after Close.
func (c *Cursor) Close() error {
	if !c.closed {
		c.syncStats()
		c.closed = true
	}
	c.row = nil
	c.stream = nil
	c.seen = nil
	c.view = nil
	return nil
}
