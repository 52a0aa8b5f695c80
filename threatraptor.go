// Package threatraptor is the public facade of ThreatRaptor, a system
// that facilitates cyber threat hunting in computer systems using
// open-source Cyber Threat Intelligence (OSCTI).
//
// ThreatRaptor bridges OSCTI with system auditing: it (1) extracts
// structured threat behaviors (IOCs and IOC relations) from unstructured
// OSCTI text with an unsupervised NLP pipeline, (2) stores system audit
// logging data in relational and graph database backends, (3) provides
// the Threat Behavior Query Language (TBQL) for hunting malicious system
// activities, (4) automatically synthesizes TBQL queries from extracted
// threat behavior graphs, and (5) executes TBQL queries efficiently with
// pruning-score scheduling and cross-pattern constraint propagation.
//
// Typical usage:
//
//	sys := threatraptor.New(threatraptor.Options{CPR: true})
//	sys.IngestLogs(logFile)                   // Sysdig-style audit logs
//	g := sys.ExtractBehavior(reportText)      // OSCTI report -> graph
//	q, _, _ := sys.SynthesizeQuery(g, nil)    // graph -> TBQL
//	res, _ := sys.HuntQuery(q)                // TBQL -> matched records
package threatraptor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/exec"
	"repro/internal/extract"
	"repro/internal/graphstore"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/relstore"
	"repro/internal/snapshot"
	"repro/internal/synth"
	"repro/internal/tbql"
	"repro/internal/wal"
)

// Re-exported types so downstream users can name the values the facade
// returns without importing internal packages.
type (
	// BehaviorGraph is a threat behavior graph extracted from OSCTI text.
	BehaviorGraph = extract.Graph
	// Query is an analyzed TBQL query.
	Query = tbql.Query
	// SynthPlan configures query synthesis (nil = default plan).
	SynthPlan = synth.Plan
	// SynthReport lists what synthesis screening dropped.
	SynthReport = synth.Report
	// HuntResult is the result of executing a TBQL query.
	HuntResult = exec.Result
	// Cursor streams the projected rows of a hunt (see HuntCursor).
	Cursor = exec.Cursor
	// Record is one raw audit record.
	Record = audit.Record
	// Epoch identifies one ingest commit (see System.Epoch).
	Epoch = snapshot.Epoch
	// TimeWindow bounds patterns to [From, To] unix nanoseconds.
	TimeWindow = tbql.TimeWindow
	// Entity is a resolved system entity.
	Entity = audit.Entity
	// TrackOptions bounds a causality tracking run.
	TrackOptions = provenance.TrackOptions
	// CausalSubgraph is the result of causality tracking.
	CausalSubgraph = provenance.Subgraph
)

// Tracking directions re-exported for Investigate.
const (
	TrackBackward = provenance.Backward
	TrackForward  = provenance.Forward
)

// Entity type tags re-exported for inspecting hunt and tracking results.
const (
	EntityFileType    = audit.EntityFile
	EntityProcessType = audit.EntityProcess
	EntityNetConnType = audit.EntityNetConn
)

// Options configures a System. Every field is a production setting, one
// of the paper's ablations (DisableScheduling, DisablePropagation) or
// an escape hatch (DisableCostOptimizer). The correctness baseline that
// hunts are tested against is a test-only reference evaluator in
// internal/exec; no option selects it.
type Options struct {
	// CPR applies Causality Preserved Reduction before storage, merging
	// excessive events between the same entity pair.
	CPR bool
	// MaxPathHops caps unbounded TBQL path patterns (default 6).
	MaxPathHops int
	// LenientParsing makes log ingestion skip malformed lines instead of
	// failing.
	LenientParsing bool
	// DisableScheduling and DisablePropagation turn off the execution
	// engine's optimizations (used by the efficiency experiments).
	DisableScheduling  bool
	DisablePropagation bool
	// DisableCostOptimizer turns off the cost-based optimizer:
	// selectivity-driven join reordering from ingest-time cardinality
	// stats and fetch-side row caps. Hunts then run in the static
	// pruning-score order (escape hatch and ablation baseline).
	DisableCostOptimizer bool
	// MaxPropagatedIDs bounds the size of a propagated entity-ID
	// constraint set (default exec.DefaultMaxPropagatedIDs = 25600);
	// oversized candidate sets are dropped and counted in
	// HuntResult.Stats.PropagationsSkipped. Propagated sets are bound
	// plan parameters probed per row — not rendered IN-list text — so
	// large caps cost memory, not parse time.
	MaxPropagatedIDs int
	// MaxJoinRows bounds how many candidate rows one hunt's join may
	// examine (0 = unbounded): a hunt that exceeds it aborts with
	// exec.ErrJoinBudget, releasing its snapshot, so a cross-product-
	// shaped query cannot pin a core indefinitely. The daemon maps the
	// error to 422.
	MaxJoinRows int
	// PlanCacheSize bounds the cross-hunt prepared-plan cache (plan
	// templates, LRU-evicted). 0 means the default (256); a negative
	// value disables the cache, so every hunt compiles its patterns'
	// data queries (still once per pattern, shared across shards).
	PlanCacheSize int
	// Shards partitions both storage backends into per-host shards
	// (default 1, the unsharded store). Events live in the shard of
	// their host, entities are broadcast to every shard, so ingest
	// batches for different hosts load in parallel on disjoint write
	// locks and hunts fan their data queries out across shards — pruned
	// to a single shard when a pattern filters host = '...'.
	Shards int
	// WAL attaches a durability log (opened, not yet replayed). New
	// replays it into the fresh stores — recovering the previous
	// process's state — and every later ingest commit appends to it
	// before publishing, so an acknowledged batch survives a crash (at
	// the log's fsync policy). nil keeps the store memory-only.
	WAL *wal.Log
	// IngestChunk splits ingest batches into commits of at most this
	// many records through the serialized interning phase, so one huge
	// batch cannot monopolize the ingest lock (default
	// DefaultIngestChunk; negative disables chunking). Each chunk is its
	// own epoch and WAL record: a chunked batch is atomic per chunk, not
	// end-to-end — a mid-batch failure can leave a committed prefix.
	IngestChunk int
	// Metrics, when set, receives latency observations from the facade's
	// hot paths: ingest commit duration, standing-hunt Advance duration,
	// and watch delivery lag in epochs. Every observation is lock-free
	// and nil-safe, so a System without metrics pays one pointer test.
	Metrics *obs.Metrics
	// DisableTracing turns off the engine's default per-hunt pipeline
	// trace (the A/B knob for the tracing-overhead benchmark).
	DisableTracing bool
}

// DefaultIngestChunk is the records-per-commit bound when
// Options.IngestChunk is 0.
const DefaultIngestChunk = 5000

// ErrStorage marks ingestion failures in the storage phase, as opposed
// to parse failures of the caller's input. Callers (the HTTP daemon)
// test it with errors.Is to classify a failure as server-side.
var ErrStorage = errors.New("storage failure")

// ErrDegraded marks ingestion refused because the durability log hit a
// disk fault and the system is read-only. Hunts keep working; the HTTP
// daemon maps this to 503.
var ErrDegraded = wal.ErrDegraded

// IngestStats summarises one ingestion batch. All fields are per-batch.
type IngestStats struct {
	Entities     int // entities newly interned by this batch
	EventsIn     int
	EventsStored int
	CPRReduction float64 // events-in / events-stored (1.0 without CPR)
	ParseErrors  int     // malformed lines skipped in this batch (lenient mode)
}

// System is a ThreatRaptor deployment: parsers, reduction, both storage
// backends (host-sharded; 1 shard by default), and the query execution
// engine.
//
// A System is safe for concurrent use: any number of goroutines may
// Hunt, Explain, Investigate, and inspect counters while others ingest.
// Record interning and the entity broadcast are serialized so the
// high-water-mark bookkeeping stays consistent, but the bulk of a
// batch — loading its events into the stores — runs outside that lock:
// batches for different hosts land on disjoint shards and load in
// parallel. Storage is epoch-based multi-version: every ingest commit
// advances the epoch clock, and a hunt pins an epoch snapshot (append
// watermarks over both backends) of every shard it touches for its
// whole execution — for cursor hunts, until the cursor is closed or
// exhausted. Snapshots are watermarks, not locks: readers never block
// writers, writers never block open cursors (including the shard-0
// entity-table snapshot the projection cache reads), and a batch that
// interns new entities flows as freely as an event-only one no matter
// how many cursors are open or how long they live.
type System struct {
	opts   Options
	parser *audit.Parser
	rel    *relstore.Sharded
	graph  *graphstore.Sharded
	engine *exec.Engine
	// wal is the attached durability log (nil = memory-only system).
	wal *wal.Log
	// metrics is the optional telemetry bundle (nil = no observations).
	metrics *obs.Metrics

	// clock names ingest commits with monotonically increasing epochs;
	// cursors report the epoch they pinned (Cursor.Epoch) and the
	// service's cursor registry GCs epochs no cursor references.
	clock snapshot.Clock

	// ingestMu serializes record interning and the entity broadcast
	// (IngestLogs, IngestRecords); per-shard event loads run outside it,
	// and queries run concurrently against epoch snapshots.
	ingestMu sync.Mutex
	stored   atomic.Int64 // events already flushed to the stores

	// shardIngests counts, per shard, the ingest batches that stored
	// events there (GET /stats surfaces it next to per-shard row counts).
	shardIngests []atomic.Int64

	// Standing-hunt registry (see watch.go). watchNotify is a 1-buffered
	// coalescing channel the clock's commit announcements post to;
	// watchLoop drains it and pumps every registered watch.
	watchMu      sync.Mutex
	watches      map[uint64]*Watch
	watchNextID  uint64
	watchRunning bool
	watchNotify  chan struct{}
	watchOpened  atomic.Int64
	watchBatches atomic.Int64
	watchRows    atomic.Int64
	watchEvicted atomic.Int64
}

// New creates an empty System.
func New(opts Options) (*System, error) {
	nShards := opts.Shards
	if nShards < 1 {
		nShards = 1
	}
	rel, err := relstore.NewSharded(nShards)
	if err != nil {
		return nil, fmt.Errorf("threatraptor: %w", err)
	}
	g := graphstore.NewSharded(nShards)
	p := audit.NewParser()
	p.Lenient = opts.LenientParsing
	s := &System{
		opts:   opts,
		parser: p,
		rel:    rel,
		graph:  g,
		engine: &exec.Engine{
			Rel: rel, Graph: g,
			MaxPathHops:          opts.MaxPathHops,
			DisableScheduling:    opts.DisableScheduling,
			DisablePropagation:   opts.DisablePropagation,
			DisableCostOptimizer: opts.DisableCostOptimizer,
			MaxPropagatedIDs:     opts.MaxPropagatedIDs,
			MaxJoinRows:          opts.MaxJoinRows,
			DisableTracing:       opts.DisableTracing,
		},
		metrics:      opts.Metrics,
		shardIngests: make([]atomic.Int64, nShards),
		watches:      make(map[uint64]*Watch),
		watchNotify:  make(chan struct{}, 1),
	}
	s.notifyWatches()
	planCache := opts.PlanCacheSize
	if planCache == 0 {
		planCache = exec.DefaultPlanCacheSize
	}
	// NewPlanCache returns nil for capacity < 1 — the disabled cache.
	s.engine.Plans = exec.NewPlanCache(planCache)
	s.engine.Clock = &s.clock

	// With a durability log attached, recover the previous process's
	// state before the system serves anything: segment sets then the WAL
	// tail replay into the fresh stores, and the epoch clock resumes past
	// the highest recovered commit.
	if opts.WAL != nil {
		s.wal = opts.WAL
		info, err := s.wal.Replay(s.applyCommit)
		if err != nil {
			return nil, fmt.Errorf("threatraptor: recovery: %w", err)
		}
		// Segment replay applies per-shard event files concurrently, so
		// the parser's provenance log interleaves across shards; restore
		// commit order (event IDs were assigned under the ingest lock)
		// before any reader depends on it.
		s.parser.SortRestoredEvents()
		s.clock.Reset(Epoch(info.Epoch))
	}
	return s, nil
}

// applyCommit loads one recovered commit into the parser and both
// stores — the same load path live ingestion uses, minus the WAL
// append. Replay runs before any reader exists, but segment replay may
// call it concurrently for event commits of different shards
// (wal.Replay's contract): that is safe here because Restore locks the
// parser, each event load locks only its target shard, and the counters
// are atomic. New re-sorts the parser's event log afterwards.
func (s *System) applyCommit(c *wal.Commit) error {
	s.parser.Restore(c.Entities, c.Events)
	if len(c.Entities) > 0 {
		if err := s.rel.LoadEntities(c.Entities); err != nil {
			return fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
		}
		if err := s.graph.LoadNodes(c.Entities); err != nil {
			return fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
		}
	}
	if len(c.Events) > 0 {
		if err := s.rel.LoadEvents(c.Events); err != nil {
			return fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
		}
		if err := s.graph.LoadEdges(c.Events); err != nil {
			return fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
		}
		s.stored.Add(int64(len(c.Events)))
		for _, si := range touchedShards(c.Events, s.rel.NumShards()) {
			s.shardIngests[si].Add(1)
		}
	}
	return nil
}

// Recovery reports what this process's restart recovery replayed (zero
// value for a memory-only system or a fresh data dir).
func (s *System) Recovery() wal.RecoveryInfo {
	if s.wal == nil {
		return wal.RecoveryInfo{}
	}
	return s.wal.Recovery()
}

// Degraded reports whether the durability log hit a disk fault (the
// system is read-only) and the reason. Always false without a WAL.
func (s *System) Degraded() (string, bool) {
	if s.wal == nil {
		return "", false
	}
	return s.wal.Degraded()
}

// WALStats snapshots the durability log's counters (zero value without
// a WAL).
func (s *System) WALStats() wal.Stats {
	if s.wal == nil {
		return wal.Stats{}
	}
	return s.wal.Stats()
}

// PlanCacheStats reports the cross-hunt plan cache's cumulative hit and
// miss counts plus its current size (0/0/0 when the cache is disabled).
// Hits climbing while misses stay flat is the repeat-hunt workload
// skipping compilation entirely.
func (s *System) PlanCacheStats() (hits, misses int64, size int) {
	hits, misses = s.engine.Plans.Counters()
	return hits, misses, s.engine.Plans.Len()
}

// Epoch returns the current ingest epoch: the number of ingest commits
// so far. A cursor created now reports at least this epoch
// (Cursor.Epoch) and pages one immutable cut that includes everything
// those commits made visible — plus, possibly, a commit completing
// concurrently with the cursor's snapshot capture (the watermark
// vector, not the epoch number, is the snapshot boundary).
func (s *System) Epoch() Epoch { return s.clock.Current() }

// NumShards reports how many per-host shards each storage backend has.
func (s *System) NumShards() int { return s.rel.NumShards() }

// IngestLogs parses Sysdig-style audit log lines from r and stores the
// resulting entities and events in both backends. The batch is atomic
// with respect to parse errors: in strict mode a malformed line fails
// the whole batch before anything is interned, so a client can fix and
// retry without duplicating the prefix.
func (s *System) IngestLogs(r io.Reader) (IngestStats, error) {
	recs, parseErrs, err := audit.ParseRecords(r, s.opts.LenientParsing)
	if err != nil {
		return IngestStats{}, fmt.Errorf("threatraptor: ingest: %w", err)
	}
	return s.ingest(recs, len(parseErrs))
}

// IngestRecords stores already-parsed audit records. Like IngestLogs,
// records are validated up front so a strict-mode failure leaves no
// partial batch behind.
func (s *System) IngestRecords(recs []Record) (IngestStats, error) {
	valid := recs
	recErrs := 0
	if s.opts.LenientParsing {
		valid = make([]Record, 0, len(recs))
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				recErrs++
				continue
			}
			valid = append(valid, r)
		}
	} else {
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				return IngestStats{}, fmt.Errorf("threatraptor: ingest: %w", err)
			}
		}
	}
	return s.ingest(valid, recErrs)
}

// ingest splits pre-validated records into bounded chunks and commits
// each through ingestCommit, so one huge batch cannot monopolize the
// ingest lock. Each chunk is its own epoch and WAL record. In
// fsync-always mode only the final chunk's acknowledgement is awaited:
// the log is strictly ordered, so syncing the last record syncs every
// earlier one. parseErrs is this batch's parse-error count, not the
// lifetime total.
func (s *System) ingest(recs []Record, parseErrs int) (IngestStats, error) {
	chunk := s.opts.IngestChunk
	if chunk == 0 {
		chunk = DefaultIngestChunk
	}
	if chunk < 0 || chunk > len(recs) {
		chunk = len(recs)
	}
	total := IngestStats{ParseErrors: parseErrs, CPRReduction: 1}
	var lastAck wal.Ack
	for start := 0; ; start += chunk {
		end := len(recs)
		if chunk > 0 && start+chunk < end {
			end = start + chunk
		}
		st, ack, err := s.ingestCommit(recs[start:end])
		total.Entities += st.Entities
		total.EventsIn += st.EventsIn
		total.EventsStored += st.EventsStored
		if err != nil {
			return total, err
		}
		if ack != nil {
			lastAck = ack
		}
		if end == len(recs) {
			break
		}
	}
	if total.EventsStored > 0 {
		total.CPRReduction = float64(total.EventsIn) / float64(total.EventsStored)
	}
	if lastAck != nil {
		// Awaited outside every lock: concurrent ingests group-commit on
		// one fsync. The data is already visible; the ack is the
		// durability barrier the caller's acknowledgement stands on.
		if err := lastAck(); err != nil {
			return total, fmt.Errorf("threatraptor: ingest: %w", err)
		}
	}
	return total, nil
}

// ingestCommit stages, logs, and publishes one commit. The serialized
// phase under ingestMu — staging, the WAL append, and the entity
// broadcast — keeps the high-water-mark bookkeeping consistent and
// guarantees WAL order matches publish order. Staging mutates nothing,
// and the WAL append happens before any store or parser mutation: a
// disk fault aborts the commit with zero partial in-memory state. The
// event loads run outside the lock, as before: batches for different
// hosts land on disjoint shards and proceed in parallel.
func (s *System) ingestCommit(recs []Record) (IngestStats, wal.Ack, error) {
	commitStart := time.Now()
	s.ingestMu.Lock()
	staged, err := s.parser.Stage(recs)
	if err != nil {
		s.ingestMu.Unlock()
		return IngestStats{}, nil, fmt.Errorf("threatraptor: ingest: %w", err)
	}
	stats := IngestStats{EventsIn: len(staged.Events), CPRReduction: 1}
	toStore := staged.Events
	if s.opts.CPR {
		reduced, cprStats := provenance.Reduce(staged.Events)
		toStore = reduced
		stats.CPRReduction = cprStats.ReductionFactor()
	}
	stats.Entities = len(staged.NewEntities)
	stats.EventsStored = len(toStore)

	// Commit point: the commit claims its epoch when its WAL record is
	// written (or, without a WAL, when it publishes). Readers snapshot
	// watermarks, not the epoch number, so a reader racing this Advance
	// is still perfectly consistent — the epoch names the commit for the
	// cursor registry's and the log's bookkeeping.
	var ack wal.Ack
	if s.wal != nil {
		epoch := s.clock.Advance()
		ack, err = s.wal.Append(&wal.Commit{
			Epoch:    uint64(epoch),
			Entities: staged.NewEntities,
			Events:   toStore,
		})
		if err != nil {
			// Nothing was published: the epoch number is burned (harmless —
			// epochs may have gaps) and the parser and stores are untouched.
			s.ingestMu.Unlock()
			return stats, nil, fmt.Errorf("threatraptor: ingest: %w", err)
		}
	}

	// Publish: the staged batch becomes visible, and the entity
	// broadcast commits the new entities to every shard before this
	// batch (or any later one referencing them) loads events.
	s.parser.Commit(staged)
	if err := s.rel.LoadEntities(staged.NewEntities); err != nil {
		s.ingestMu.Unlock()
		return stats, nil, fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
	}
	if err := s.graph.LoadNodes(staged.NewEntities); err != nil {
		s.ingestMu.Unlock()
		return stats, nil, fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
	}
	s.ingestMu.Unlock()

	if err := s.rel.LoadEvents(toStore); err != nil {
		return stats, nil, fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
	}
	if err := s.graph.LoadEdges(toStore); err != nil {
		return stats, nil, fmt.Errorf("threatraptor: %w: %v", ErrStorage, err)
	}
	s.stored.Add(int64(len(toStore)))
	for _, si := range touchedShards(toStore, s.rel.NumShards()) {
		s.shardIngests[si].Add(1)
	}
	if s.wal == nil {
		s.clock.Advance()
	}
	// The commit is fully visible (events loaded, watermarks moved):
	// announce it so standing hunts evaluate the new delta. Announce only
	// posts a coalescing wake-up — it never blocks the ingest path.
	s.clock.Announce(s.clock.Current())
	// Committed-commit latency only: an aborted commit published nothing,
	// so timing it would skew the histogram toward failures.
	s.metrics.ObserveIngestCommit(commitStart)
	return stats, ack, nil
}

// touchedShards lists the distinct shard indexes a batch's events route
// to, in shard order.
func touchedShards(events []*audit.Event, n int) []int {
	hit := make([]bool, n)
	for _, ev := range events {
		hit[audit.ShardIndex(ev.Host, n)] = true
	}
	var out []int
	for i, h := range hit {
		if h {
			out = append(out, i)
		}
	}
	return out
}

func (s *System) countStoredEntities() int {
	return s.rel.NumEntities()
}

// ExtractBehavior runs the threat behavior extraction pipeline
// (Algorithm 1) on an OSCTI report.
func (s *System) ExtractBehavior(report string) *BehaviorGraph {
	return extract.Extract(report)
}

// SynthesizeQuery converts a threat behavior graph into an analyzed TBQL
// query under the given synthesis plan (nil for the default plan).
func (s *System) SynthesizeQuery(g *BehaviorGraph, plan *SynthPlan) (*Query, *SynthReport, error) {
	return synth.Synthesize(g, plan)
}

// ParseQuery parses and analyzes TBQL source.
func (s *System) ParseQuery(src string) (*Query, error) {
	return tbql.Parse(src)
}

// Hunt parses and executes TBQL source against the stored audit data,
// materializing every row.
func (s *System) Hunt(src string) (*HuntResult, error) {
	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.HuntQuery(q)
}

// HuntQuery executes an analyzed TBQL query, materializing every row.
func (s *System) HuntQuery(q *Query) (*HuntResult, error) {
	return s.engine.Execute(q)
}

// HuntQueryCursor executes an analyzed TBQL query, returning a cursor
// that streams the projected rows instead of materializing them — the
// iterator API for paging through large match sets. It is
// HuntQueryCursorCtx with no context, row bound, or caller trace.
func (s *System) HuntQueryCursor(q *Query) (*Cursor, error) {
	return s.HuntQueryCursorCtx(nil, q, 0, nil)
}

// HuntQueryCursorCtx executes an analyzed TBQL query, returning a cursor
// over the projected rows. The join runs lazily inside the cursor, so
// reading the first page of a huge hunt does first-page work. An open
// cursor pins an epoch snapshot of the stores its query touches: every
// page reflects the ingest frontier at creation time, and ingestion
// proceeds freely however long the cursor lives. Close a cursor you do
// not fully drain to free its match state and snapshot references.
//
//   - ctx (nil = never cancelled): cancelling it (a client disconnect,
//     a deadline, an operator kill) aborts the hunt's fetch waves and
//     join walk within a bounded amount of work, surfacing
//     exec.ErrHuntCancelled / exec.ErrHuntDeadline.
//   - limit is a row-need bound: the caller promises to read at most
//     limit rows (0 = unbounded). When the query shape allows it, the
//     engine pushes the bound into the per-shard data queries as a
//     fetch-side row cap, so a first-page hunt over a huge table fetches
//     page-scaled rows instead of the whole table. A capped cursor
//     (Stats().FetchCapped) must not be read past limit rows.
//   - tr receives the pipeline stages, so a caller that already traced
//     earlier stages (the daemon's parse and cache-lookup spans) gets
//     one contiguous span tree back from Cursor.Trace. A nil tr uses the
//     engine default.
//
// The query must not be mutated after being shared; execution treats
// it as read-only, so the daemon's query cache hands one analyzed query
// to concurrent hunts.
func (s *System) HuntQueryCursorCtx(ctx context.Context, q *Query, limit int, tr *obs.Trace) (*Cursor, error) {
	return s.engine.ExecuteCursor(ctx, q, limit, tr)
}

// HuntReport is the end-to-end pipeline: extract the threat behavior
// graph from the report, synthesize a TBQL query, and execute it.
func (s *System) HuntReport(report string, plan *SynthPlan) (*Query, *HuntResult, error) {
	g := s.ExtractBehavior(report)
	q, _, err := s.SynthesizeQuery(g, plan)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.HuntQuery(q)
	if err != nil {
		return q, nil, err
	}
	return q, res, nil
}

// Explain compiles and scores every pattern of a query without executing
// it, in the order the engine would schedule them, recording its stages
// as spans on tr (nil records nothing). Explain runs no data queries —
// it estimates and compiles only — so ctx (nil = never cancelled) is
// checked once at entry; a caller whose deadline already fired gets
// exec.ErrHuntDeadline instead of an explanation.
func (s *System) Explain(ctx context.Context, q *Query, tr *obs.Trace) ([]exec.ExplainedPattern, error) {
	return s.engine.Explain(ctx, q, tr)
}

// NumEvents reports how many events are stored.
func (s *System) NumEvents() int { return int(s.stored.Load()) }

// NumEntities reports how many entities are stored.
func (s *System) NumEntities() int { return s.countStoredEntities() }

// ShardStats summarises one per-host store shard. Entities are not
// listed per shard: they are broadcast, so every shard holds the full
// entity set.
type ShardStats struct {
	// Events is the shard's event-table row count.
	Events int `json:"events"`
	// GraphEdges is the shard's event-edge count.
	GraphEdges int `json:"graph_edges"`
	// Ingests counts the ingest batches that stored events in this shard.
	Ingests int64 `json:"ingests"`
}

// StoreStats summarises the sizes of both storage backends.
type StoreStats struct {
	Events     int `json:"events"`
	Entities   int `json:"entities"`
	GraphNodes int `json:"graph_nodes"`
	GraphEdges int `json:"graph_edges"`
	// Shards lists per-shard event-row and ingest counts, in shard
	// order (a single entry for an unsharded System).
	Shards []ShardStats `json:"shards"`
	// StatsSketches is the total number of sketch entries the
	// ingest-time cardinality trackers hold across all shards and both
	// backends — the memory footprint of the cost-based optimizer's
	// statistics, in entries (each a few bytes).
	StatsSketches int `json:"stats_sketches"`
}

// Stats reports current store sizes. Safe to call while ingesting and
// hunting; the counts are per-store snapshots, not a cross-store
// transaction.
func (s *System) Stats() StoreStats {
	st := StoreStats{
		Events:     s.NumEvents(),
		Entities:   s.NumEntities(),
		GraphNodes: s.graph.NumNodes(),
	}
	eventRows := s.rel.EventRows()
	edgeCounts := s.graph.EdgeCounts()
	st.Shards = make([]ShardStats, len(eventRows))
	for i := range st.Shards {
		st.Shards[i] = ShardStats{
			Events:     eventRows[i],
			GraphEdges: edgeCounts[i],
			Ingests:    s.shardIngests[i].Load(),
		}
		// Total the per-shard counts rather than re-walking the shards,
		// so the totals always agree with the breakdown even while
		// ingest is running.
		st.GraphEdges += edgeCounts[i]
	}
	for i := 0; i < s.rel.NumShards(); i++ {
		st.StatsSketches += s.rel.Shard(i).StatsFootprint()
	}
	for i := 0; i < s.graph.NumShards(); i++ {
		st.StatsSketches += s.graph.Shard(i).StatsFootprint()
	}
	return st
}

// FindEntities returns the entities whose named attribute equals value
// (attributes as in TBQL filters: exename, name, path, dstip, ...).
func (s *System) FindEntities(attr, value string) []*Entity {
	var out []*Entity
	for _, e := range s.parser.Entities() {
		if e.Attr(attr) == value {
			out = append(out, e)
		}
	}
	return out
}

// EntityByID returns the stored entity with the given ID, or nil.
func (s *System) EntityByID(id int64) *Entity { return s.parser.EntityByID(id) }

// Investigate runs forward or backward causality tracking from a
// point-of-interest entity over the ingested events (attack
// investigation, the workflow threat hunting hands off to once a hunt
// produces a hit).
func (s *System) Investigate(poi int64, opt TrackOptions) *CausalSubgraph {
	return provenance.Track(s.parser.Events(), poi, opt)
}
