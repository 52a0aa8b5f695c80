// Package service exposes a threatraptor.System over HTTP: the daemon
// API behind cmd/threatraptord. One long-running System serves many
// concurrent analysts — ingestion streams in over POST /ingest (shed
// with 429 + Retry-After beyond the configured queue bound) while hunts
// page through match sets with server-side persistent cursors: POST
// /hunt executes once against an epoch snapshot and returns a
// cursor_id, GET /hunt/next pages the pinned epoch with no
// re-execution and no pagination anomalies under concurrent ingest,
// DELETE /hunt/cursor closes it. Cursors are bounded by a TTL and an
// LRU cap, and each cursor's epoch stays pinned in a refcounted
// registry until its last reference goes.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/wal"
)

// DefaultHuntLimit is the page size used when a hunt request does not
// specify one.
const DefaultHuntLimit = 1000

// DefaultMaxPage is the default upper bound on a hunt page size
// (Config.MaxPage overrides). Before this bound existed a client could
// request limit=1e9 and drive the server to materialize the whole
// match set in one response; now such requests get a friendly 400.
const DefaultMaxPage = 10000

// MaxIngestBody caps a single POST /ingest body (256 MiB). Larger
// batches should be split; the cap also bounds how much memory one
// request can pin while buffering.
const MaxIngestBody = 256 << 20

// MaxQueryBody caps a /hunt or /explain request body (1 MiB); TBQL
// sources are short, so anything larger is a client error.
const MaxQueryBody = 1 << 20

// MaxConcurrentIngests is the default bound on how many /ingest
// requests may buffer bodies at once (Config.IngestQueue overrides).
// Ingestion itself is serialized by the System; this cap keeps N
// clients from pinning N×MaxIngestBody of heap while they queue.
// Requests beyond the cap get 429 with a Retry-After hint.
const MaxConcurrentIngests = 4

// DefaultCursorTTL is how long an idle server-side cursor survives
// before it expires (Config.CursorTTL overrides).
const DefaultCursorTTL = 2 * time.Minute

// DefaultMaxCursors caps how many server-side cursors may be open at
// once before the least-recently-used is evicted (Config.MaxCursors
// overrides).
const DefaultMaxCursors = 64

// DefaultPlanCacheSize is the default capacity of the engine's
// cross-hunt prepared-plan cache, re-exported for the daemon's
// -plan-cache flag.
const DefaultPlanCacheSize = exec.DefaultPlanCacheSize

// Config tunes the daemon's HTTP layer. The zero value means defaults.
type Config struct {
	// CursorTTL is the idle lifetime of a server-side hunt cursor; a
	// cursor unused for longer expires and further pages get 410.
	CursorTTL time.Duration
	// MaxCursors caps the cursor registry; registering beyond it evicts
	// the least-recently-used cursor.
	MaxCursors int
	// IngestQueue bounds concurrent /ingest body buffering; requests
	// beyond it are shed with 429 + Retry-After instead of blocking.
	IngestQueue int
	// MaxPage caps the per-request page size of POST /hunt and
	// GET /hunt/next; larger limits get 400 (default DefaultMaxPage).
	MaxPage int
	// QueryCache caps the TBQL text → analyzed-query LRU in front of
	// POST /hunt (0 = DefaultQueryCacheSize; negative disables it, so
	// every hunt re-parses).
	QueryCache int
	// WatchTTL is the idle lifetime of a standing hunt no consumer is
	// attached to (no open stream, no webhook); attached watches never
	// expire, and a disconnect restarts the countdown.
	WatchTTL time.Duration
	// MaxWatches caps the standing-hunt registry; registrations beyond
	// it get 429 (watches are never silently evicted for space).
	MaxWatches int
	// WatchBuffer is the default per-watch delivery buffer in batches; a
	// subscriber further behind is evicted rather than blocking ingest
	// (0 = the facade's DefaultWatchBuffer).
	WatchBuffer int
	// WebhookBackoff is the base delay between webhook delivery retries,
	// doubling per retry (default DefaultWebhookBackoff).
	WebhookBackoff time.Duration
	// WAL, when the daemon runs with a data dir, is the durability log
	// the System was built on. The server wires the cursor registry's
	// low-water mark into it so segment compaction never drops an epoch
	// an open cursor still pins.
	WAL *wal.Log
	// SlowHunt is the latency threshold above which POST /hunt emits a
	// structured slow-hunt log line with the span breakdown and query
	// fingerprint (0 = DefaultSlowHunt; negative disables the log).
	SlowHunt time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: profiles can reveal heap contents.
	Pprof bool
	// NoTrace disables per-hunt pipeline tracing at the HTTP layer: no
	// trace is created, and hunt/explain responses omit the span tree.
	// (Pair it with threatraptor.Options.DisableTracing to also stop the
	// engine from self-tracing untraced executions.)
	NoTrace bool
	// Logger receives the server's structured log lines (slow hunts);
	// nil means slog.Default().
	Logger *slog.Logger
	// Metrics is the latency-histogram bundle shared with the System and
	// WAL; the server observes hunt first-page latency into it and
	// exposes the whole bundle on GET /metrics (nil = a fresh bundle, so
	// /metrics always renders every histogram family).
	Metrics *obs.Metrics
	// HuntTimeout is the per-request execution deadline wrapped around
	// every /hunt, /hunt/next, and /explain (0 = none). A stateless hunt
	// past it answers 504 with the partial span breakdown; a cursor page
	// past it answers 504 but stays resumable — the interrupted rows are
	// queued for the retry.
	HuntTimeout time.Duration
	// MaxHunts bounds concurrent hunt executions (/hunt and /hunt/next
	// pages); excess requests are shed with 429 + Retry-After like the
	// ingest path (0 = unlimited).
	MaxHunts int
}

func (c Config) withDefaults() Config {
	if c.CursorTTL <= 0 {
		c.CursorTTL = DefaultCursorTTL
	}
	if c.MaxCursors <= 0 {
		c.MaxCursors = DefaultMaxCursors
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = MaxConcurrentIngests
	}
	if c.MaxPage <= 0 {
		c.MaxPage = DefaultMaxPage
	}
	if c.QueryCache == 0 {
		c.QueryCache = DefaultQueryCacheSize
	}
	if c.WatchTTL <= 0 {
		c.WatchTTL = DefaultWatchTTL
	}
	if c.MaxWatches <= 0 {
		c.MaxWatches = DefaultMaxWatches
	}
	if c.WebhookBackoff <= 0 {
		c.WebhookBackoff = DefaultWebhookBackoff
	}
	if c.SlowHunt == 0 {
		c.SlowHunt = DefaultSlowHunt
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// Server is the HTTP front end of a ThreatRaptor system. It implements
// http.Handler and is safe for concurrent requests: the underlying
// System synchronizes ingestion against hunts.
type Server struct {
	sys     *threatraptor.System
	mux     *http.ServeMux
	started time.Time
	cfg     Config

	hunts   atomic.Int64
	ingests atomic.Int64
	// executions counts query executions: one per POST /hunt. Pages
	// served from a registered cursor (GET /hunt/next) never re-execute,
	// so executions staying flat while cursor_pages climbs is the
	// observable proof of one-execution-per-cursor pagination.
	executions atomic.Int64
	// propSkipped accumulates Stats.PropagationsSkipped across hunts:
	// a growing count means hunts keep hitting the propagation cap and
	// falling back to unconstrained table fetches.
	propSkipped atomic.Int64
	// optReorders counts hunts whose cost-based schedule differed from
	// the static pruning-score order — how often the ingest-time stats
	// actually changed an execution.
	optReorders atomic.Int64

	// Lifecycle-governance counters: hunts that hit the -hunt-timeout
	// deadline, were cancelled by a client disconnect, were killed via
	// DELETE /debug/hunts/<id>, aborted on the -max-join-rows budget, or
	// were shed at the -max-hunts admission gate.
	huntsTimedOut  atomic.Int64
	huntsCancelled atomic.Int64
	huntsKilled    atomic.Int64
	huntsBudget    atomic.Int64
	huntsShed      atomic.Int64

	// cursors is the server-side cursor registry (TTL, LRU, epoch pins).
	cursors *cursorManager

	// watches is the standing-hunt subscription registry (TTL, hard cap).
	watches *watchManager

	// queries caches parsed+analyzed TBQL keyed on raw source text, so
	// repeat hunts skip parse and analysis (nil when disabled).
	queries *queryCache

	// ingestSlots is a semaphore bounding concurrent /ingest buffering.
	ingestSlots chan struct{}

	// huntSlots, when MaxHunts > 0, is the hunt admission semaphore:
	// /hunt and /hunt/next shed with 429 + Retry-After beyond it.
	huntSlots chan struct{}

	// baseCtx is cancelled by Close: long-lived background consumers
	// (webhook delivery and its retry backoff) abort on it so daemon
	// shutdown is not delayed by a dead sink.
	baseCtx   context.Context
	baseStop  context.CancelFunc
	closeOnce sync.Once

	// logger receives structured log lines (slow hunts); metrics is the
	// shared latency-histogram bundle; registry is the /metrics
	// exposition built over both plus the counters above.
	logger   *slog.Logger
	metrics  *obs.Metrics
	registry *obs.Registry

	// inflight tracks currently-running executions for GET /debug/hunts,
	// keyed by a registration sequence number.
	inflightMu  sync.Mutex
	inflightSeq uint64
	inflight    map[uint64]*inflightEntry
}

// New wraps a System with the daemon's HTTP API using default tuning.
func New(sys *threatraptor.System) *Server {
	return NewWithConfig(sys, Config{})
}

// NewWithConfig wraps a System with the daemon's HTTP API.
func NewWithConfig(sys *threatraptor.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:         sys,
		mux:         http.NewServeMux(),
		started:     time.Now(),
		cfg:         cfg,
		cursors:     newCursorManager(cfg.CursorTTL, cfg.MaxCursors),
		watches:     newWatchManager(cfg.WatchTTL, cfg.MaxWatches),
		queries:     newQueryCache(cfg.QueryCache),
		ingestSlots: make(chan struct{}, cfg.IngestQueue),
		logger:      cfg.Logger,
		metrics:     cfg.Metrics,
		inflight:    make(map[uint64]*inflightEntry),
	}
	if cfg.MaxHunts > 0 {
		s.huntSlots = make(chan struct{}, cfg.MaxHunts)
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.registry = s.buildRegistry()
	if cfg.WAL != nil {
		// Compaction must retain every epoch an open cursor pins: feed the
		// registry's low-water mark to the log.
		reg := s.cursors.reg
		cfg.WAL.SetLowWater(func() (uint64, bool) {
			e, ok := reg.LowWater()
			return uint64(e), ok
		})
	}
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/hunt", s.handleHunt)
	s.mux.HandleFunc("/hunt/next", s.handleHuntNext)
	s.mux.HandleFunc("/hunt/cursor", s.handleHuntCursor)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/watch", s.handleWatch)
	s.mux.HandleFunc("/watch/stream", s.handleWatchStream)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/hunts", s.handleDebugHunts)
	s.mux.HandleFunc("/debug/hunts/", s.handleDebugHuntKill)
	if cfg.Pprof {
		s.mountPprof()
	}
	return s
}

// Close releases the server's background consumers: webhook pumps
// abort their in-flight deliveries and backoff waits, so shutdown is
// never held hostage by a dead sink. It does not close cursors or
// watches — the process is exiting and their state is in-memory only.
// Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(s.baseStop)
}

// ServeHTTP dispatches to the daemon's endpoints. Every request gets a
// request id, echoed in the X-Request-Id response header and carried in
// the context so handlers stamp it into trace spans and log lines.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := newRequestID()
	w.Header().Set("X-Request-Id", rid)
	r = r.WithContext(context.WithValue(r.Context(), requestIDKey, rid))
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// errHuntKilled is the cancellation cause installed by the
// DELETE /debug/hunts/<id> kill switch: an operator explicitly aborted
// the hunt.
var errHuntKilled = errors.New("hunt killed via DELETE /debug/hunts")

// statusClientClosedRequest is the (nginx-popularized) status recorded
// for a hunt aborted because its client disconnected mid-execution. No
// client reads the response; the code keeps access logs and tests
// truthful about why the execution stopped.
const statusClientClosedRequest = 499

// huntCtx derives the execution context for one hunt-shaped request:
// the HTTP request context (so a client disconnect aborts the hunt
// mid-wave), wrapped in the configured -hunt-timeout deadline, wrapped
// in a cancel-with-cause hook that the kill switch and cursor eviction
// fire. cleanup must run when the request finishes.
func (s *Server) huntCtx(r *http.Request) (ctx context.Context, kill context.CancelCauseFunc, cleanup func()) {
	ctx = r.Context()
	cancelTimeout := func() {}
	if s.cfg.HuntTimeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, s.cfg.HuntTimeout)
	}
	ctx, kill = context.WithCancelCause(ctx)
	return ctx, kill, func() {
		kill(nil)
		cancelTimeout()
	}
}

// admitHunt takes a hunt admission slot, shedding with 429 + Retry-After
// when -max-hunts executions are already in flight (the same contract as
// the ingest queue). The returned release must run when the hunt
// finishes; it is a no-op when admission is unlimited.
func (s *Server) admitHunt(w http.ResponseWriter) (release func(), ok bool) {
	if s.huntSlots == nil {
		return func() {}, true
	}
	select {
	case s.huntSlots <- struct{}{}:
		return func() { <-s.huntSlots }, true
	default:
		s.huntsShed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"too many concurrent hunts (max %d); retry shortly", cap(s.huntSlots))
		return nil, false
	}
}

// abortStatus maps a hunt lifecycle error to its HTTP status and bumps
// the matching counter: a deadline is 504, a join budget 422, and a
// cancellation 503 when the kill switch caused it, 410 when eviction
// took the page's cursor away (no counter: the hunt did not fail), and
// 499 — a client disconnect — otherwise. Any other error maps to 0 and
// is left to the caller.
func (s *Server) abortStatus(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, exec.ErrHuntDeadline):
		s.huntsTimedOut.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, exec.ErrJoinBudget):
		s.huntsBudget.Add(1)
		return http.StatusUnprocessableEntity
	case !errors.Is(err, exec.ErrHuntCancelled):
		return 0
	}
	switch cause := context.Cause(ctx); {
	case errors.Is(cause, errCursorEvicted):
		return http.StatusGone
	case errors.Is(cause, errHuntKilled):
		s.huntsKilled.Add(1)
		return http.StatusServiceUnavailable
	default:
		s.huntsCancelled.Add(1)
		return statusClientClosedRequest
	}
}

// writeHuntAbort answers a hunt or explain request that a lifecycle
// error aborted (abortStatus), annotating the trace with an "aborted"
// span so even a timed-out hunt gets its partial span breakdown. It
// reports whether err was a lifecycle abort; any other error is left to
// the caller's ordinary mapping.
func (s *Server) writeHuntAbort(w http.ResponseWriter, ctx context.Context, err error, tr *obs.Trace) bool {
	status := s.abortStatus(ctx, err)
	if status == 0 {
		return false
	}
	sp := tr.Begin("aborted", -1)
	tr.EndNote(sp, err.Error())
	body := map[string]any{"error": err.Error()}
	if t := tr.JSON(); t != nil {
		body["trace"] = t
	}
	writeJSON(w, status, body)
	return true
}

// readBody buffers the request body under the given cap. A body over
// the cap reports 413; any other read failure is the client's 400.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds the %d-byte limit", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %v", err)
	}
	return body, 0, nil
}

// IngestResponse is the JSON body returned by POST /ingest.
type IngestResponse struct {
	Entities     int     `json:"entities"`
	EventsIn     int     `json:"events_in"`
	EventsStored int     `json:"events_stored"`
	CPRReduction float64 `json:"cpr_reduction"`
	ParseErrors  int     `json:"parse_errors"`
}

// handleIngest streams audit log lines from the request body into the
// system: POST /ingest with a Sysdig-style log as the body.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "ingest wants POST, got %s", r.Method)
		return
	}
	select {
	case s.ingestSlots <- struct{}{}:
		defer func() { <-s.ingestSlots }()
	default:
		// Shed instead of queueing: the client retries after the hinted
		// delay, and no memory is pinned for a batch we cannot start.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"too many concurrent ingest batches (max %d); retry shortly", cap(s.ingestSlots))
		return
	}
	// Buffer the body before ingesting: IngestLogs serializes ingestion
	// batches, and parsing straight from the network would let one slow
	// client hold that lock for as long as it cares to trickle bytes.
	body, status, err := readBody(w, r, MaxIngestBody)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	stats, err := s.sys.IngestLogs(bytes.NewReader(body))
	if err != nil {
		// Parse failures are the client's fault; storage failures are
		// ours; a degraded durability log means the whole service is
		// read-only until an operator intervenes — 503, retry elsewhere.
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, threatraptor.ErrDegraded):
			status = http.StatusServiceUnavailable
		case errors.Is(err, threatraptor.ErrStorage):
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	s.ingests.Add(1)
	writeJSON(w, http.StatusOK, IngestResponse{
		Entities:     stats.Entities,
		EventsIn:     stats.EventsIn,
		EventsStored: stats.EventsStored,
		CPRReduction: stats.CPRReduction,
		ParseErrors:  stats.ParseErrors,
	})
}

// HuntRequest is the JSON body accepted by POST /hunt. The body may
// instead be raw TBQL source (any non-JSON content type), with limit
// and offset given as URL query parameters (no_cursor as no_cursor=1).
// NoCursor declines a server-side cursor: the hunt fetches only the
// requested page (plus one look-ahead row) when the query shape allows
// the engine to push that bound into the per-shard data queries, and
// pages on statelessly via next_offset. Offset-paging requests
// (offset > 0) are capped the same way — they never register a cursor.
type HuntRequest struct {
	Query    string `json:"query"`
	Limit    int    `json:"limit"`
	Offset   int    `json:"offset"`
	NoCursor bool   `json:"no_cursor"`
}

// HuntStats is the execution summary embedded in a hunt response.
// PropagationsSkipped counts shared-entity constraints dropped because
// the candidate set exceeded the engine's propagation cap — the signal
// that this hunt fetched an unconstrained table. JoinCandidates counts
// the join work actually done for the requested page (the join is
// lazy), not the whole match space.
type HuntStats struct {
	RowsFetched         int  `json:"rows_fetched"`
	Propagations        int  `json:"propagations"`
	PropagationsSkipped int  `json:"propagations_skipped"`
	ShortCircuit        bool `json:"short_circuit"`
	JoinCandidates      int  `json:"join_candidates"`
	// ShardFetches counts per-shard data-query executions; a pattern
	// filtering host = '...' is pruned to one shard instead of fanning
	// out across all of them.
	ShardFetches int `json:"shard_fetches"`
	// PlanCacheHits/Misses count this hunt's plan-template resolutions
	// against the cross-hunt prepared-plan cache: a repeated hunt is
	// all hits and compiles no SQL/Cypher at all.
	PlanCacheHits   int `json:"plan_cache_hits"`
	PlanCacheMisses int `json:"plan_cache_misses"`
	// CostBased reports that the cost optimizer ordered this hunt's
	// patterns from ingest-time cardinality stats; Reordered that the
	// result differed from the static pruning-score order; FetchCapped
	// that the page bound was pushed into the per-shard data queries.
	CostBased   bool `json:"cost_based"`
	Reordered   bool `json:"reordered"`
	FetchCapped bool `json:"fetch_capped"`
}

// HuntResponse is one page of hunt results. When more rows remain
// beyond this page, CursorID names a server-side cursor pinned at the
// hunt's epoch: GET /hunt/next?cursor=<id> pages on with no query
// re-execution and no skip/repeat anomalies under concurrent ingest.
// NextOffset is the legacy offset-paging hint (each offset page
// re-executes against the then-current store); it remains for clients
// that prefer stateless paging.
type HuntResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Offset  int        `json:"offset"`
	Count   int        `json:"count"`
	// Epoch is the ingest epoch the hunt's snapshot was captured at;
	// every page of one cursor reports the same epoch.
	Epoch      uint64    `json:"epoch"`
	CursorID   string    `json:"cursor_id,omitempty"`
	NextOffset *int      `json:"next_offset,omitempty"`
	Stats      HuntStats `json:"stats"`
	// Trace is the hunt's pipeline span tree — parse through fetch waves
	// to first row — absent when the server runs with tracing disabled.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

func (s *Server) huntRequest(w http.ResponseWriter, r *http.Request) (HuntRequest, int, error) {
	var req HuntRequest
	body, status, err := readBody(w, r, MaxQueryBody)
	if err != nil {
		return req, status, err
	}
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(body, &req); err != nil {
			return req, http.StatusBadRequest, fmt.Errorf("bad JSON body: %v", err)
		}
	} else {
		req.Query = string(body)
	}
	q := r.URL.Query()
	for name, dst := range map[string]*int{"limit": &req.Limit, "offset": &req.Offset} {
		if raw := q.Get(name); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil {
				return req, http.StatusBadRequest, fmt.Errorf("bad %s %q", name, raw)
			}
			*dst = n
		}
	}
	if raw := q.Get("no_cursor"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			return req, http.StatusBadRequest, fmt.Errorf("bad no_cursor %q", raw)
		}
		req.NoCursor = v
	}
	if req.Limit < 0 || req.Offset < 0 {
		return req, http.StatusBadRequest, fmt.Errorf("limit and offset must be non-negative")
	}
	if req.Limit, err = s.pageLimit(req.Limit); err != nil {
		return req, http.StatusBadRequest, fmt.Errorf("%v; page with cursor_id or next_offset instead", err)
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, http.StatusBadRequest, fmt.Errorf("empty TBQL query")
	}
	return req, 0, nil
}

// pageLimit validates a requested page size against MaxPage, the one
// bound POST /hunt and GET /hunt/next share; 0 selects the default
// page size (DefaultHuntLimit, clamped to MaxPage).
func (s *Server) pageLimit(n int) (int, error) {
	if n > s.cfg.MaxPage {
		return 0, fmt.Errorf("limit %d exceeds the maximum page size %d", n, s.cfg.MaxPage)
	}
	if n == 0 {
		n = min(DefaultHuntLimit, s.cfg.MaxPage)
	}
	return n, nil
}

// serve reads one page of at most limit rows from cur: the one paging
// path of POST /hunt and GET /hunt/next. Queued rows go first, then
// fresh rows, then — when the page filled from the cursor — one
// look-ahead row, queued as the next page's first, tells whether more
// remain. A deadline or cancellation stashes the partial page back on
// the queue with the offset unmoved, so a retry re-serves exactly these
// rows. Row guarantees each row is freshly allocated, so rows are kept
// without copying. Stats are read after the look-ahead.
func (p *pageState) serve(cur *threatraptor.Cursor, limit int) (resp HuntResponse, more bool, err error) {
	rows := make([][]string, 0, min(limit, 64))
	for len(rows) < limit && len(p.pending) > 0 {
		rows = append(rows, p.pending[0])
		p.pending = p.pending[1:]
	}
	for len(rows) < limit && cur.Next() {
		rows = append(rows, cur.Row())
	}
	more = len(p.pending) > 0
	if !more && len(rows) == limit && cur.Next() {
		p.pending = append(p.pending, cur.Row())
		more = true
	}
	resp = HuntResponse{Columns: cur.Columns(), Rows: rows, Offset: p.offset, Count: len(rows),
		Epoch: uint64(cur.Epoch())}
	if err = cur.Err(); errors.Is(err, exec.ErrHuntCancelled) || errors.Is(err, exec.ErrHuntDeadline) {
		p.pending = append(rows, p.pending...)
	} else {
		p.offset += len(rows)
	}
	if more {
		next := p.offset
		resp.NextOffset = &next
	}
	st := cur.Stats()
	resp.Stats = HuntStats{
		RowsFetched:         st.RowsFetched,
		Propagations:        st.Propagations,
		PropagationsSkipped: st.PropagationsSkipped,
		ShortCircuit:        st.ShortCircuit,
		JoinCandidates:      st.JoinCandidates,
		ShardFetches:        st.ShardFetches,
		PlanCacheHits:       st.PlanCacheHits,
		PlanCacheMisses:     st.PlanCacheMisses,
		CostBased:           st.CostBased,
		Reordered:           st.Reordered,
		FetchCapped:         st.FetchCapped,
	}
	return resp, more, err
}

// handleHunt executes TBQL source and returns one page of projected
// rows, driven by the streaming cursor so only the requested page is
// materialized. When more rows remain, the cursor is registered
// server-side and the response's cursor_id resumes it: the whole hunt
// costs one execution no matter how many pages follow, and every page
// reads the same pinned epoch.
func (s *Server) handleHunt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "hunt wants POST, got %s", r.Method)
		return
	}
	start := time.Now()
	req, status, err := s.huntRequest(w, r)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	// The body read above may have outlived the client; skip execution
	// when nobody is left to read the answer.
	if r.Context().Err() != nil {
		s.huntsCancelled.Add(1)
		return
	}
	release, admitted := s.admitHunt(w)
	if !admitted {
		return
	}
	defer release()
	hctx, kill, huntDone := s.huntCtx(r)
	defer huntDone()
	rid := requestID(r.Context())
	finish := s.trackInflight("hunt", rid, req.Query, kill)
	defer finish()
	// One trace per hunt, threaded through the engine so the response
	// (and the slow-hunt log) carries the full pipeline span tree.
	var tr *obs.Trace
	if !s.cfg.NoTrace {
		tr = obs.NewTrace()
		tr.SetRequestID(rid)
	}
	// The query cache fronts parsing: repeat hunts (offset-paging
	// clients, refreshed dashboards) resolve their analyzed form by raw
	// source text and skip parse+analysis. Execution never mutates an
	// analyzed query, so one cached *Query serves concurrent hunts.
	parseSp := tr.Begin("parse", -1)
	q := s.queries.get(req.Query)
	if q != nil {
		tr.EndNote(parseSp, "query_cache=hit")
	} else {
		q, err = s.sys.ParseQuery(req.Query)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.queries.put(req.Query, q)
		tr.EndNote(parseSp, "query_cache=miss")
	}
	// A hunt that cannot register a cursor — the client declined one or
	// is already offset-paging — is bounded at the skipped offset plus
	// the page plus the one look-ahead row that decides whether more
	// pages remain; when the query shape allows it the engine pushes
	// that bound into the per-shard data queries so a small page does
	// small fetch work. A cursor-eligible hunt must fetch uncapped: its
	// one execution serves every later page.
	var cur *threatraptor.Cursor
	if req.NoCursor || req.Offset > 0 {
		cur, err = s.sys.HuntQueryCursorCtx(hctx, q, req.Offset+req.Limit+1, tr)
	} else {
		cur, err = s.sys.HuntQueryCursorCtx(hctx, q, 0, tr)
	}
	if err != nil {
		if s.writeHuntAbort(w, hctx, err, tr) {
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	registered := false
	defer func() {
		if !registered {
			cur.Close()
		}
	}()
	s.hunts.Add(1)
	s.executions.Add(1)

	pageSp := tr.Begin("page", -1)
	for skipped := 0; skipped < req.Offset; skipped++ {
		if !cur.Next() {
			break
		}
	}
	page := pageState{offset: req.Offset}
	resp, more, err := page.serve(cur, req.Limit)
	tr.End(pageSp)
	s.propSkipped.Add(int64(resp.Stats.PropagationsSkipped))
	if resp.Stats.Reordered {
		s.optReorders.Add(1)
	}
	// The join runs lazily inside the cursor, so an iteration error can
	// surface mid-page; report it instead of a truncated row set.
	if err != nil {
		if s.writeHuntAbort(w, hctx, err, tr) {
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Register the cursor — with the consumed look-ahead row queued as
	// the next page's first row — so GET /hunt/next pages this one
	// execution; from here the registry owns Close. A request with a
	// non-zero offset is a client already paging statelessly
	// (re-executing per page): registering its cursor every page would
	// churn the LRU registry and evict other analysts' live cursors, so
	// only offset-0 hunts register. A no_cursor or fetch-capped hunt
	// cannot register either — its fetch stopped at the page bound, so
	// later pages re-execute via next_offset.
	if more && req.Offset == 0 && !req.NoCursor && !resp.Stats.FetchCapped {
		resp.CursorID = s.cursors.put(cur, page)
		registered = true
	}
	resp.Trace = tr.JSON()
	elapsed := time.Since(start)
	s.metrics.HuntFirstPage.Observe(elapsed.Seconds())
	if s.cfg.SlowHunt > 0 && elapsed >= s.cfg.SlowHunt {
		s.logger.Warn("slow hunt",
			"request_id", rid,
			"fingerprint", obs.Fingerprint(req.Query),
			"dur_ms", elapsed.Milliseconds(),
			"rows", resp.Count,
			"epoch", resp.Epoch,
			"spans", tr.Breakdown(),
		)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHuntNext serves the next page of a registered cursor:
// GET /hunt/next?cursor=<id>[&limit=N]. The page comes straight from
// the cursor's pinned epoch snapshot — no re-execution, no skipped or
// repeated rows however much has been ingested since the hunt began.
// An unknown, expired, or evicted cursor gets 410 Gone; start the hunt
// again with POST /hunt.
func (s *Server) handleHuntNext(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "hunt/next wants GET, got %s", r.Method)
		return
	}
	q := r.URL.Query()
	id := q.Get("cursor")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing cursor parameter")
		return
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		limit = n
	}
	limit, err := s.pageLimit(limit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e := s.cursors.acquire(id)
	if e == nil {
		writeError(w, http.StatusGone, "unknown or expired cursor %q; re-run the hunt", id)
		return
	}
	release, admitted := s.admitHunt(w)
	if !admitted {
		return
	}
	defer release()
	hctx, kill, huntDone := s.huntCtx(r)
	defer huntDone()
	finish := s.trackInflight("hunt/next", requestID(r.Context()), "cursor "+idPrefix(id), kill)
	defer finish()
	// Expose the page's cancel hook to eviction: closeAll fires it, so an
	// LRU victim's in-flight page aborts instead of making the evictor
	// wait out however much join work the page had left.
	e.setPageCancel(kill)
	defer e.setPageCancel(nil)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		writeError(w, http.StatusGone, "unknown or expired cursor %q; re-run the hunt", id)
		return
	}
	// Each page runs under its own request's context: install it before
	// iterating (this also clears a previous page's interrupt so a
	// timed-out cursor resumes cleanly).
	e.cur.SetContext(hctx)
	resp, more, err := e.serve(e.cur, limit)
	e.mu.Unlock()

	if err != nil {
		switch status := s.abortStatus(hctx, err); status {
		case http.StatusGone:
			// Eviction (or an explicit close) took the cursor out from
			// under this page; it is already detached and closed.
			writeError(w, status, "cursor %q evicted mid-page; re-run the hunt", id)
		case http.StatusGatewayTimeout, statusClientClosedRequest:
			// Resumable: the partial page is queued, so retrying this
			// request serves it with no rows lost or repeated.
			writeError(w, status, "%v; cursor %q remains resumable", err, id)
		default:
			if status == 0 {
				status = http.StatusInternalServerError
			}
			s.cursors.remove(id)
			writeError(w, status, "%v", err)
		}
		return
	}
	if more {
		resp.CursorID = id
	} else {
		// Exhausted: close and forget the cursor, releasing its epoch pin.
		s.cursors.remove(id)
	}
	s.cursors.pages.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// handleHuntCursor closes a registered cursor explicitly:
// DELETE /hunt/cursor?cursor=<id>. Closing releases the cursor's match
// state and epoch pin immediately instead of waiting for TTL expiry.
func (s *Server) handleHuntCursor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "hunt/cursor wants DELETE, got %s", r.Method)
		return
	}
	id := r.URL.Query().Get("cursor")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing cursor parameter")
		return
	}
	if !s.cursors.remove(id) {
		writeError(w, http.StatusGone, "unknown or expired cursor %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

// ExplainedPattern is one pattern of an explain response, in scheduled
// order. Propagated lists the entity variables the pattern shares with
// earlier scheduled patterns — the ones that receive propagated IN-list
// constraints at run time unless the candidate set exceeds the
// propagation cap (see the stats' propagations_skipped).
type ExplainedPattern struct {
	Name      string `json:"name"`
	Backend   string `json:"backend"`
	Score     int    `json:"score"`
	DataQuery string `json:"data_query"`
	// EstRows is the optimizer's cardinality estimate for the pattern
	// (-1 when the cost optimizer is disabled or the pattern could not
	// be estimated); CostBased reports whether the listed order came
	// from those estimates rather than static pruning scores.
	EstRows    int64    `json:"est_rows"`
	CostBased  bool     `json:"cost_based"`
	Propagated []string `json:"propagated,omitempty"`
	// Hosts lists the host constants the pattern is pinned to (absent
	// when unconstrained); on a sharded store the pattern's data query
	// only visits those hosts' shards.
	Hosts []string `json:"hosts,omitempty"`
}

// handleExplain compiles and scores a TBQL query without executing it:
// GET /explain?q=... or POST /explain with the TBQL source as the body.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var src string
	switch r.Method {
	case http.MethodGet:
		src = r.URL.Query().Get("q")
	case http.MethodPost:
		raw, status, err := readBody(w, r, MaxQueryBody)
		if err != nil {
			writeError(w, status, "%v", err)
			return
		}
		src = string(raw)
	default:
		writeError(w, http.StatusMethodNotAllowed, "explain wants GET or POST, got %s", r.Method)
		return
	}
	if strings.TrimSpace(src) == "" {
		writeError(w, http.StatusBadRequest, "empty TBQL query (use ?q= or a POST body)")
		return
	}
	rid := requestID(r.Context())
	hctx, kill, huntDone := s.huntCtx(r)
	defer huntDone()
	finish := s.trackInflight("explain", rid, src, kill)
	defer finish()
	var tr *obs.Trace
	if !s.cfg.NoTrace {
		tr = obs.NewTrace()
		tr.SetRequestID(rid)
	}
	parseSp := tr.Begin("parse", -1)
	q, err := s.sys.ParseQuery(src)
	tr.End(parseSp)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	patterns, err := s.sys.Explain(hctx, q, tr)
	if err != nil {
		if s.writeHuntAbort(w, hctx, err, tr) {
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := make([]ExplainedPattern, len(patterns))
	for i, p := range patterns {
		out[i] = ExplainedPattern{
			Name: p.Name, Backend: p.Backend, Score: p.Score,
			DataQuery: p.DataQuery, EstRows: p.EstRows, CostBased: p.CostBased,
			Propagated: p.Propagated, Hosts: p.Hosts,
		}
	}
	body := map[string]any{"patterns": out}
	if t := tr.JSON(); t != nil {
		body["trace"] = t
	}
	writeJSON(w, http.StatusOK, body)
}

// StatsResponse is the JSON body returned by GET /stats.
type StatsResponse struct {
	threatraptor.StoreStats
	Hunts   int64 `json:"hunts"`
	Ingests int64 `json:"ingests"`
	// HuntExecutions counts query executions (one per POST /hunt).
	// Cursor pages never re-execute, so this staying flat while
	// cursor_pages climbs is deep pagination working as designed.
	HuntExecutions int64 `json:"hunt_executions"`
	// Epoch is the current ingest epoch (one per ingest commit).
	Epoch uint64 `json:"epoch"`
	// OpenCursors is the number of registered server-side cursors;
	// EpochsPinned counts the distinct epochs they hold live. Cursor
	// pages, expiries (TTL), and evictions (LRU cap) are lifetime
	// counters.
	OpenCursors    int   `json:"open_cursors"`
	EpochsPinned   int   `json:"epochs_pinned"`
	CursorPages    int64 `json:"cursor_pages"`
	CursorsExpired int64 `json:"cursors_expired"`
	CursorsEvicted int64 `json:"cursors_evicted"`
	// WatchesActive is the number of registered standing hunts;
	// WatchesOpened, WatchBatches, WatchRows, WatchEvictions,
	// WatchesExpired, WatchWebhookRetries, and WatchWebhookFailures are
	// lifetime counters. Evictions count slow subscribers the System
	// dropped to keep the ingest path unblocked; expiries count watches
	// that idled past the TTL with no consumer attached.
	WatchesActive        int   `json:"watches_active"`
	WatchesOpened        int64 `json:"watches_opened"`
	WatchBatches         int64 `json:"watch_batches"`
	WatchRows            int64 `json:"watch_rows"`
	WatchEvictions       int64 `json:"watch_evictions"`
	WatchesExpired       int64 `json:"watches_expired"`
	WatchWebhookRetries  int64 `json:"watch_webhook_retries"`
	WatchWebhookFailures int64 `json:"watch_webhook_failures"`
	// PropagationsSkipped is the cumulative count of propagation
	// constraints hunts dropped for exceeding the engine's propagation
	// cap; when it climbs, hunts are silently fetching whole tables.
	// The prepared-plan pipeline's 25600 default makes this rare.
	PropagationsSkipped int64 `json:"propagations_skipped"`
	// OptimizerReorders counts hunts the cost optimizer scheduled
	// differently from the static pruning-score order.
	OptimizerReorders int64 `json:"optimizer_reorders"`
	// HuntsTimedOut, HuntsCancelled, HuntsKilled, HuntsBudgetExceeded,
	// and HuntsShed are the lifecycle-governance counters: hunts aborted
	// by the -hunt-timeout deadline, by a client disconnect, by the
	// DELETE /debug/hunts/<id> kill switch, by the -max-join-rows budget,
	// or shed at the -max-hunts admission gate.
	HuntsTimedOut       int64 `json:"hunts_timed_out"`
	HuntsCancelled      int64 `json:"hunts_cancelled"`
	HuntsKilled         int64 `json:"hunts_killed"`
	HuntsBudgetExceeded int64 `json:"hunts_budget_exceeded"`
	HuntsShed           int64 `json:"hunts_shed"`
	// PlanCacheHits/Misses are the prepared-plan cache's cumulative
	// counters; PlanCacheSize is how many plan templates it currently
	// holds. Hits climbing while misses stay flat is the repeat-hunt
	// workload skipping compile+parse entirely.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	PlanCacheSize   int   `json:"plan_cache_size"`
	// QueryCacheHits/Misses count POST /hunt lookups of the TBQL text →
	// analyzed-query cache; QueryCacheSize is its current entry count.
	// A hit skips parse and analysis entirely.
	QueryCacheHits   int64 `json:"query_cache_hits"`
	QueryCacheMisses int64 `json:"query_cache_misses"`
	QueryCacheSize   int   `json:"query_cache_size"`
	// DegradedReason is non-empty when the durability log hit a disk
	// fault and ingestion is refused with 503 (hunts keep working).
	DegradedReason string `json:"degraded_reason,omitempty"`
	// RecoveredEpoch / RecoveredCommits / RecoveredDroppedBytes report
	// this process's restart recovery: the highest epoch restored, the
	// commits replayed (segments + WAL tail), and the bytes discarded at
	// the first torn record. RecoveredClean means the previous shutdown
	// wrote its clean marker, so no tail truncation was possible. All
	// zero for a memory-only daemon or a fresh data dir.
	RecoveredEpoch        uint64 `json:"recovered_epoch"`
	RecoveredCommits      int    `json:"recovered_commits"`
	RecoveredDroppedBytes int64  `json:"recovered_dropped_bytes"`
	RecoveredClean        bool   `json:"recovered_clean"`
	// WALRecords/WALSyncs are lifetime durability-log counters;
	// SegmentSets is the current on-disk segment-set count, with
	// SegmentFlushes and Compactions as lifetime counters. All zero for
	// a memory-only daemon.
	WALRecords     int64   `json:"wal_records"`
	WALSyncs       int64   `json:"wal_syncs"`
	SegmentSets    int     `json:"segment_sets"`
	SegmentFlushes int64   `json:"segment_flushes"`
	Compactions    int64   `json:"compactions"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// handleStats reports store sizes and request counters. Reading stats
// also sweeps expired cursors, so the reported counts reflect the TTL.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "stats wants GET, got %s", r.Method)
		return
	}
	s.cursors.sweep()
	s.watches.sweep()
	watchOpened, watchBatches, watchRows, watchEvicted := s.sys.WatchTotals()
	planHits, planMisses, planSize := s.sys.PlanCacheStats()
	qHits, qMisses, qSize := s.queries.counters()
	recovery := s.sys.Recovery()
	walStats := s.sys.WALStats()
	writeJSON(w, http.StatusOK, StatsResponse{
		StoreStats:            s.sys.Stats(),
		Hunts:                 s.hunts.Load(),
		Ingests:               s.ingests.Load(),
		HuntExecutions:        s.executions.Load(),
		Epoch:                 uint64(s.sys.Epoch()),
		OpenCursors:           s.cursors.open(),
		EpochsPinned:          s.cursors.reg.Pinned(),
		CursorPages:           s.cursors.pages.Load(),
		CursorsExpired:        s.cursors.expired.Load(),
		CursorsEvicted:        s.cursors.evicted.Load(),
		WatchesActive:         s.watches.open(),
		WatchesOpened:         watchOpened,
		WatchBatches:          watchBatches,
		WatchRows:             watchRows,
		WatchEvictions:        watchEvicted,
		WatchesExpired:        s.watches.expired.Load(),
		WatchWebhookRetries:   s.watches.webhookRetries.Load(),
		WatchWebhookFailures:  s.watches.webhookFailures.Load(),
		PropagationsSkipped:   s.propSkipped.Load(),
		OptimizerReorders:     s.optReorders.Load(),
		HuntsTimedOut:         s.huntsTimedOut.Load(),
		HuntsCancelled:        s.huntsCancelled.Load(),
		HuntsKilled:           s.huntsKilled.Load(),
		HuntsBudgetExceeded:   s.huntsBudget.Load(),
		HuntsShed:             s.huntsShed.Load(),
		PlanCacheHits:         planHits,
		PlanCacheMisses:       planMisses,
		PlanCacheSize:         planSize,
		QueryCacheHits:        qHits,
		QueryCacheMisses:      qMisses,
		QueryCacheSize:        qSize,
		DegradedReason:        walStats.DegradedReason,
		RecoveredEpoch:        recovery.Epoch,
		RecoveredCommits:      recovery.Commits,
		RecoveredDroppedBytes: recovery.DroppedBytes,
		RecoveredClean:        recovery.Clean,
		WALRecords:            walStats.Records,
		WALSyncs:              walStats.Syncs,
		SegmentSets:           walStats.SegmentSets,
		SegmentFlushes:        walStats.SegmentFlushes,
		Compactions:           walStats.Compactions,
		UptimeSeconds:         time.Since(s.started).Seconds(),
	})
}
