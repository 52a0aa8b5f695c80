package relstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: its name and ordered columns.
type Schema struct {
	Name    string
	Columns []Column
}

// Table is an in-memory table with optional hash and ordered indexes.
// It is safe for concurrent use: writers (Insert, index creation) take
// the table's write lock, and the query executor holds the read lock of
// every bound table for the duration of a statement, so a query sees one
// consistent snapshot even while other goroutines ingest.
type Table struct {
	schema Schema
	colIdx map[string]int

	// mu guards rows and hashIdx. The executor in sqlexec.go acquires it
	// (read side) once per statement and then reads rows directly; every
	// other access goes through the locked methods below.
	mu   sync.RWMutex
	rows [][]Value

	// hash indexes: column position -> value key -> row ids.
	hashIdx map[int]map[string][]int

	// Ingest-time cardinality sketches (stats.go), all guarded by mu:
	// distinct-growth arrays for hash-indexed tracked columns, per-value
	// trackers for unindexed tracked columns, min/max checkpoints for
	// range-tracked columns.
	statsGrowth map[int][]int32
	statsVals   map[int]*valTracker
	statsRange  map[int]*rangeTracker
	// statsValsL/statsRangeL mirror the tracker maps as slices for the
	// insert hot path: ranging a slice costs nothing when empty and
	// avoids per-insert map-iterator setup (observeStats).
	statsValsL  []colValTracker
	statsRangeL []colRangeTracker

	// orderMu guards orderIdx and orderDirty. Ordered indexes rebuild
	// lazily on the read path (lookupRange), which runs under mu's read
	// lock — orderMu serializes the rebuild among concurrent readers.
	// Lock order is always mu before orderMu.
	orderMu sync.Mutex
	// ordered indexes: column position -> row ids sorted by column value.
	orderIdx map[int][]int
	// orderDirty marks ordered indexes needing a rebuild after inserts.
	orderDirty map[int]bool
}

// NewTable creates an empty table for the schema.
func NewTable(s Schema) (*Table, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("relstore: table needs a name")
	}
	t := &Table{
		schema:     s,
		colIdx:     make(map[string]int, len(s.Columns)),
		hashIdx:    make(map[int]map[string][]int),
		orderIdx:   make(map[int][]int),
		orderDirty: make(map[int]bool),
	}
	for i, c := range s.Columns {
		name := strings.ToLower(c.Name)
		if _, dup := t.colIdx[name]; dup {
			return nil, fmt.Errorf("relstore: duplicate column %q in table %q", c.Name, s.Name)
		}
		t.colIdx[name] = i
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// ColIndex resolves a column name to its position, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// CreateHashIndex builds a hash index on the named column for O(1)
// equality lookups.
func (t *Table) CreateHashIndex(col string) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("relstore: no column %q in table %q", col, t.schema.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[string][]int)
	for rid, row := range t.rows {
		k := row[ci].key()
		idx[k] = append(idx[k], rid)
	}
	t.hashIdx[ci] = idx
	return nil
}

// CreateOrderedIndex builds an ordered index on the named column for
// range scans.
func (t *Table) CreateOrderedIndex(col string) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("relstore: no column %q in table %q", col, t.schema.Name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.orderMu.Lock()
	defer t.orderMu.Unlock()
	t.rebuildOrdered(ci)
	return nil
}

// rebuildOrdered sorts the row ids for column ci. Callers must hold at
// least the read side of mu (rows must not move) and orderMu.
func (t *Table) rebuildOrdered(ci int) {
	ids := make([]int, len(t.rows))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return Compare(t.rows[ids[a]][ci], t.rows[ids[b]][ci]) < 0
	})
	t.orderIdx[ci] = ids
	t.orderDirty[ci] = false
}

// Insert appends a row, validating arity and types, and maintains hash
// indexes incrementally. Ordered indexes are rebuilt lazily on next use.
// Insert is safe to call concurrently with queries and other inserts.
func (t *Table) Insert(row []Value) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("relstore: table %q wants %d values, got %d", t.schema.Name, len(t.schema.Columns), len(row))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if v.Kind != t.schema.Columns[i].Type {
			return fmt.Errorf("relstore: table %q column %q wants %s, got %s",
				t.schema.Name, t.schema.Columns[i].Name, t.schema.Columns[i].Type, v.Kind)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid := len(t.rows)
	t.rows = append(t.rows, row)
	for ci, idx := range t.hashIdx {
		k := row[ci].key()
		bucket := idx[k]
		if len(bucket) == 0 {
			// First occurrence of a distinct value: record the growth
			// position if the column's distinct count is tracked.
			if g, tracked := t.statsGrowth[ci]; tracked {
				t.statsGrowth[ci] = append(g, int32(rid))
			}
		}
		idx[k] = append(bucket, rid)
	}
	t.observeStats(row, rid)
	t.orderMu.Lock()
	for ci := range t.orderIdx {
		t.orderDirty[ci] = true
	}
	t.orderMu.Unlock()
	return nil
}

// ScanFrom calls fn for each row at position >= from, in insertion
// order, under the table's read lock, and returns the row count at the
// time of the scan. Rows are append-only, so positions are stable:
// resuming a later scan from the returned count visits exactly the rows
// inserted in between.
func (t *Table) ScanFrom(from int, fn func(row []Value)) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if from < 0 {
		from = 0
	}
	for i := from; i < len(t.rows); i++ {
		fn(t.rows[i])
	}
	return len(t.rows)
}

// ViewRows returns an immutable prefix view of the table's current
// rows: the slice header is captured (and capacity-capped) under a
// brief read lock, and rows are append-only, so the returned slice
// stays valid — and stops growing — while writers keep inserting. This
// is the append-watermark primitive behind epoch snapshots: the view's
// length IS the watermark, and rows appended after the capture are
// simply beyond it.
func (t *Table) ViewRows() [][]Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// lookupEqView is lookupEq for an epoch view: the hash-index probe runs
// under a briefly held read lock (writers extend index buckets in
// place), and row ids at or beyond the view's watermark — appended
// after the view was captured — are dropped. Unlike the statement-long
// locking of lookupEq, the lock here spans only the map probe, so a
// reader paging an epoch never blocks writers for longer than that.
func (t *Table) lookupEqView(ci int, v Value, rows [][]Value) ([]int, bool) {
	t.mu.RLock()
	ids, ok := t.hashBucket(ci, v.key(), len(rows))
	t.mu.RUnlock()
	if ok {
		return ids, true
	}
	var out []int
	for rid, row := range rows {
		if Equal(row[ci], v) {
			out = append(out, rid)
		}
	}
	return out, false
}

// lookupRangeView is lookupRange for an epoch view: the ordered-index
// search (and any lazy rebuild) runs under a briefly held read lock,
// then ids beyond the view's watermark are filtered out. The unindexed
// fallback scans only the view's rows.
func (t *Table) lookupRangeView(ci int, lo, hi *Value, loInc, hiInc bool, rows [][]Value) ([]int, bool) {
	t.mu.RLock()
	t.orderMu.Lock()
	ids, ok := t.orderIdx[ci]
	if ok && t.orderDirty[ci] {
		t.rebuildOrdered(ci)
		ids = t.orderIdx[ci]
	}
	t.orderMu.Unlock()
	if !ok {
		t.mu.RUnlock()
		var out []int
		for rid, row := range rows {
			if inRange(row[ci], lo, hi, loInc, hiInc) {
				out = append(out, rid)
			}
		}
		return out, false
	}
	start, end := t.orderedRange(ids, ci, lo, hi, loInc, hiInc)
	t.mu.RUnlock()
	// The ordered ids are in column-value order, not row order, so the
	// watermark filter is a linear pass over the hits.
	var out []int
	for _, id := range ids[start:end] {
		if id < len(rows) {
			out = append(out, id)
		}
	}
	return out, true
}

// orderedRange binary-searches an ordered-index id list for the [lo, hi]
// bounds, returning the half-open hit range. The caller must hold at
// least the read side of mu (the search probes live rows).
func (t *Table) orderedRange(ids []int, ci int, lo, hi *Value, loInc, hiInc bool) (start, end int) {
	end = len(ids)
	if lo != nil {
		start = sort.Search(len(ids), func(i int) bool {
			c := Compare(t.rows[ids[i]][ci], *lo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	if hi != nil {
		end = sort.Search(len(ids), func(i int) bool {
			c := Compare(t.rows[ids[i]][ci], *hi)
			if hiInc {
				return c > 0
			}
			return c >= 0
		})
	}
	return start, end
}

// lookupEqIntsView probes the hash index once per ID under a single
// briefly held read lock, returning the matching row ids in ascending
// order, cut at the view's watermark. ok is false when the column has
// no hash index — callers fall back to a set-filtered scan rather than
// paying a per-ID table scan — or when max > 0 and the answer reaches
// max rows, which bounds the work of a probe whose result the caller
// would discard as not selective enough. This is the bulk access path
// behind bound ID-set parameters (propagated entity constraints) and
// semi-join reductions.
func (t *Table) lookupEqIntsView(ci int, ids []int64, rows [][]Value, max int) ([]int, bool) {
	t.mu.RLock()
	out, ok := t.probeInts(ci, ids, len(rows), max)
	t.mu.RUnlock()
	sort.Ints(out)
	return out, ok
}

// lookupEqInts is lookupEqIntsView for a locked statement: the caller
// holds the read side of mu for the whole statement, so the probes read
// the live index directly.
func (t *Table) lookupEqInts(ci int, ids []int64, max int) ([]int, bool) {
	out, ok := t.probeInts(ci, ids, len(t.rows), max)
	sort.Ints(out)
	return out, ok
}

// probeInts is the shared probe loop of lookupEqInts(View): the matching
// row ids below rowLimit, unsorted. The caller holds the read side of mu.
func (t *Table) probeInts(ci int, ids []int64, rowLimit, max int) ([]int, bool) {
	idx, ok := t.hashIdx[ci]
	if !ok {
		return nil, false
	}
	var out []int
	key := make([]byte, 0, 24)
	for i, id := range ids {
		// ids are ascending, so duplicates are consecutive; skipping them
		// keeps the indexed path's results identical to the set-filtered
		// scan's however the caller built the set.
		if i > 0 && ids[i-1] == id {
			continue
		}
		// Construct the probe key in a reused buffer: string(key) used
		// only as a map index does not allocate, so 50k probes cost 50k
		// lookups, not 50k string allocations.
		key = append(key[:0], 'i')
		key = strconv.AppendInt(key, id, 10)
		got := idx[string(key)]
		// Bucket ids are appended in ascending row order, so a view's
		// watermark is a prefix cut.
		cut := sort.SearchInts(got, rowLimit)
		out = append(out, got[:cut]...)
		if max > 0 && len(out) >= max {
			return nil, false
		}
	}
	return out, true
}

// hashBucket returns the row ids below rowLimit in column ci's hash-index
// bucket for the index key k, in ascending order; ok is false when the
// column has no hash index. The caller holds the read side of mu. The
// result aliases the bucket's prefix, which stays valid after the lock
// is released: writers only append to buckets.
func (t *Table) hashBucket(ci int, k string, rowLimit int) ([]int, bool) {
	idx, ok := t.hashIdx[ci]
	if !ok {
		return nil, false
	}
	ids := idx[k]
	// Bucket ids are appended in ascending row order, so a view's
	// watermark is a prefix cut.
	cut := sort.SearchInts(ids, rowLimit)
	return ids[:cut:cut], true
}

// lookupLike answers `col LIKE pattern` for column ci from its hash-index
// dictionary: likeMatch runs once per distinct key, not once per row, and
// the row ids below rowLimit of every matching bucket are returned in no
// particular order. A key's keyString is exactly the Value.String the
// row-wise LIKE matches, so NULLs ("NULL") and int columns (their digits)
// answer as they would row by row. ok is false when the column has no
// hash index, when the dictionary has max or more distinct keys, or when
// the answer reaches max rows: the caller has a cheaper way to the rows
// then. The caller holds the read side of mu.
func (t *Table) lookupLike(ci int, pattern string, rowLimit, max int) ([]int, bool) {
	idx, ok := t.hashIdx[ci]
	if !ok || len(idx) >= max {
		return nil, false
	}
	var out []int
	for k, ids := range idx {
		if !likeMatch(keyString(k), pattern) {
			continue
		}
		cut := sort.SearchInts(ids, rowLimit)
		out = append(out, ids[:cut]...)
		if len(out) >= max {
			return nil, false
		}
	}
	return out, true
}

// lookupEq returns row ids whose column equals v, using the hash index if
// present, else a scan. The second result reports whether an index served
// the lookup. The caller must hold the read side of mu (the executor
// does, for the whole statement).
func (t *Table) lookupEq(ci int, v Value) ([]int, bool) {
	if idx, ok := t.hashIdx[ci]; ok {
		return idx[v.key()], true
	}
	var ids []int
	for rid, row := range t.rows {
		if Equal(row[ci], v) {
			ids = append(ids, rid)
		}
	}
	return ids, false
}

// lookupRange returns row ids whose column value is within [lo, hi]
// according to the provided inclusivity flags. A nil bound is open. The
// caller must hold the read side of mu; the lazy ordered-index rebuild
// is serialized by orderMu among concurrent readers.
func (t *Table) lookupRange(ci int, lo, hi *Value, loInc, hiInc bool) ([]int, bool) {
	t.orderMu.Lock()
	ids, ok := t.orderIdx[ci]
	if !ok {
		t.orderMu.Unlock()
		var out []int
		for rid, row := range t.rows {
			if inRange(row[ci], lo, hi, loInc, hiInc) {
				out = append(out, rid)
			}
		}
		return out, false
	}
	if t.orderDirty[ci] {
		t.rebuildOrdered(ci)
		ids = t.orderIdx[ci]
	}
	t.orderMu.Unlock()
	start, end := t.orderedRange(ids, ci, lo, hi, loInc, hiInc)
	if start >= end {
		return nil, true
	}
	out := make([]int, end-start)
	copy(out, ids[start:end])
	return out, true
}

func inRange(v Value, lo, hi *Value, loInc, hiInc bool) bool {
	if lo != nil {
		c := Compare(v, *lo)
		if c < 0 || (c == 0 && !loInc) {
			return false
		}
	}
	if hi != nil {
		c := Compare(v, *hi)
		if c > 0 || (c == 0 && !hiInc) {
			return false
		}
	}
	return true
}

// DB is a named collection of tables. It is safe for concurrent reads
// interleaved with single-writer loads guarded by its mutex.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable creates a table with the given schema.
func (db *DB) CreateTable(s Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	name := strings.ToLower(s.Name)
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("relstore: table %q already exists", s.Name)
	}
	t, err := NewTable(s)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns all table names sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
