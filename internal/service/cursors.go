package service

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/snapshot"
)

// errCursorEvicted is the cancellation cause recorded when eviction (or
// an explicit close) aborts a page read in flight on the cursor: the
// page handler observes it via context.Cause and answers 410.
var errCursorEvicted = errors.New("cursor evicted")

// cursorEntry is one registered server-side cursor: a live exec cursor
// pinned at its creation epoch, plus the paging bookkeeping the HTTP
// layer needs between requests.
type cursorEntry struct {
	id      string
	epoch   snapshot.Epoch
	created time.Time

	// mu serializes page reads (an exec cursor is not safe for
	// concurrent use) and the close. closed marks the entry dead for a
	// reader that acquired it just before expiry or eviction closed it.
	mu     sync.Mutex
	cur    *threatraptor.Cursor
	closed bool
	pageState

	// pageCancel, when set, aborts the page read currently inside mu.
	// It is guarded by its own cancelMu — NOT mu — because eviction
	// must reach it precisely when a page holds mu: closeAll fires it
	// first so the in-flight join suspends and releases mu promptly.
	cancelMu   sync.Mutex
	pageCancel context.CancelCauseFunc

	// elem is the entry's node in the manager's LRU list; it and
	// lastUsed are guarded by the manager's lock.
	elem     *list.Element
	lastUsed time.Time
}

// pageState is a cursor's paging position between pages.
type pageState struct {
	// pending queues rows pulled from the cursor but not yet served: the
	// look-ahead row of the last page, plus any partial page an
	// interrupt stashed for the retry.
	pending [][]string
	// offset is the index of the next row to serve.
	offset int
}

// setPageCancel installs (or, with nil, clears) the cancel hook for the
// page read about to run under e.mu.
func (e *cursorEntry) setPageCancel(f context.CancelCauseFunc) {
	e.cancelMu.Lock()
	e.pageCancel = f
	e.cancelMu.Unlock()
}

// cancelPage fires the in-flight page's cancel hook, if any, recording
// cause for the page handler to classify.
func (e *cursorEntry) cancelPage(cause error) {
	e.cancelMu.Lock()
	f := e.pageCancel
	e.cancelMu.Unlock()
	if f != nil {
		f(cause)
	}
}

// cursorManager is the server-side cursor registry behind POST /hunt,
// GET /hunt/next, and DELETE /hunt/cursor: one query execution serves
// arbitrarily deep pagination over the cursor's pinned epoch. Lifetime
// is bounded two ways — a TTL on idle cursors and an LRU cap on the
// registry size — and a cursor's epoch stays pinned in the snapshot
// registry exactly as long as the cursor is live, so dropping the last
// cursor on an epoch garbage-collects the epoch's registry entry.
// Expired cursors are swept opportunistically (on registration and on
// stats reads) and lazily on access; because snapshots are append
// watermarks, an idle cursor awaiting sweep holds memory only, never
// writer throughput.
type cursorManager struct {
	ttl time.Duration
	max int
	reg *snapshot.Registry
	now func() time.Time // injectable for TTL tests

	mu      sync.Mutex
	entries map[string]*cursorEntry
	lru     *list.List // front = most recently used

	pages   atomic.Int64
	expired atomic.Int64
	evicted atomic.Int64
}

func newCursorManager(ttl time.Duration, max int) *cursorManager {
	return &cursorManager{
		ttl:     ttl,
		max:     max,
		reg:     snapshot.NewRegistry(),
		now:     time.Now,
		entries: make(map[string]*cursorEntry),
		lru:     list.New(),
	}
}

// newCursorID returns a 128-bit random hex id.
func newCursorID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in far deeper trouble
		// than cursor naming; fall back to a time-derived id.
		return hex.EncodeToString([]byte(time.Now().String()))[:32]
	}
	return hex.EncodeToString(b[:])
}

// put registers a cursor that has more rows pending and returns its id.
// page is the paging position after the first page: the look-ahead row
// that page consumed, queued, and the offset indexing it. The new
// cursor's epoch is pinned, expired entries are swept, and the
// least-recently-used entries beyond the cap are evicted.
func (m *cursorManager) put(cur *threatraptor.Cursor, page pageState) string {
	e := &cursorEntry{
		id:        newCursorID(),
		epoch:     cur.Epoch(),
		created:   m.now(),
		cur:       cur,
		pageState: page,
	}
	m.reg.Pin(e.epoch)

	var victims []*cursorEntry
	m.mu.Lock()
	e.lastUsed = e.created
	e.elem = m.lru.PushFront(e)
	m.entries[e.id] = e
	victims = m.sweepLocked(victims)
	for len(m.entries) > m.max {
		back := m.lru.Back()
		if back == nil {
			break
		}
		v := back.Value.(*cursorEntry)
		m.detachLocked(v)
		m.evicted.Add(1)
		victims = append(victims, v)
	}
	m.mu.Unlock()

	m.closeAll(victims)
	return e.id
}

// acquire returns the live entry for id, touching its recency, or nil
// when the id is unknown, expired, or already closed. An expired entry
// is closed on the spot.
func (m *cursorManager) acquire(id string) *cursorEntry {
	m.mu.Lock()
	e := m.entries[id]
	if e == nil {
		m.mu.Unlock()
		return nil
	}
	if m.ttl > 0 && m.now().Sub(e.lastUsed) > m.ttl {
		m.detachLocked(e)
		m.expired.Add(1)
		m.mu.Unlock()
		m.closeAll([]*cursorEntry{e})
		return nil
	}
	e.lastUsed = m.now()
	m.lru.MoveToFront(e.elem)
	m.mu.Unlock()
	return e
}

// remove closes and forgets the entry (DELETE /hunt/cursor, or a page
// read that exhausted the cursor). It reports whether the id was live.
func (m *cursorManager) remove(id string) bool {
	m.mu.Lock()
	e := m.entries[id]
	if e == nil {
		m.mu.Unlock()
		return false
	}
	m.detachLocked(e)
	m.mu.Unlock()
	m.closeAll([]*cursorEntry{e})
	return true
}

// sweep closes every expired entry. Returns how many were swept.
func (m *cursorManager) sweep() int {
	var victims []*cursorEntry
	m.mu.Lock()
	victims = m.sweepLocked(victims)
	m.mu.Unlock()
	m.closeAll(victims)
	return len(victims)
}

// sweepLocked detaches expired entries, appending them to victims for
// the caller to close outside the manager lock.
func (m *cursorManager) sweepLocked(victims []*cursorEntry) []*cursorEntry {
	if m.ttl <= 0 {
		return victims
	}
	cutoff := m.now().Add(-m.ttl)
	for el := m.lru.Back(); el != nil; {
		e := el.Value.(*cursorEntry)
		if e.lastUsed.After(cutoff) {
			// The LRU list is recency-ordered: everything further forward
			// is fresher.
			break
		}
		el = el.Prev()
		m.detachLocked(e)
		m.expired.Add(1)
		victims = append(victims, e)
	}
	return victims
}

// detachLocked removes the entry from the map and LRU list; the caller
// holds m.mu and must closeAll the entry afterwards.
func (m *cursorManager) detachLocked(e *cursorEntry) {
	delete(m.entries, e.id)
	m.lru.Remove(e.elem)
}

// closeAll closes detached entries: the exec cursor is closed and the
// entry's epoch unpinned, garbage-collecting the epoch once no other
// cursor references it. Runs without the manager lock so a close never
// stalls registrations; the entry lock fences concurrent page readers,
// who observe closed and report the cursor gone. A page read in flight
// on a victim is cancelled BEFORE its entry lock is taken — otherwise
// eviction would block behind however much join work the page had left.
func (m *cursorManager) closeAll(victims []*cursorEntry) {
	for _, e := range victims {
		e.cancelPage(errCursorEvicted)
		e.mu.Lock()
		if !e.closed {
			e.closed = true
			e.cur.Close()
			m.reg.Unpin(e.epoch)
		}
		e.mu.Unlock()
	}
}

// open returns how many cursors are currently registered.
func (m *cursorManager) open() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
