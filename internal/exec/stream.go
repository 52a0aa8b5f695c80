package exec

import (
	"repro/internal/tbql"
)

// This file implements the streaming hash-join executor. A plain
// nested-loop join (the test-only reference in reference_test.go)
// materializes every match up front, clones two maps per explored
// candidate, and re-scans the full temporal/attribute relation list at
// every join level. The streaming executor avoids all three costs:
//
//   - Bindings are slot-based: tbql.Analyze assigns dense integer slots
//     to entity variables (first-use order) and event patterns (textual
//     order), so a partial binding is one []int64 and one []EventRow,
//     mutated in place during the depth-first walk. Zero per-candidate
//     allocation.
//   - Each join level probes a hash index built on the entity sides the
//     level shares with already-bound patterns, instead of scanning the
//     pattern's whole fetched row set per partial binding.
//   - Each temporal/attribute relation is compiled into a closure and
//     attached to the single join level at which its events first become
//     bound, so it is checked exactly once per candidate instead of
//     being re-derived from the whole relation list at every level.
//
// The executor is a pull-based iterator: matchStream.Next resumes the
// depth-first walk where the previous match left off, so the cursor can
// hand out row N+1 without computing row N+2 and a page-sized read does
// page-sized join work.

// joinLevel is one level of the join, in scheduled pattern order.
type joinLevel struct {
	patIdx   int // pattern index in Query.Patterns == event slot
	subjSlot int // entity slot of the subject variable
	objSlot  int // entity slot of the object variable
	// subjBound/objBound report whether the slot is already bound by an
	// earlier level when this level is entered.
	subjBound bool
	objBound  bool
	// checks are the relation predicates that become fully bound at this
	// level, compiled over the event-slot binding array.
	checks []relCheck
}

// relCheck evaluates one temporal or attribute relation against the
// current event bindings (indexed by event slot).
type relCheck func(events []EventRow) bool

// joinPlan is the compiled streaming join: levels in scheduled order
// plus the slot universe sizes.
type joinPlan struct {
	q      *tbql.Query
	levels []joinLevel
	nEnt   int
}

// planJoin compiles the join for an analyzed query and a scheduled
// pattern order: per-level bound-slot information and per-level relation
// check lists (each relation attached to the earliest level where all
// its events are bound).
func planJoin(q *tbql.Query, order []int) *joinPlan {
	info := q.Info()
	plan := &joinPlan{q: q, nEnt: info.NumEntitySlots()}

	schedPos := make(map[string]int, len(order))
	boundEnt := make([]bool, plan.nEnt)
	plan.levels = make([]joinLevel, len(order))
	for k, pi := range order {
		pat := &q.Patterns[pi]
		lv := joinLevel{
			patIdx:   pi,
			subjSlot: info.EntitySlot[pat.Subj.ID],
			objSlot:  info.EntitySlot[pat.Obj.ID],
		}
		lv.subjBound = boundEnt[lv.subjSlot]
		lv.objBound = boundEnt[lv.objSlot]
		boundEnt[lv.subjSlot] = true
		boundEnt[lv.objSlot] = true
		schedPos[pat.Name] = k
		plan.levels[k] = lv
	}

	for _, tr := range q.Temporal {
		pos := schedPos[tr.A]
		if p := schedPos[tr.B]; p > pos {
			pos = p
		}
		a, b := info.EventSlot[tr.A], info.EventSlot[tr.B]
		before := tr.Op == "before"
		lv := &plan.levels[pos]
		lv.checks = append(lv.checks, func(ev []EventRow) bool {
			if before {
				return ev[a].Start < ev[b].Start
			}
			return ev[a].Start > ev[b].Start
		})
	}
	for _, ar := range q.AttrRels {
		ar := ar
		pos := schedPos[ar.AEvt]
		aSlot := info.EventSlot[ar.AEvt]
		var check relCheck
		if ar.BIsLit {
			check = func(ev []EventRow) bool {
				return cmpInt(eventAttr(ev[aSlot], ar.AAttr), ar.Op, ar.BLit)
			}
		} else {
			if p := schedPos[ar.BEvt]; p > pos {
				pos = p
			}
			bSlot := info.EventSlot[ar.BEvt]
			check = func(ev []EventRow) bool {
				return cmpInt(eventAttr(ev[aSlot], ar.AAttr), ar.Op, eventAttr(ev[bSlot], ar.BAttr))
			}
		}
		lv := &plan.levels[pos]
		lv.checks = append(lv.checks, check)
	}
	return plan
}

// levelIndex is the hash index probed when entering a join level. The
// kind selects which entity sides key the index; candidate lists keep
// fetched-row order, so the streaming walk emits matches in a
// deterministic order for a given store.
type levelIndex struct {
	kind byte // 'b' both sides bound, 's' subject, 'o' object, 'x' scan
	both map[[2]int64][]int32
	one  map[int64][]int32
	all  []int32
}

// buildIndex builds the hash index for one level over its fetched rows.
// Bucket lists are built in two passes — count, then fill — so every
// bucket is an exactly sized sub-slice of one shared backing array:
// building the index costs O(distinct keys) allocations instead of the
// O(keys · log bucket) repeated-growth appends of the naive build, which
// is where BenchmarkJoinFanout spent a chunk of its allocs/op.
func buildIndex(lv *joinLevel, rows []EventRow) levelIndex {
	switch {
	case lv.subjBound && lv.objBound:
		counts := make(map[[2]int64]int32, len(rows))
		for _, r := range rows {
			counts[[2]int64{r.SrcID, r.DstID}]++
		}
		ix := levelIndex{kind: 'b', both: make(map[[2]int64][]int32, len(counts))}
		backing := make([]int32, 0, len(rows))
		for i, r := range rows {
			k := [2]int64{r.SrcID, r.DstID}
			s, ok := ix.both[k]
			if !ok {
				// Claim the key's exactly sized region of the backing
				// array; appends below fill it without reallocating.
				n := len(backing)
				backing = backing[:n+int(counts[k])]
				s = backing[n : n : n+int(counts[k])]
			}
			ix.both[k] = append(s, int32(i))
		}
		return ix
	case lv.subjBound, lv.objBound:
		kind := byte('s')
		key := func(r *EventRow) int64 { return r.SrcID }
		if !lv.subjBound {
			kind = 'o'
			key = func(r *EventRow) int64 { return r.DstID }
		}
		counts := make(map[int64]int32, len(rows))
		for i := range rows {
			counts[key(&rows[i])]++
		}
		ix := levelIndex{kind: kind, one: make(map[int64][]int32, len(counts))}
		backing := make([]int32, 0, len(rows))
		for i := range rows {
			k := key(&rows[i])
			s, ok := ix.one[k]
			if !ok {
				n := len(backing)
				backing = backing[:n+int(counts[k])]
				s = backing[n : n : n+int(counts[k])]
			}
			ix.one[k] = append(s, int32(i))
		}
		return ix
	default:
		ix := levelIndex{kind: 'x', all: make([]int32, len(rows))}
		for i := range rows {
			ix.all[i] = int32(i)
		}
		return ix
	}
}

// matchStream is the lazy depth-first iterator over complete matches.
// Next suspends after each emitted match; events and entities then hold
// the match's bindings (by event slot and entity slot) until the next
// call. A matchStream is not safe for concurrent use.
type matchStream struct {
	plan *joinPlan
	rows [][]EventRow // fetched rows, by pattern index
	idx  []levelIndex // per level, parallel to plan.levels

	events   []EventRow // current bindings, by event slot (pattern index)
	entities []int64    // current bindings, by entity slot
	cands    [][]int32  // candidate list per level
	pos      []int      // next candidate position per level

	depth    int
	started  bool
	done     bool
	explored int // candidates examined (Stats.JoinCandidates)

	// stop, when set, is the lifecycle hook: it is polled at Next entry
	// and every joinCheckEvery candidates inside the walk. When it
	// returns true Next sets interrupted and returns false WITHOUT
	// touching the walk state (the poll happens before a candidate is
	// consumed), so a later Next — after the owner clears interrupted —
	// resumes exactly where the walk suspended.
	stop        func() bool
	interrupted bool
	sinceCheck  int
}

// newMatchStream prepares the iterator: hash indexes are built once per
// level (O(total fetched rows)); no join work happens until Next.
func newMatchStream(plan *joinPlan, rows [][]EventRow) *matchStream {
	s := &matchStream{
		plan:     plan,
		rows:     rows,
		idx:      make([]levelIndex, len(plan.levels)),
		events:   make([]EventRow, len(plan.q.Patterns)),
		entities: make([]int64, plan.nEnt),
		cands:    make([][]int32, len(plan.levels)),
		pos:      make([]int, len(plan.levels)),
	}
	for i := range plan.levels {
		s.idx[i] = buildIndex(&plan.levels[i], rows[plan.levels[i].patIdx])
	}
	if len(plan.levels) == 0 {
		s.done = true
	}
	return s
}

// enter computes the candidate list for a level by probing its index
// with the entity bindings established by earlier levels.
func (s *matchStream) enter(d int) {
	lv := &s.plan.levels[d]
	switch ix := &s.idx[d]; ix.kind {
	case 'b':
		s.cands[d] = ix.both[[2]int64{s.entities[lv.subjSlot], s.entities[lv.objSlot]}]
	case 's':
		s.cands[d] = ix.one[s.entities[lv.subjSlot]]
	case 'o':
		s.cands[d] = ix.one[s.entities[lv.objSlot]]
	default:
		s.cands[d] = ix.all
	}
	s.pos[d] = 0
}

// Next advances to the next complete match, resuming the depth-first
// walk from wherever the previous match suspended it. It returns false
// when the match space is exhausted.
func (s *matchStream) Next() bool {
	if s.done {
		return false
	}
	if s.stop != nil && s.stop() {
		s.interrupted = true
		return false
	}
	last := len(s.plan.levels) - 1
	if !s.started {
		s.started = true
		s.depth = 0
		s.enter(0)
	}
	for {
		lv := &s.plan.levels[s.depth]
		rows := s.rows[lv.patIdx]
		advanced := false
		for s.pos[s.depth] < len(s.cands[s.depth]) {
			if s.sinceCheck++; s.sinceCheck >= joinCheckEvery {
				s.sinceCheck = 0
				if s.stop != nil && s.stop() {
					s.interrupted = true
					return false
				}
			}
			rid := s.cands[s.depth][s.pos[s.depth]]
			s.pos[s.depth]++
			s.explored++
			r := rows[rid]
			// The index probe already enforced equality on every bound
			// entity side, so only relation checks remain.
			s.events[lv.patIdx] = r
			ok := true
			for _, check := range lv.checks {
				if !check(s.events) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Bind entity slots in subject-then-object order (the object
			// wins when both sides share one variable, as in the reference
			// join). Slots already bound hold the same value, so no
			// undo is needed when backtracking.
			s.entities[lv.subjSlot] = r.SrcID
			s.entities[lv.objSlot] = r.DstID
			if s.depth == last {
				return true
			}
			s.depth++
			s.enter(s.depth)
			advanced = true
			break
		}
		if advanced {
			continue
		}
		if s.depth == 0 {
			s.done = true
			return false
		}
		s.depth--
	}
}

// Explored reports how many candidate rows the walk has examined so far.
func (s *matchStream) Explored() int { return s.explored }

// match materializes the current bindings as a public Match (map-keyed,
// for Result.Matches compatibility).
func (s *matchStream) match() Match {
	q := s.plan.q
	info := q.Info()
	m := Match{
		Events:   make(map[string]EventRow, len(q.Patterns)),
		Entities: make(map[string]int64, s.plan.nEnt),
	}
	for i := range q.Patterns {
		m.Events[q.Patterns[i].Name] = s.events[i]
	}
	for id, slot := range info.EntitySlot {
		m.Entities[id] = s.entities[slot]
	}
	return m
}
