package exec

import (
	"fmt"
	"strings"

	"repro/internal/relstore"
	"repro/internal/tbql"
)

// This file is the reference evaluator the equivalence suites hold the
// engine to. It evaluates a hunt the slow, obviously correct way and
// shares nothing with the production fetch, scheduling, propagation,
// plan cache, or streaming join:
//
//   - each pattern's data query is the rendered SQL/Cypher text with no
//     propagated constraints (compileSQL / compileCypher), run through
//     the stores' text entry points on every shard — no host pruning,
//     no plans, no fetch cap;
//   - the fetched rows are joined by a materializing nested loop that
//     clones its binding maps per accepted candidate and re-checks every
//     bound relation at each level;
//   - the matches are projected from the entity table read back through
//     SQL, and DISTINCT is applied last.
//
// The join visits the patterns in a connected order: each next pattern
// shares an entity variable with an already-bound one whenever any
// pattern does, ties going to the pattern with fewer rows. Textual order
// would build cross-product partials between unconnected patterns, which
// on the suites' stores runs out of memory.

// referenceRun parses src and evaluates it on en's stores, reading only
// en.Rel, en.Graph and en.MaxPathHops. The result carries Rows and
// Matches.
func referenceRun(en *Engine, src string) (*Result, error) {
	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	maxHops := en.MaxPathHops
	if maxHops == 0 {
		maxHops = DefaultMaxHops
	}
	rows := make([][]EventRow, len(q.Patterns))
	for pi := range q.Patterns {
		if rows[pi], err = referenceFetch(en, &q.Patterns[pi], maxHops); err != nil {
			return nil, err
		}
	}
	attrs, err := referenceAttrs(en.Rel)
	if err != nil {
		return nil, err
	}
	res := &Result{Matches: join(q, connectedOrder(q, rows), rows)}
	seen := map[string]bool{}
	for _, m := range res.Matches {
		row := projectMatch(q, m, attrs)
		if q.Distinct {
			key := strings.Join(row, "\x00")
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// referenceFetch runs one pattern's unpropagated data query on every
// shard of its backend and concatenates the rows.
func referenceFetch(en *Engine, pat *tbql.EventPattern, maxHops int) ([]EventRow, error) {
	var out []EventRow
	if pat.IsPath {
		if en.Graph == nil {
			return nil, fmt.Errorf("reference: pattern %q needs the graph backend", pat.Name)
		}
		src := compileCypher(pat, nil, maxHops)
		for sh := 0; sh < en.Graph.NumShards(); sh++ {
			gr, err := en.Graph.Shard(sh).Query(src)
			if err != nil {
				return nil, fmt.Errorf("reference: pattern %q: %w", pat.Name, err)
			}
			for _, r := range gr.Data {
				out = append(out, EventRow{SrcID: r[0].Int, DstID: r[1].Int, EventID: r[2].Int,
					Start: r[3].Int, End: r[4].Int, Amount: r[5].Int})
			}
		}
		return out, nil
	}
	src := compileSQL(pat, nil)
	for sh := 0; sh < en.Rel.NumShards(); sh++ {
		rr, err := en.Rel.Shard(sh).Query(src)
		if err != nil {
			return nil, fmt.Errorf("reference: pattern %q: %w", pat.Name, err)
		}
		for _, r := range rr.Data {
			out = append(out, EventRow{EventID: r[0].Int, SrcID: r[1].Int, DstID: r[2].Int,
				Start: r[3].Int, End: r[4].Int, Amount: r[5].Int})
		}
	}
	return out, nil
}

// referenceAttrs reads every entity's attributes from shard 0's entity
// table (entities are broadcast, so shard 0 holds them all).
func referenceAttrs(rel *relstore.Sharded) (map[int64]map[string]string, error) {
	rr, err := rel.Shard(0).Query("SELECT * FROM " + relstore.EntityTable)
	if err != nil {
		return nil, err
	}
	idCol := -1
	for i, c := range rr.Cols {
		if strings.EqualFold(c, "id") {
			idCol = i
		}
	}
	if idCol < 0 {
		return nil, fmt.Errorf("reference: entity table has no id column")
	}
	attrs := make(map[int64]map[string]string, len(rr.Data))
	for _, r := range rr.Data {
		m := make(map[string]string, len(rr.Cols))
		for i, c := range rr.Cols {
			m[strings.ToLower(c)] = r[i].String()
		}
		attrs[r[idCol].Int] = m
	}
	return attrs, nil
}

// connectedOrder picks the nested-loop join order: first the pattern
// with the fewest rows, then repeatedly the smallest pattern sharing an
// entity variable with one already placed — or the smallest remaining
// pattern when none does. Ties keep textual order.
func connectedOrder(q *tbql.Query, rows [][]EventRow) []int {
	placed := make([]bool, len(q.Patterns))
	bound := map[string]bool{}
	order := make([]int, 0, len(q.Patterns))
	for len(order) < len(q.Patterns) {
		best, bestConnected := -1, false
		for pi := range q.Patterns {
			if placed[pi] {
				continue
			}
			pat := &q.Patterns[pi]
			connected := bound[pat.Subj.ID] || bound[pat.Obj.ID]
			switch {
			case best < 0,
				connected && !bestConnected,
				connected == bestConnected && len(rows[pi]) < len(rows[best]):
				best, bestConnected = pi, connected
			}
		}
		placed[best] = true
		bound[q.Patterns[best].Subj.ID] = true
		bound[q.Patterns[best].Obj.ID] = true
		order = append(order, best)
	}
	return order
}

// join is the materializing nested-loop join: it binds the patterns'
// fetched rows into complete matches level by level, cloning the binding
// maps per accepted candidate and re-checking every bound relation at
// each level.
func join(q *tbql.Query, order []int, rows [][]EventRow) []Match {
	type partial struct {
		events   map[string]EventRow
		entities map[string]int64
	}
	parts := []partial{{events: map[string]EventRow{}, entities: map[string]int64{}}}
	bound := map[string]bool{} // event names bound so far

	for _, pi := range order {
		pat := &q.Patterns[pi]
		bound[pat.Name] = true
		var next []partial
		for _, p := range parts {
			for _, r := range rows[pi] {
				if id, ok := p.entities[pat.Subj.ID]; ok && id != r.SrcID {
					continue
				}
				if id, ok := p.entities[pat.Obj.ID]; ok && id != r.DstID {
					continue
				}
				ev := cloneEvents(p.events)
				ev[pat.Name] = r
				if !relationsOK(q, bound, ev) {
					continue
				}
				ent := cloneEntities(p.entities)
				ent[pat.Subj.ID] = r.SrcID
				ent[pat.Obj.ID] = r.DstID
				next = append(next, partial{events: ev, entities: ent})
			}
		}
		parts = next
		if len(parts) == 0 {
			return nil
		}
	}

	matches := make([]Match, len(parts))
	for i, p := range parts {
		matches[i] = Match{Events: p.events, Entities: p.entities}
	}
	return matches
}

// relationsOK checks every temporal and attribute relation whose events
// are all bound.
func relationsOK(q *tbql.Query, bound map[string]bool, ev map[string]EventRow) bool {
	for _, tr := range q.Temporal {
		if !bound[tr.A] || !bound[tr.B] {
			continue
		}
		a, b := ev[tr.A], ev[tr.B]
		if tr.Op == "before" {
			if !(a.Start < b.Start) {
				return false
			}
		} else {
			if !(a.Start > b.Start) {
				return false
			}
		}
	}
	for _, ar := range q.AttrRels {
		if !bound[ar.AEvt] {
			continue
		}
		av := eventAttr(ev[ar.AEvt], ar.AAttr)
		var bv int64
		if ar.BIsLit {
			bv = ar.BLit
		} else {
			if !bound[ar.BEvt] {
				continue
			}
			bv = eventAttr(ev[ar.BEvt], ar.BAttr)
		}
		if !cmpInt(av, ar.Op, bv) {
			return false
		}
	}
	return true
}

func cloneEvents(m map[string]EventRow) map[string]EventRow {
	out := make(map[string]EventRow, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneEntities(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m)+2)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// projectMatch renders one match as a projected row of entity attributes.
func projectMatch(q *tbql.Query, m Match, attrs map[int64]map[string]string) []string {
	row := make([]string, len(q.Return))
	for i, item := range q.Return {
		row[i] = attrs[m.Entities[item.ID]][item.Attr]
	}
	return row
}
