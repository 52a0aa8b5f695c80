package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

// rowKeys joins each row into one comparable string.
func rowKeys(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x00")
	}
	return out
}

// TestHuntNextDeadlineResumes: a /hunt/next page whose deadline fires
// mid-page (after the queued look-ahead row was served, before the join
// produced the rest) answers 504, stashes the partial page, and the
// retry serves exactly the stashed rows first — the union of all pages
// equals the reference prefix with no row lost or repeated.
func TestHuntNextDeadlineResumes(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{})
	const refLen = 24
	ref := postHunt(t, ts, crossPageTBQL, refLen, 0)
	if len(ref.Rows) != refLen {
		t.Fatalf("fixture produced %d rows, want %d", len(ref.Rows), refLen)
	}
	first := postHunt(t, ts, crossPageTBQL, 4, 0)
	if first.CursorID == "" {
		t.Fatal("no cursor registered")
	}
	got := append([][]string{}, first.Rows...)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := httptest.NewRequest(http.MethodGet, "/hunt/next?cursor="+first.CursorID+"&limit=4", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline page answered %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "remains resumable") {
		t.Errorf("504 body %q does not say the cursor is resumable", w.Body.String())
	}
	if n := srv.huntsTimedOut.Load(); n != 1 {
		t.Errorf("hunts_timed_out = %d, want 1", n)
	}

	e := srv.cursors.acquire(first.CursorID)
	if e == nil {
		t.Fatal("cursor gone after a resumable 504")
	}
	e.mu.Lock()
	stashed := rowKeys(e.pending)
	offset := e.offset
	e.mu.Unlock()
	if len(stashed) == 0 {
		t.Fatal("interrupted page stashed no rows")
	}
	if offset != len(got) {
		t.Fatalf("interrupted page moved the offset to %d, want %d", offset, len(got))
	}

	for page := 0; len(got) < refLen; page++ {
		next, _ := getJSON(t, ts.URL+"/hunt/next?cursor="+first.CursorID+"&limit=4", http.StatusOK)
		if next.Offset != len(got) {
			t.Fatalf("page offset %d, want %d (rows lost or repeated)", next.Offset, len(got))
		}
		if page == 0 {
			keys := rowKeys(next.Rows)
			for i, want := range stashed {
				if i >= len(keys) || keys[i] != want {
					t.Fatalf("retry row %d = %q, want stashed %q", i, keys, stashed)
				}
			}
		}
		if next.CursorID == "" {
			t.Fatalf("cursor exhausted at %d rows", len(got)+len(next.Rows))
		}
		got = append(got, next.Rows...)
	}
	want := rowKeys(ref.Rows)
	for i, k := range rowKeys(got[:refLen]) {
		if k != want[i] {
			t.Fatalf("row %d diverged: %q != %q", i, k, want[i])
		}
	}
}

// TestHuntNextJoinBudget: a /hunt/next page that exhausts -max-join-rows
// mid-page answers 422 naming the budget; the abort is terminal, so the
// cursor is gone and a later page answers 410.
func TestHuntNextJoinBudget(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{MaxJoinRows: 3000}, Config{})
	first := postHunt(t, ts, crossPageTBQL, 4, 0)
	if first.CursorID == "" {
		t.Fatal("no cursor registered")
	}
	resp, err := http.Get(ts.URL + "/hunt/next?cursor=" + first.CursorID + "&limit=5000")
	if err != nil {
		t.Fatal(err)
	}
	body := readAllBody(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("budget page answered %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "max-join-rows") {
		t.Errorf("422 body %q does not name the budget", body)
	}
	if n := srv.huntsBudget.Load(); n != 1 {
		t.Errorf("hunts_budget_exceeded = %d, want 1", n)
	}
	getJSON(t, ts.URL+"/hunt/next?cursor="+first.CursorID+"&limit=4", http.StatusGone)
}

// TestHuntNextKilled: DELETE /debug/hunts/<request-id> aimed at an
// in-flight /hunt/next page answers that page 503, counts the kill, and
// closes the cursor. The page is held at the cursor's lock until the
// kill lands, so the test does not race the join.
func TestHuntNextKilled(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{})
	first := postHunt(t, ts, crossPageTBQL, 4, 0)
	if first.CursorID == "" {
		t.Fatal("no cursor registered")
	}
	e := srv.cursors.acquire(first.CursorID)
	if e == nil {
		t.Fatal("cursor not acquirable")
	}
	e.mu.Lock()
	locked := true
	defer func() {
		if locked {
			e.mu.Unlock()
		}
	}()

	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/hunt/next?cursor=" + first.CursorID + "&limit=4")
		if err != nil {
			done <- result{status: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: string(b)}
	}()

	// The page registers as in flight before it blocks on the cursor lock.
	var rid string
	for deadline := time.Now().Add(10 * time.Second); rid == ""; {
		if time.Now().After(deadline) {
			t.Fatal("hunt/next page never registered as in flight")
		}
		srv.inflightMu.Lock()
		for _, h := range srv.inflight {
			if h.kind == "hunt/next" {
				rid = h.reqID
			}
		}
		srv.inflightMu.Unlock()
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/debug/hunts/"+rid, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAllBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("kill answered %d: %s", resp.StatusCode, body)
	}
	e.mu.Unlock()
	locked = false

	select {
	case r := <-done:
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("killed page answered %d: %s", r.status, r.body)
		}
		if !strings.Contains(r.body, "killed") {
			t.Errorf("killed page body %q does not say why", r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed page never answered")
	}
	if n := srv.huntsKilled.Load(); n != 1 {
		t.Errorf("hunts_killed = %d, want 1", n)
	}
	getJSON(t, ts.URL+"/hunt/next?cursor="+first.CursorID+"&limit=4", http.StatusGone)
}
