package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/tbql"
)

// crossTBQL joins two unconstrained patterns with no shared entity
// variable: the match space is the cross product of every read and
// every write event, so iterating it does row-count² join work — the
// shape cancellation and budget tests need to observe an interrupt
// mid-walk.
const crossTBQL = `proc p1 read file f1 as evt1
proc p2 write file f2 as evt2
return p1, f1, p2, f2`

func parseTBQL(t *testing.T, src string) *tbql.Query {
	t.Helper()
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// drainRows collects every remaining row of the cursor.
func drainRows(t *testing.T, c *Cursor) [][]string {
	t.Helper()
	var rows [][]string
	for c.Next() {
		rows = append(rows, c.Row())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rows
}

func TestExecuteCursorPreCancelled(t *testing.T) {
	en := leakageEngine(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := en.ExecuteCursor(ctx, parseTBQL(t, crossTBQL), 0, nil)
	if !errors.Is(err, ErrHuntCancelled) {
		t.Fatalf("err = %v, want ErrHuntCancelled", err)
	}
}

func TestExecuteCursorExpiredDeadline(t *testing.T) {
	en := leakageEngine(t, 200)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	_, err := en.ExecuteCursor(ctx, parseTBQL(t, crossTBQL), 0, nil)
	if !errors.Is(err, ErrHuntDeadline) {
		t.Fatalf("err = %v, want ErrHuntDeadline", err)
	}
	if errors.Is(err, ErrHuntCancelled) {
		t.Fatalf("deadline error must not also read as plain cancellation: %v", err)
	}
}

// TestCursorCancelMidIterationResumes is the resumability contract: a
// context interrupt suspends the streaming join with its walk state
// intact, and SetContext resumes it exactly where it stopped — the
// interrupted run's rows concatenate to the uninterrupted run's rows.
func TestCursorCancelMidIterationResumes(t *testing.T) {
	en := leakageEngine(t, 200)

	// Reference: the full row set without interruption.
	ref, err := en.ExecuteCursor(nil, parseTBQL(t, crossTBQL), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drainRows(t, ref)
	if len(want) < 20 {
		t.Fatalf("fixture too small: %d rows", len(want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := en.ExecuteCursor(ctx, parseTBQL(t, crossTBQL), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for i := 0; i < 10; i++ {
		if !cur.Next() {
			t.Fatalf("cursor died at row %d: %v", i, cur.Err())
		}
		got = append(got, cur.Row())
	}
	cancel()
	if cur.Next() {
		t.Fatal("Next succeeded after cancellation")
	}
	if err := cur.Err(); !errors.Is(err, ErrHuntCancelled) {
		t.Fatalf("Err = %v, want ErrHuntCancelled", err)
	}
	if cur.Row() != nil {
		t.Error("Row non-nil after interrupt")
	}
	// A second Next on the dead context stays interrupted, not corrupted.
	if cur.Next() {
		t.Fatal("Next succeeded twice after cancellation")
	}

	cur.SetContext(context.Background())
	if err := cur.Err(); err != nil {
		t.Fatalf("Err after SetContext = %v, want nil", err)
	}
	got = append(got, drainRows(t, cur)...)

	if len(got) != len(want) {
		t.Fatalf("resumed run produced %d rows, uninterrupted run %d", len(got), len(want))
	}
	for i := range want {
		if strings.Join(got[i], "\x00") != strings.Join(want[i], "\x00") {
			t.Fatalf("row %d diverged after resume: %v != %v", i, got[i], want[i])
		}
	}
}

// TestCursorJoinBudget exhausts -max-join-rows mid-iteration: the abort
// is terminal (not resumable), names the budget, and releases the
// snapshot.
func TestCursorJoinBudget(t *testing.T) {
	en := leakageEngine(t, 200)
	en.MaxJoinRows = 1
	cur, err := en.ExecuteCursor(nil, parseTBQL(t, crossTBQL), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	err = cur.Err()
	if !errors.Is(err, ErrJoinBudget) {
		t.Fatalf("Err = %v, want ErrJoinBudget", err)
	}
	if !strings.Contains(err.Error(), "max-join-rows") {
		t.Errorf("budget error %q does not name the flag", err)
	}
	// Terminal: installing a fresh context must not clear the error.
	cur.SetContext(context.Background())
	if cur.Next() {
		t.Fatal("budget-aborted cursor resumed")
	}
	if !errors.Is(cur.Err(), ErrJoinBudget) {
		t.Fatalf("Err after SetContext = %v, want ErrJoinBudget", cur.Err())
	}
}

func TestExplainTraceCtxCancelled(t *testing.T) {
	en := leakageEngine(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := en.Explain(ctx, parseTBQL(t, crossTBQL), nil)
	if !errors.Is(err, ErrHuntCancelled) {
		t.Fatalf("err = %v, want ErrHuntCancelled", err)
	}
}

func TestAdvanceContextPreCancelled(t *testing.T) {
	en := leakageEngine(t, 200)
	h, err := en.NewStandingHunt(parseTBQL(t, crossTBQL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.AdvanceContext(ctx); !errors.Is(err, ErrHuntCancelled) {
		t.Fatalf("AdvanceContext err = %v, want ErrHuntCancelled", err)
	}
	// The hunt is still advanceable under a live context.
	if _, err := h.Advance(); err != nil {
		t.Fatalf("Advance after cancelled AdvanceContext: %v", err)
	}
}

// TestCancelErrorTexts pins the typed errors' identities: service-layer
// status mapping depends on errors.Is against all three.
func TestCancelErrorTexts(t *testing.T) {
	if errors.Is(ErrHuntDeadline, ErrHuntCancelled) || errors.Is(ErrJoinBudget, ErrHuntCancelled) {
		t.Fatal("lifecycle errors must be distinct")
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("operator kill")
	cancel(cause)
	err := huntErr(ctx)
	if !errors.Is(err, ErrHuntCancelled) {
		t.Fatalf("huntErr = %v, want ErrHuntCancelled", err)
	}
	if !strings.Contains(err.Error(), "operator kill") {
		t.Errorf("huntErr %q dropped the cancellation cause", err)
	}
}
