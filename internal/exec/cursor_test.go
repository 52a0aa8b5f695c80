package exec

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit/gen"
)

// crackEngine loads a password-crack workload into both backends.
func crackEngine(t testing.TB, benign int) *Engine {
	en, _ := newEngine(t, gen.Config{
		Seed:         5,
		BenignEvents: benign,
		Attacks:      []gen.Attack{{Kind: gen.AttackPasswordCrack, At: 15 * time.Minute}},
	})
	return en
}

const crackTBQL = `proc p["%cracker%"] read file f["%/etc/shadow%"] as e1
return p, f`

// drainCursor collects every row a cursor yields.
func drainCursor(t *testing.T, c *Cursor) [][]string {
	t.Helper()
	var rows [][]string
	for c.Next() {
		row := c.Row()
		rows = append(rows, append([]string(nil), row...))
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return rows
}

// TestCursorEquivalence verifies the streaming cursor yields exactly the
// rows Execute materializes, in order, on the Fig. 2 and password-crack
// hunts (distinct and non-distinct projections).
func TestCursorEquivalence(t *testing.T) {
	tests := []struct {
		name   string
		engine func(testing.TB, int) *Engine
		src    string
	}{
		{"fig2-distinct", leakageEngine, fig2TBQL},
		{"password-crack", crackEngine, crackTBQL},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			en := tc.engine(t, 2000)
			res, err := runTBQL(en, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("hunt found nothing; fixture broken")
			}
			cur, err := openTBQL(en, tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if got, want := strings.Join(cur.Columns(), ","), strings.Join(res.Cols, ","); got != want {
				t.Errorf("Columns() = %q, want %q", got, want)
			}
			rows := drainCursor(t, cur)
			if len(rows) != len(res.Rows) {
				t.Fatalf("cursor yielded %d rows, Execute %d", len(rows), len(res.Rows))
			}
			for i := range rows {
				if strings.Join(rows[i], "\x00") != strings.Join(res.Rows[i], "\x00") {
					t.Errorf("row %d: cursor %v != Execute %v", i, rows[i], res.Rows[i])
				}
			}
		})
	}
}

// TestCursorSemantics is the table-driven contract suite for
// Next/Scan/Columns/Row/Close.
func TestCursorSemantics(t *testing.T) {
	en := crackEngine(t, 500)

	t.Run("empty-result-set", func(t *testing.T) {
		cur, err := openTBQL(en, `proc p["%no-such-binary%"] read file f as e1
return p, f`, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if len(cur.Columns()) != 2 {
			t.Errorf("empty cursor columns = %v", cur.Columns())
		}
		if cur.Next() {
			t.Error("Next on empty result set = true")
		}
		if cur.Row() != nil {
			t.Errorf("Row on empty result set = %v", cur.Row())
		}
		if err := cur.Err(); err != nil {
			t.Errorf("Err on empty result set = %v", err)
		}
	})

	t.Run("scan-before-next", func(t *testing.T) {
		cur, err := openTBQL(en, crackTBQL, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var a, b string
		if err := cur.Scan(&a, &b); err == nil {
			t.Error("Scan before Next should fail")
		}
	})

	t.Run("scan-strings", func(t *testing.T) {
		cur, err := openTBQL(en, crackTBQL, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if !cur.Next() {
			t.Fatal("attack row missing")
		}
		var exe, file string
		if err := cur.Scan(&exe, &file); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(exe, "cracker") || !strings.Contains(file, "/etc/shadow") {
			t.Errorf("scanned %q, %q", exe, file)
		}
	})

	t.Run("scan-int-attr", func(t *testing.T) {
		cur, err := openTBQL(en, `proc p["%cracker%"] read file f["%/etc/shadow%"] as e1
return p.pid, f`, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if !cur.Next() {
			t.Fatal("attack row missing")
		}
		var pid int64
		var file string
		if err := cur.Scan(&pid, &file); err != nil {
			t.Fatal(err)
		}
		if pid <= 0 {
			t.Errorf("pid = %d", pid)
		}
	})

	t.Run("scan-type-mismatch", func(t *testing.T) {
		cur, err := openTBQL(en, crackTBQL, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if !cur.Next() {
			t.Fatal("attack row missing")
		}
		var n int64
		var s string
		if err := cur.Scan(&n, &s); err == nil || !strings.Contains(err.Error(), "not an integer") {
			t.Errorf("int64 scan of exename: err = %v", err)
		}
		var f float64
		if err := cur.Scan(&f, &s); err == nil || !strings.Contains(err.Error(), "not a number") {
			t.Errorf("float64 scan of exename: err = %v", err)
		}
		var unsupported struct{}
		if err := cur.Scan(&unsupported, &s); err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("struct scan: err = %v", err)
		}
	})

	t.Run("scan-arity-mismatch", func(t *testing.T) {
		cur, err := openTBQL(en, crackTBQL, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if !cur.Next() {
			t.Fatal("attack row missing")
		}
		var only string
		if err := cur.Scan(&only); err == nil {
			t.Error("short Scan should fail")
		}
	})

	t.Run("close-idempotent", func(t *testing.T) {
		cur, err := openTBQL(en, crackTBQL, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Next() {
			t.Fatal("attack row missing")
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Errorf("second Close = %v", err)
		}
		if cur.Next() {
			t.Error("Next after Close = true")
		}
		if cur.Row() != nil {
			t.Error("Row after Close is not nil")
		}
		var a, b string
		if err := cur.Scan(&a, &b); err == nil {
			t.Error("Scan after Close should fail")
		}
	})

	t.Run("distinct-dedupe", func(t *testing.T) {
		// The same process reads /etc/shadow many times during the crack
		// loop: DISTINCT must collapse the cursor stream exactly as it
		// collapses Result.Rows.
		src := `proc p["%cracker%"] read file f["%/etc/shadow%"] as e1
return distinct p, f`
		res, err := runTBQL(en, src)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := openTBQL(en, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		rows := drainCursor(t, cur)
		if len(rows) != len(res.Rows) {
			t.Errorf("distinct cursor rows = %d, Execute rows = %d", len(rows), len(res.Rows))
		}
	})

	t.Run("stats-populated", func(t *testing.T) {
		cur, err := openTBQL(en, crackTBQL, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if cur.Stats().RowsFetched == 0 {
			t.Errorf("stats = %+v", cur.Stats())
		}
	})
}
