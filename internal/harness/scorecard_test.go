package harness

import "testing"

func TestScorecardStructure(t *testing.T) {
	claims := Scorecard()
	if len(claims) != 10 {
		t.Errorf("scorecard has %d claims, want 10", len(claims))
	}
	seen := map[string]bool{}
	for _, c := range claims {
		if c.ID == "" || c.Source == "" || c.Statement == "" || c.Margin == nil {
			t.Errorf("claim %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim %s", c.ID)
		}
		seen[c.ID] = true
		if c.ID == "storage" {
			if c.Cells != nil {
				t.Errorf("storage has cells")
			}
			continue
		}
		if c.Cells == nil {
			t.Errorf("claim %s has no cells", c.ID)
			continue
		}
		// A cell without mixes would hand its margin an empty geomean;
		// a workload name that trace.ByName does not know gives one.
		cells := c.Cells(tinyScale)
		if len(cells) == 0 {
			t.Errorf("claim %s has no cells at tinyScale", c.ID)
		}
		for i, cell := range cells {
			if len(cell.mixes) == 0 {
				t.Errorf("claim %s cell %d has no mixes at tinyScale", c.ID, i)
			}
		}
	}
}

// TestScorecardVerdicts checks every rendered row against its claim's own
// margin, measured on its own cells (memo hits of the scorecard's runs):
// the verdict is PASS exactly when the margin is positive, and the
// observed column is the margin's detail. A row handed another claim's
// pairs shows here. The storage claim simulates nothing and must hold.
func TestScorecardVerdicts(t *testing.T) {
	tb := mustTable(t)(RunScorecard(bg, microScale))
	claims := Scorecard()
	if len(tb.Rows) != len(claims) {
		t.Fatalf("scorecard rows = %d, want %d:\n%s", len(tb.Rows), len(claims), tb.Render())
	}
	for i, c := range claims {
		var cells []speedupCell
		if c.Cells != nil {
			cells = c.Cells(microScale)
		}
		pairs, err := pairGrid(bg, cells)
		if err != nil {
			t.Fatal(err)
		}
		margin, detail := c.Margin(pairs)
		row := tb.Rows[i]
		want := "FAIL"
		if margin > 0 {
			want = "PASS"
		}
		if row[0] != c.ID || row[2] != want || row[3] != detail {
			t.Errorf("row %v, want claim %s %s (margin %.4f) observing %q", row, c.ID, want, margin, detail)
		}
		if c.ID == "storage" && margin <= 0 {
			t.Errorf("storage claim failed: %s (margin %v)", detail, margin)
		}
	}
}

// TestScorecardSimCount pins the simulations a cold scorecard runs: every
// claim's cells run in one grid, so a run that claims share (Pythia's
// single-core suite runs, in 1c-ordering, cphw and power7) simulates once.
func TestScorecardSimCount(t *testing.T) {
	defer ResetCaches()
	for _, tc := range []struct {
		name string
		sc   Scale
		want int64
	}{
		{"micro", microScale, 166},
		{"tiny", tinyScale, 90},
	} {
		ResetCaches()
		before := SimCount()
		mustTable(t)(RunScorecard(bg, tc.sc))
		if got := SimCount() - before; got != tc.want {
			t.Errorf("%s scale: scorecard ran %d simulations, want %d", tc.name, got, tc.want)
		}
	}
}
