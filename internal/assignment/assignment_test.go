package assignment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSolve(t *testing.T, m Matrix) ([]int, []int, float64) {
	t.Helper()
	rows, cols, total, err := Solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return rows, cols, total
}

func TestSolveEmpty(t *testing.T) {
	rows, cols, total, err := Solve(Matrix{})
	if err != nil || len(rows) != 0 || len(cols) != 0 || total != 0 {
		t.Fatalf("empty matrix: got rows=%v cols=%v total=%v err=%v", rows, cols, total, err)
	}
}

func TestSolveSingleCell(t *testing.T) {
	m := NewMatrix(1, 1)
	m.Set(0, 0, 7.5)
	rows, cols, total := mustSolve(t, m)
	if len(rows) != 1 || rows[0] != 0 || cols[0] != 0 || total != 7.5 {
		t.Fatalf("got rows=%v cols=%v total=%v", rows, cols, total)
	}
}

func TestSolveKnownSquare(t *testing.T) {
	// Classic example: optimal assignment is the anti-diagonal.
	m, err := FromRows([][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, cols, total := mustSolve(t, m)
	if total != 5 {
		t.Fatalf("total = %v, want 5", total)
	}
	want := []int{1, 0, 2}
	for i, c := range cols {
		if c != want[i] {
			t.Fatalf("cols = %v, want %v", cols, want)
		}
	}
}

func TestSolveWideMatrix(t *testing.T) {
	// 2 queries, 4 instances: both queries must be matched (Eq. 7).
	m, err := FromRows([][]float64{
		{10, 3, 8, 5},
		{4, 9, 2, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, total := mustSolve(t, m)
	if len(rows) != 2 {
		t.Fatalf("matched %d pairs, want 2", len(rows))
	}
	if total != 5 { // 3 + 2
		t.Fatalf("total = %v, want 5 (cols %v)", total, cols)
	}
}

func TestSolveTallMatrix(t *testing.T) {
	// 4 queries, 2 instances: exactly 2 queries matched (Eq. 7 with n < m).
	m, err := FromRows([][]float64{
		{10, 9},
		{1, 8},
		{7, 2},
		{6, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, total := mustSolve(t, m)
	if len(rows) != 2 {
		t.Fatalf("matched %d pairs, want 2", len(rows))
	}
	if total != 3 { // rows 1 and 2 at cost 1 + 2
		t.Fatalf("total = %v (rows %v cols %v), want 3", total, rows, cols)
	}
}

func TestSolveRejectsNaNAndInf(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, math.NaN())
	if _, _, _, err := Solve(m); err == nil {
		t.Fatal("expected error for NaN cost")
	}
	m2 := NewMatrix(2, 2)
	m2.Set(1, 0, math.Inf(1))
	if _, _, _, err := Solve(m2); err == nil {
		t.Fatal("expected error for +Inf cost")
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestSolveNegativeCosts(t *testing.T) {
	m, err := FromRows([][]float64{
		{-5, 2},
		{3, -4},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, total := mustSolve(t, m)
	if total != -9 {
		t.Fatalf("total = %v, want -9", total)
	}
}

func TestSolveDuplicateCostsStable(t *testing.T) {
	// All costs equal: any perfect matching is optimal, total must be n*c.
	m := NewMatrix(5, 5)
	for i := range m.Data {
		m.Data[i] = 3
	}
	rows, cols, total := mustSolve(t, m)
	if total != 15 {
		t.Fatalf("total = %v, want 15", total)
	}
	checkValidMatching(t, m, rows, cols)
}

// checkValidMatching verifies Eq. 6/7: each row and column used at most once
// and exactly min(m,n) pairs matched.
func checkValidMatching(t *testing.T, m Matrix, rows, cols []int) {
	t.Helper()
	want := m.R
	if m.C < want {
		want = m.C
	}
	if len(rows) != want || len(cols) != want {
		t.Fatalf("matched %d/%d pairs, want %d", len(rows), len(cols), want)
	}
	seenR := map[int]bool{}
	seenC := map[int]bool{}
	for k := range rows {
		if rows[k] < 0 || rows[k] >= m.R || cols[k] < 0 || cols[k] >= m.C {
			t.Fatalf("pair (%d,%d) out of range for %dx%d", rows[k], cols[k], m.R, m.C)
		}
		if seenR[rows[k]] {
			t.Fatalf("row %d matched twice", rows[k])
		}
		if seenC[cols[k]] {
			t.Fatalf("col %d matched twice", cols[k])
		}
		seenR[rows[k]] = true
		seenC[cols[k]] = true
	}
}

func randomMatrix(rng *rand.Rand, r, c int, scale float64) Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = math.Round(rng.Float64()*scale*100) / 100
	}
	return m
}

// TestSolveMatchesBruteForce is the core property test: on random small
// matrices, JV, Hungarian, and brute force must all find the same optimal
// total cost, and the JV matching must be structurally valid.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(rs, cs uint8) bool {
		r := int(rs%6) + 1
		c := int(cs%6) + 1
		m := randomMatrix(rng, r, c, 50)
		rows, cols, jvTotal, err := Solve(m)
		if err != nil {
			t.Logf("Solve error: %v", err)
			return false
		}
		checkValidMatching(t, m, rows, cols)
		_, _, bfTotal, err := BruteForce(m)
		if err != nil {
			t.Logf("BruteForce error: %v", err)
			return false
		}
		_, _, hTotal, err := Hungarian(m)
		if err != nil {
			t.Logf("Hungarian error: %v", err)
			return false
		}
		if math.Abs(jvTotal-bfTotal) > 1e-9 {
			t.Logf("JV=%v brute=%v matrix=%v", jvTotal, bfTotal, m)
			return false
		}
		if math.Abs(hTotal-bfTotal) > 1e-9 {
			t.Logf("Hungarian=%v brute=%v matrix=%v", hTotal, bfTotal, m)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveMatchesHungarianLarge cross-checks the two polynomial solvers on
// larger instances where brute force is intractable.
func TestSolveMatchesHungarianLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		r := rng.Intn(40) + 1
		c := rng.Intn(40) + 1
		m := randomMatrix(rng, r, c, 1000)
		rows, cols, jvTotal, err := Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		checkValidMatching(t, m, rows, cols)
		_, _, hTotal, err := Hungarian(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(jvTotal-hTotal) > 1e-6 {
			t.Fatalf("trial %d (%dx%d): JV=%v Hungarian=%v", trial, r, c, jvTotal, hTotal)
		}
	}
}

// workspaceTotal solves m (rows <= columns) through w and returns the
// matching's cost after checking that it is a matching.
func workspaceTotal(t *testing.T, w *Workspace, m Matrix) float64 {
	t.Helper()
	col4row, err := w.Solve(m)
	if err != nil {
		t.Fatalf("Workspace.Solve %dx%d: %v", m.R, m.C, err)
	}
	rows := make([]int, m.R)
	for i := range rows {
		rows[i] = i
	}
	checkValidMatching(t, m, rows, col4row)
	return m.Cost(rows, col4row)
}

// plateauMatrix is a random matrix the way Eq. 8 makes them: a share of
// the cells sit on one penalty value and the rest repeat a few costs, so
// ties are everywhere.
func plateauMatrix(rng *rand.Rand, r, c int) Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		switch rng.Intn(3) {
		case 0:
			m.Data[i] = 1000
		case 1:
			m.Data[i] = float64(rng.Intn(5))
		default:
			m.Data[i] = math.Round(rng.Float64()*5000) / 100
		}
	}
	return m
}

// TestWorkspaceMatchesOracles: one workspace, reused across shapes that
// grow and shrink, must find the brute-force optimum on every small
// matrix and the Hungarian optimum on every larger one, ties or not; the
// Solve wrapper must agree on the tall transposes.
func TestWorkspaceMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var w Workspace
	for trial := 0; trial < 3000; trial++ {
		small := trial%2 == 0
		r, c := 1+rng.Intn(40), 1+rng.Intn(40)
		if small {
			r, c = 1+rng.Intn(7), 1+rng.Intn(7)
		}
		if r > c {
			r, c = c, r
		}
		m := randomMatrix(rng, r, c, 50)
		if trial%3 == 0 {
			m = plateauMatrix(rng, r, c)
		}
		got := workspaceTotal(t, &w, m)
		oracle, name := Hungarian, "Hungarian"
		if small {
			oracle, name = BruteForce, "brute force"
		}
		_, _, want, err := oracle(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): workspace %v, %s %v, matrix %v", trial, r, c, got, name, want, m)
		}
		tall := m.Transpose()
		rows, cols, total, err := Solve(tall)
		if err != nil {
			t.Fatal(err)
		}
		checkValidMatching(t, tall, rows, cols)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: Solve on the %dx%d transpose %v, %s %v", trial, c, r, total, name, want)
		}
	}
}

// TestWorkspaceAllocatesNothing: once grown to the largest shape, the
// workspace solves any shape without allocating.
func TestWorkspaceAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Workspace
	shapes := [][2]int{{16, 1000}, {1, 1}, {4, 8}, {16, 64}, {64, 64}, {2, 3}}
	ms := make([]Matrix, len(shapes))
	for k, s := range shapes {
		ms[k] = randomMatrix(rng, s[0], s[1], 100)
	}
	workspaceTotal(t, &w, NewMatrix(64, 1000)) // covers every shape below
	for k, m := range ms {
		if allocs := testing.AllocsPerRun(10, func() { w.Solve(m) }); allocs != 0 {
			t.Errorf("%dx%d: %v allocs per solve, want 0", shapes[k][0], shapes[k][1], allocs)
		}
	}
}

// TestWorkspaceSkipsUnusableCells: the hot path scans nothing, so a NaN or
// +Inf cell is simply never chosen, and a row of them is infeasible.
func TestWorkspaceSkipsUnusableCells(t *testing.T) {
	var w Workspace
	m, _ := FromRows([][]float64{
		{math.NaN(), 4, 1},
		{2, math.Inf(1), 1},
	})
	if got := workspaceTotal(t, &w, m); got != 3 {
		t.Fatalf("total %v, want 3 (the optimum over the usable cells)", got)
	}
	bad, _ := FromRows([][]float64{{math.NaN(), math.Inf(1)}})
	if _, err := w.Solve(bad); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestSolvePenaltyAvoidance mirrors Kairos Eq. 8: entries carrying a large
// penalty must be avoided whenever a feasible perfect matching exists.
func TestSolvePenaltyAvoidance(t *testing.T) {
	const penalty = 3500 // 10x a 350ms QoS target
	m, err := FromRows([][]float64{
		{penalty, 120, 80},
		{200, penalty, penalty},
		{150, 90, penalty},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, total := mustSolve(t, m)
	if total >= penalty {
		t.Fatalf("matching used a penalized edge: total=%v rows=%v cols=%v", total, rows, cols)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.R != 3 || tr.C != 2 {
		t.Fatalf("transpose dims %dx%d", tr.R, tr.C)
	}
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func BenchmarkSolve20x20(b *testing.B) {
	// Sec. 6: a 20-query-20-instance matching plus network delay fits in
	// 0.05ms; the solver alone should be far below that.
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 20, 20, 350)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Solve(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 100, 100, 350)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Solve(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve200Queries20Instances(b *testing.B) {
	// "hundreds of queries arriving concurrently ... well within 1ms" (Sec. 6).
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 200, 20, 350)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Solve(m); err != nil {
			b.Fatal(err)
		}
	}
}
