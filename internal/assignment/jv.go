package assignment

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when no complete matching of the smaller side
// exists. With finite costs this cannot happen; it is kept for safety.
var ErrInfeasible = errors.New("assignment: infeasible cost matrix")

// Solve computes a minimum-cost assignment of the smaller side of the
// bipartite graph described by cost. If cost has m rows and n columns, the
// returned pairing matches min(m, n) row/column pairs; rows[k] is matched to
// cols[k]. The total cost of the matching is returned alongside.
//
// It is the convenience form of Workspace.Solve: it validates the costs,
// accepts either orientation and returns fresh slices. The matching
// distributor's hot path holds a Workspace instead.
func Solve(cost Matrix) (rows, cols []int, total float64, err error) {
	if err := cost.validate(); err != nil {
		return nil, nil, 0, err
	}
	if cost.R == 0 || cost.C == 0 {
		return nil, nil, 0, nil
	}
	m := cost
	if m.R > m.C {
		m = m.Transpose()
	}
	var w Workspace
	cols, err = w.Solve(m) // w dies here, so its result can be handed out
	if err != nil {
		return nil, nil, 0, err
	}
	rows = make([]int, m.R)
	for i := range rows {
		rows[i] = i
	}
	if cost.R > cost.C {
		rows, cols = cols, rows
	}
	return rows, cols, cost.Cost(rows, cols), nil
}

// Workspace owns the scratch of the Jonker-Volgenant solver — duals, the
// shortest-path tree and the scan flags — so that repeated solves allocate
// nothing once it has grown to the largest shape seen. The zero value is
// ready to use; a Workspace is not safe for concurrent use.
type Workspace struct {
	floats []float64 // u | v | shortest
	ints   []int     // col4row | row4col | path | remaining
	flags  []bool    // inSR | inSC
}

// Solve returns, for every row of m, the column it is matched to in a
// minimum-cost matching of all rows. m must have no more rows than columns
// (callers with more build the transpose in place) and finite costs: a NaN
// or +Inf cell is never chosen, and nothing is scanned to reject one. The
// result aliases the workspace and is valid until the next call.
//
// The implementation is the Jonker-Volgenant shortest augmenting path
// algorithm for dense rectangular problems (Crouse, 2016), the algorithm
// used by scipy.optimize.linear_sum_assignment that the paper's
// implementation calls (Sec. 6). Complexity is O(R^2 * C).
func (w *Workspace) Solve(m Matrix) ([]int, error) {
	nr, nc := m.R, m.C
	if nr > nc {
		panic(fmt.Sprintf("assignment: Workspace.Solve needs rows <= columns, got %dx%d", nr, nc))
	}
	// Grown to at least double: a caller whose shape creeps up a row or
	// column per solve reallocates O(log size) times, not every solve.
	if cap(w.floats) < nr+2*nc {
		w.floats = make([]float64, max(nr+2*nc, 2*cap(w.floats)))
	}
	if cap(w.ints) < nr+3*nc {
		w.ints = make([]int, max(nr+3*nc, 2*cap(w.ints)))
	}
	if cap(w.flags) < nr+nc {
		w.flags = make([]bool, max(nr+nc, 2*cap(w.flags)))
	}
	u := w.floats[:nr]        // row duals
	v := w.floats[nr : nr+nc] // column duals
	shortest := w.floats[nr+nc : nr+2*nc]
	col4row := w.ints[:nr]
	row4col := w.ints[nr : nr+nc]
	path := w.ints[nr+nc : nr+2*nc] // predecessor row on the shortest path to each column
	// remaining holds the columns not yet scanned in the current augmentation.
	remaining := w.ints[nr+2*nc : nr+3*nc]
	inSR := w.flags[:nr]
	inSC := w.flags[nr : nr+nc]
	for i := range u {
		u[i] = 0
		col4row[i] = -1
	}
	for j := range v {
		v[j] = 0
		row4col[j] = -1
	}

	for curRow := 0; curRow < nr; curRow++ {
		for i := range inSR {
			inSR[i] = false
		}
		for j := range inSC {
			inSC[j] = false
		}
		for j := range shortest {
			shortest[j] = math.Inf(1)
			path[j] = -1
			remaining[j] = j
		}
		numRemaining := nc

		minVal := 0.0
		i := curRow
		sink := -1
		for sink == -1 {
			inSR[i] = true
			indexLowest := -1
			lowest := math.Inf(1)
			row := m.Data[i*nc : (i+1)*nc]
			ui := u[i]
			for it, j := range remaining[:numRemaining] {
				r := minVal + row[j] - ui - v[j]
				if r < shortest[j] {
					shortest[j] = r
					path[j] = i
				}
				// Tie-break toward already-free columns so augmentation paths
				// stay short (mirrors the scipy implementation).
				if shortest[j] < lowest || (shortest[j] == lowest && row4col[j] == -1) {
					lowest = shortest[j]
					indexLowest = it
				}
			}
			minVal = lowest
			if math.IsInf(minVal, 1) {
				return nil, ErrInfeasible
			}
			j := remaining[indexLowest]
			if row4col[j] == -1 {
				sink = j
			} else {
				i = row4col[j]
			}
			inSC[j] = true
			numRemaining--
			remaining[indexLowest] = remaining[numRemaining]
		}

		// Dual updates.
		u[curRow] += minVal
		for ii := 0; ii < nr; ii++ {
			if inSR[ii] && ii != curRow {
				u[ii] += minVal - shortest[col4row[ii]]
			}
		}
		for j := 0; j < nc; j++ {
			if inSC[j] {
				v[j] -= minVal - shortest[j]
			}
		}

		// Augment along the alternating path ending at sink.
		j := sink
		for {
			ii := path[j]
			row4col[j] = ii
			col4row[ii], j = j, col4row[ii]
			if ii == curRow {
				break
			}
		}
	}
	return col4row, nil
}
