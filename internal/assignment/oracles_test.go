package assignment

import "math"

// Hungarian computes a minimum-cost assignment using the O(n^3)
// potentials-based Kuhn-Munkres algorithm. It is an independent reference
// implementation used to cross-check the Jonker-Volgenant solver; both must
// agree on the optimal total cost for every input.
func Hungarian(cost Matrix) (rows, cols []int, total float64, err error) {
	if err := cost.validate(); err != nil {
		return nil, nil, 0, err
	}
	if cost.R == 0 || cost.C == 0 {
		return nil, nil, 0, nil
	}
	transposed := false
	m := cost
	if m.R > m.C {
		m = m.Transpose()
		transposed = true
	}
	nr, nc := m.R, m.C

	// 1-indexed arrays in the classic formulation.
	u := make([]float64, nr+1)
	v := make([]float64, nc+1)
	p := make([]int, nc+1)   // p[j] = row matched to column j (0 = none)
	way := make([]int, nc+1) // way[j] = previous column on the alternating path
	for i := 1; i <= nr; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, nc+1)
		used := make([]bool, nc+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= nc; j++ {
				if used[j] {
					continue
				}
				cur := m.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 == -1 {
				return nil, nil, 0, ErrInfeasible
			}
			for j := 0; j <= nc; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rows = make([]int, 0, nr)
	cols = make([]int, 0, nr)
	for j := 1; j <= nc; j++ {
		if p[j] != 0 {
			rows = append(rows, p[j]-1)
			cols = append(cols, j-1)
		}
	}
	if transposed {
		rows, cols = cols, rows
	}
	total = cost.Cost(rows, cols)
	return rows, cols, total, nil
}

// BruteForce enumerates every maximal matching and returns an optimal one.
// It is exponential and intended only for property tests on tiny inputs
// (min(m, n) <= 8 or so).
func BruteForce(cost Matrix) (rows, cols []int, total float64, err error) {
	if err := cost.validate(); err != nil {
		return nil, nil, 0, err
	}
	if cost.R == 0 || cost.C == 0 {
		return nil, nil, 0, nil
	}
	transposed := false
	m := cost
	if m.R > m.C {
		m = m.Transpose()
		transposed = true
	}
	best := math.Inf(1)
	bestCols := make([]int, m.R)
	cur := make([]int, m.R)
	usedCol := make([]bool, m.C)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return
		}
		if i == m.R {
			best = acc
			copy(bestCols, cur)
			return
		}
		for j := 0; j < m.C; j++ {
			if usedCol[j] {
				continue
			}
			usedCol[j] = true
			cur[i] = j
			rec(i+1, acc+m.At(i, j))
			usedCol[j] = false
		}
	}
	rec(0, 0)
	rows = make([]int, m.R)
	cols = make([]int, m.R)
	for i := 0; i < m.R; i++ {
		rows[i] = i
		cols[i] = bestCols[i]
	}
	if transposed {
		rows, cols = cols, rows
	}
	total = cost.Cost(rows, cols)
	return rows, cols, total, nil
}
