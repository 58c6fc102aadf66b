// Package assignment provides solvers for the rectangular linear sum
// assignment problem (min-cost bipartite matching).
//
// Kairos (Sec. 5.1) reduces its query-distribution problem to min-cost
// bipartite matching between queries and instances and solves it with the
// Jonker-Volgenant shortest augmenting path algorithm, the same algorithm
// behind scipy.optimize.linear_sum_assignment used by the paper's
// implementation. This package supplies that solver; two independent
// reference implementations (Hungarian and brute force) cross-check it in
// the package's property-based tests.
package assignment

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major cost matrix with R rows and C columns.
// The zero value is an empty matrix.
type Matrix struct {
	R, C int
	Data []float64
}

// NewMatrix allocates an R x C matrix of zeros.
func NewMatrix(r, c int) Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("assignment: negative matrix dimensions %dx%d", r, c))
	}
	return Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (Matrix, error) {
	if len(rows) == 0 {
		return Matrix{}, nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return Matrix{}, fmt.Errorf("assignment: ragged row %d: got %d columns, want %d", i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// At returns the element at row i, column j.
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set stores v at row i, column j.
func (m Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Transpose returns a new matrix that is the transpose of m.
func (m Matrix) Transpose() Matrix {
	t := NewMatrix(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// validate rejects matrices containing NaN; infinities are rejected as well
// because Kairos encodes infeasibility with a large finite penalty (Eq. 8)
// rather than with non-finite costs.
func (m Matrix) validate() error {
	for idx, v := range m.Data {
		if math.IsNaN(v) {
			return fmt.Errorf("assignment: NaN cost at row %d col %d", idx/m.C, idx%m.C)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("assignment: infinite cost at row %d col %d (use a finite penalty)", idx/m.C, idx%m.C)
		}
	}
	return nil
}

// Cost sums the matrix entries selected by the pairing (rows[k], cols[k]).
func (m Matrix) Cost(rows, cols []int) float64 {
	total := 0.0
	for k := range rows {
		total += m.At(rows[k], cols[k])
	}
	return total
}
