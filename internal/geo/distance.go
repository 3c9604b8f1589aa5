package geo

import "math"

// DistanceTransform computes, for every in-park cell, the shortest-path
// distance in km to the nearest source cell, moving through in-park cells
// with 8-connectivity (diagonal steps cost √2). Cells unreachable from any
// source get +Inf. An empty source set yields an all-Inf raster.
func DistanceTransform(g *Grid, sources []int) *Raster {
	r := NewRaster(g)
	for i := range r.V {
		r.V[i] = math.Inf(1)
	}
	var pq distHeap
	for _, s := range sources {
		if s < 0 || s >= g.NumCells() {
			continue
		}
		if r.V[s] > 0 {
			r.V[s] = 0
			pq.push(distItem{id: s, d: 0})
		}
	}
	for len(pq) > 0 {
		it := pq.pop()
		if it.d > r.V[it.id] {
			continue
		}
		x, y := g.CellXY(it.id)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				n := g.CellID(x+dx, y+dy)
				if n < 0 {
					continue
				}
				step := 1.0
				if dx != 0 && dy != 0 {
					step = math.Sqrt2
				}
				nd := it.d + step
				if nd < r.V[n] {
					r.V[n] = nd
					pq.push(distItem{id: n, d: nd})
				}
			}
		}
	}
	return r
}

type distItem struct {
	id int
	d  float64
}

// distHeap is a binary min-heap on d. push and pop sift exactly as
// container/heap's Push and Pop do (the same comparisons, so the same
// element lands in each slot), so items of equal distance pop in the same
// order and every raster stays bit-identical; they only skip its interface
// calls and the boxing of each item.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	q := append(*h, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.d < q[i].d) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
	*h = q
}

func (h *distHeap) pop() distItem {
	q := *h
	n := len(q) - 1
	top, it := q[0], q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for j := 1; j < n; j = 2*i + 1 {
		if j+1 < n && q[j+1].d < q[j].d {
			j++
		}
		if !(q[j].d < it.d) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = it
	return top
}

// BoundaryCells returns the compact ids of all cells on the park boundary.
func BoundaryCells(g *Grid) []int {
	var out []int
	for id := 0; id < g.NumCells(); id++ {
		if g.OnBoundary(id) {
			out = append(out, id)
		}
	}
	return out
}
