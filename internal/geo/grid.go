// Package geo provides the synthetic geospatial substrate for the PAWS
// reproduction: grids of 1×1 km cells with park-boundary masks, rasters of
// terrain/landscape/ecological features, deterministic fractal noise, river
// and road tracing, and multi-source distance transforms.
//
// The real PAWS system consumes GIS shapefiles and GeoTIFF rasters supplied
// by conservation NGOs; those data are proprietary. This package generates
// parks with the same statistical structure, with cell and feature counts
// calibrated to the paper's Table I (presets.go), so the rest of the
// pipeline runs unchanged.
package geo

import (
	"fmt"
	"math"
)

// Grid is a W×H lattice of 1×1 km cells with a boolean park mask. Cells are
// addressed either by (x, y) lattice coordinates or by a compact cell id
// enumerating only in-park cells (the order is row-major over masked cells).
type Grid struct {
	W, H int
	// mask[y*W+x] reports whether the lattice cell is inside the park.
	mask []bool
	// cells lists lattice indices (y*W+x) of in-park cells in row-major order.
	cells []int
	// cellID maps lattice index -> compact id, or -1 if outside the park.
	cellID []int
}

// NewGrid builds a grid from a mask of length W*H.
func NewGrid(w, h int, mask []bool) *Grid {
	if len(mask) != w*h {
		panic(fmt.Sprintf("geo: mask length %d want %d", len(mask), w*h))
	}
	g := &Grid{W: w, H: h, mask: append([]bool(nil), mask...)}
	g.cellID = make([]int, w*h)
	for i := range g.cellID {
		g.cellID[i] = -1
	}
	for i, in := range g.mask {
		if in {
			g.cellID[i] = len(g.cells)
			g.cells = append(g.cells, i)
		}
	}
	return g
}

// NumCells returns the number of in-park cells.
func (g *Grid) NumCells() int { return len(g.cells) }

// InPark reports whether lattice coordinates are inside the park.
func (g *Grid) InPark(x, y int) bool {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return false
	}
	return g.mask[y*g.W+x]
}

// CellID returns the compact id for lattice coordinates, or -1.
func (g *Grid) CellID(x, y int) int {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return -1
	}
	return g.cellID[y*g.W+x]
}

// CellXY returns the lattice coordinates of compact cell id.
func (g *Grid) CellXY(id int) (x, y int) {
	li := g.cells[id]
	return li % g.W, li / g.W
}

// LatticeIndex returns the lattice index (y*W+x) of compact cell id.
func (g *Grid) LatticeIndex(id int) int { return g.cells[id] }

// Neighbors4 appends the compact ids of the in-park 4-neighbors of id to dst.
func (g *Grid) Neighbors4(id int, dst []int) []int {
	x, y := g.CellXY(id)
	for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		if n := g.CellID(x+d[0], y+d[1]); n >= 0 {
			dst = append(dst, n)
		}
	}
	return dst
}

// Neighbors8 appends the compact ids of the in-park 8-neighbors of id to dst.
func (g *Grid) Neighbors8(id int, dst []int) []int {
	x, y := g.CellXY(id)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if n := g.CellID(x+dx, y+dy); n >= 0 {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// OnBoundary reports whether cell id touches the park boundary (has a
// lattice neighbor outside the park or lies on the grid edge).
func (g *Grid) OnBoundary(id int) bool {
	x, y := g.CellXY(id)
	for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		nx, ny := x+d[0], y+d[1]
		if nx < 0 || nx >= g.W || ny < 0 || ny >= g.H || !g.mask[ny*g.W+nx] {
			return true
		}
	}
	return false
}

// EuclidKM returns the Euclidean distance in km between two cell centers.
func (g *Grid) EuclidKM(a, b int) float64 {
	ax, ay := g.CellXY(a)
	bx, by := g.CellXY(b)
	dx, dy := float64(ax-bx), float64(ay-by)
	return math.Sqrt(dx*dx + dy*dy)
}

// Raster is a per-cell scalar field over a grid (indexed by compact cell id).
type Raster struct {
	Grid *Grid
	V    []float64
}

// NewRaster allocates a zero raster over g.
func NewRaster(g *Grid) *Raster {
	return &Raster{Grid: g, V: make([]float64, g.NumCells())}
}

// MinMax returns the minimum and maximum values of the raster.
func (r *Raster) MinMax() (lo, hi float64) {
	if len(r.V) == 0 {
		return 0, 0
	}
	lo, hi = r.V[0], r.V[0]
	for _, v := range r.V[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Normalize rescales the raster to [0, 1] in place (no-op for constant
// rasters).
func (r *Raster) Normalize() {
	lo, hi := r.MinMax()
	if hi-lo < 1e-15 {
		return
	}
	inv := 1 / (hi - lo)
	for i, v := range r.V {
		r.V[i] = (v - lo) * inv
	}
}

// ASCII renders the raster as a coarse character heatmap (for figures and
// debugging). Cells outside the park print as spaces.
func (r *Raster) ASCII() string {
	const ramp = " .:-=+*#%@"
	lo, hi := r.MinMax()
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	g := r.Grid
	buf := make([]byte, 0, (g.W+1)*g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			id := g.CellID(x, y)
			if id < 0 {
				buf = append(buf, ' ')
				continue
			}
			f := (r.V[id] - lo) / span
			k := int(f * float64(len(ramp)-1))
			if k < 0 {
				k = 0
			}
			if k > len(ramp)-1 {
				k = len(ramp) - 1
			}
			buf = append(buf, ramp[k])
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
