package order

import (
	"sort"

	"stance/internal/geom"
	"stance/internal/graph"
)

// sfcBits is the per-axis resolution of the space-filling-curve
// orderings: coordinates are quantized onto a 2^sfcBits grid.
const sfcBits = 16

// quantize maps coordinates onto the integer grid [0, 2^sfcBits).
func quantize(coords []geom.Point) ([][3]uint32, bool) {
	b := geom.Bounds(coords)
	span := [3]float64{b.Extent(0), b.Extent(1), b.Extent(2)}
	is3D := span[2] > 0
	const maxCell = (1 << sfcBits) - 1
	out := make([][3]uint32, len(coords))
	for i, p := range coords {
		for axis := 0; axis < 3; axis++ {
			if span[axis] <= 0 {
				continue
			}
			f := (p.Coord(axis) - b.Min.Coord(axis)) / span[axis]
			c := uint32(f * maxCell)
			if c > maxCell {
				c = maxCell
			}
			out[i][axis] = c
		}
	}
	return out, is3D
}

// Morton orders vertices along the Z-order (Morton) space-filling
// curve of their quantized coordinates. Works for 2-D and 3-D data.
func Morton(g *graph.Graph) ([]int32, error) {
	if err := checkCoords(g, "Morton"); err != nil {
		return nil, err
	}
	q, is3D := quantize(g.Coords)
	keys := make([]uint64, g.N)
	for i := range q {
		if is3D {
			keys[i] = morton3(q[i][0], q[i][1], q[i][2])
		} else {
			keys[i] = morton2(q[i][0], q[i][1])
		}
	}
	return permFromUintKeys(keys), nil
}

// Hilbert orders vertices along the 2-D Hilbert curve of their
// quantized coordinates; for 3-D inputs it falls back to interleaving
// the Hilbert index of (x, y) with z, which preserves most locality.
func Hilbert(g *graph.Graph) ([]int32, error) {
	if err := checkCoords(g, "Hilbert"); err != nil {
		return nil, err
	}
	q, is3D := quantize(g.Coords)
	keys := make([]uint64, g.N)
	for i := range q {
		h := hilbertXY2D(q[i][0], q[i][1])
		if is3D {
			// Coarse 3-D handling: major-order on the z layer bits.
			keys[i] = uint64(q[i][2])<<(2*sfcBits) | h
		} else {
			keys[i] = h
		}
	}
	return permFromUintKeys(keys), nil
}

func permFromUintKeys(keys []uint64) []int32 {
	ranked := make([]int32, len(keys))
	for i := range ranked {
		ranked[i] = int32(i)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if keys[ranked[i]] != keys[ranked[j]] {
			return keys[ranked[i]] < keys[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	return fromRanked(ranked)
}

// spread2 inserts a zero bit between each of the low 32 bits of x.
func spread2(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// morton2 interleaves the bits of x and y.
func morton2(x, y uint32) uint64 {
	return spread2(x) | spread2(y)<<1
}

// spread3 inserts two zero bits between each of the low 21 bits of x.
func spread3(x uint32) uint64 {
	v := uint64(x) & 0x1FFFFF
	v = (v | v<<32) & 0x1F00000000FFFF
	v = (v | v<<16) & 0x1F0000FF0000FF
	v = (v | v<<8) & 0x100F00F00F00F00F
	v = (v | v<<4) & 0x10C30C30C30C30C3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// morton3 interleaves the low 21 bits of x, y and z.
func morton3(x, y, z uint32) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// hilbertXY2D converts grid coordinates to their index along the
// Hilbert curve of order sfcBits (the classical Wikipedia xy2d
// rotation algorithm).
func hilbertXY2D(x, y uint32) uint64 {
	var d uint64
	rx, ry := uint32(0), uint32(0)
	for s := uint32(1) << (sfcBits - 1); s > 0; s /= 2 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
